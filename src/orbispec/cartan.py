"""Cartan projection and the three invariant distances on the symmetric space.

An element acts through its block-diagonal matrix; its Cartan projection is
the per-block vector of log singular values sorted non-increasingly.  On top
of the Riemannian distance d (norm of the projection) the package uses the
polyhedral distance (pairing of the projection with rho/||rho||) and, for
s > 0, the mixed distance

    min(s, ||rho||) * d_polyhedral + max(s - ||rho||, 0) * d_riemannian,

which interpolates between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import NumericalError
from .liecore import ChamberVector, GroupSpec, RootSystemData

# SVD conditioning guard: reject float images with larger entries
MAX_FLOAT_ENTRY = 1e15

_DET_FLOAT_TOL = 1e-9


def _coerce_entry(x, arithmetic: str):
    if isinstance(x, (bool, np.bool_)):
        raise ValueError(f"matrix entries must be numbers, got {x!r}")
    if arithmetic == "exact-int":
        if not isinstance(x, (int, np.integer)):
            raise ValueError(f"exact-int mode requires integer entries, got {x!r}")
        return int(x)
    if arithmetic == "exact-rational":
        if isinstance(x, (int, np.integer)):
            return Fraction(int(x))
        if isinstance(x, (Fraction, Rational)):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise ValueError(f"exact-rational mode requires integer/rational entries, got {x!r}")
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("non-finite matrix entry")
    return x


def _det_exact(rows: tuple[tuple, ...]) -> Fraction:
    # fraction-based Gaussian elimination; exact for int and Fraction entries
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def _integer_valued(rows: tuple[tuple[float, ...], ...]) -> bool:
    return all(x.is_integer() for row in rows for x in row)


def _adjugate(rows: tuple[tuple, ...]) -> list[list[Fraction]]:
    """Adjugate from the signed minors: the inverse of a determinant-one block."""
    n = len(rows)
    minor = lambda i, j: [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
    return [[(-1) ** (i + j) * _det_exact(minor(j, i)) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class GroupElement:
    """Block-diagonal matrix, one block per spec factor, each of determinant
    one (float blocks with a non-integer entry within 1e-9), which the
    Cartan closed form relies on."""

    spec: GroupSpec
    blocks: tuple[tuple[tuple, ...], ...]
    word_length: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.blocks) != len(self.spec.factors):
            raise ValueError(
                f"expected {len(self.spec.factors)} blocks, got {len(self.blocks)}"
            )
        mode = self.spec.arithmetic
        coerced = []
        for n, block in zip(self.spec.sizes, self.blocks):
            rows = tuple(tuple(_coerce_entry(x, mode) for x in row) for row in block)
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValueError(f"block must be {n}x{n}, got {rows!r}")
            if mode == "float" and not _integer_valued(rows):
                det = float(np.linalg.det(np.asarray(rows, dtype=float)))
                if abs(det - 1.0) > _DET_FLOAT_TOL:
                    raise ValueError(f"block determinant {det:.12g} != 1")
            else:
                # integer-valued entries have an integer determinant, within
                # 1e-9 of 1 only when it is 1; LU rounding misses 1e-9 past ~1e4
                det = _det_exact(rows)
                if det != 1:
                    raise ValueError(f"block determinant {det} != 1")
            coerced.append(rows)
        object.__setattr__(self, "blocks", tuple(coerced))

    @classmethod
    def identity(cls, spec: GroupSpec) -> "GroupElement":
        cast = float if spec.arithmetic == "float" else int
        return cls(spec, tuple(tuple(tuple(cast(i == j) for j in range(n)) for i in range(n))
                               for n in spec.sizes), 0)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.spec != other.spec:
            raise ValueError("elements live in different groups")
        # each entry adds its products over k = 0, 1, ... to 0, exact on exact data
        return GroupElement(self.spec, tuple(
            tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)
            for a, b in zip(self.blocks, other.blocks)))

    def inverse(self) -> "GroupElement":
        """The exact adjugate of each exact or integer-valued float block;
        np.linalg.inv of any other float block."""
        cast = {"exact-int": int, "float": float}.get(self.spec.arithmetic, Fraction)
        blocks = [np.linalg.inv(np.asarray(rows)).tolist()
                  if cast is float and not _integer_valued(rows)
                  else [[cast(x) for x in row] for row in _adjugate(rows)]
                  for rows in self.blocks]
        return GroupElement(self.spec, tuple(tuple(map(tuple, b)) for b in blocks))

    def float_blocks(self) -> list[np.ndarray]:
        return [np.asarray([[float(x) for x in row] for row in rows])
                for rows in self.blocks]

    def flat_entries(self) -> tuple:
        return tuple(x for rows in self.blocks for row in rows for x in row)

    @classmethod
    def from_flat(cls, spec: GroupSpec, flat, word_length: int | None = None) -> "GroupElement":
        """The element whose `flat_entries` are `flat`."""
        return cls(spec, tuple(tuple(flat[sl][i * n:(i + 1) * n] for i in range(n))
                               for n, sl in zip(spec.sizes, spec.entry_slices)), word_length)

    @property
    def is_identity(self) -> bool:
        return all(x == (i == j) for rows in self.blocks
                   for i, row in enumerate(rows) for j, x in enumerate(row))


def stack_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast product of float matrix stacks, np.einsum("...ij,...jk->...ik")
    bit for bit and faster: each entry adds its products over j = 0, 1, ...
    to +0.0, so products that are all -0.0 sum to +0.0 as in einsum.

    The n^2 entries are formed one at a time from contiguous copies of the
    factors' entry columns, so every multiply and add runs over the whole
    stack rather than over n elements.  The leading axes are reversed while
    summing: the walk's frontier axis, the long one, comes first, and
    reversed it is the inner loop."""
    n = a.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))

    def columns(m):
        m = m.reshape((1,) * (out.ndim - m.ndim) + m.shape)
        return [[m[..., i, j].T.copy() for j in range(n)] for i in range(n)]

    a_cols, b_cols = columns(a), columns(b)
    acc = np.empty(out.shape[-3::-1])
    prod = np.empty_like(acc)
    for i in range(n):
        for k in range(n):
            np.multiply(a_cols[i][0], b_cols[0][k], out=prod)
            np.add(0.0, prod, out=acc)
            for j in range(1, n):
                np.multiply(a_cols[i][j], b_cols[j][k], out=prod)
                acc += prod
            out[..., i, k] = acc.T
    return out


def log_singular_values(stack: np.ndarray) -> np.ndarray:
    """Per-matrix log singular values, sorted non-increasingly and recentred
    to sum zero, for a (..., n, n) float stack of determinant-one matrices.

    For 2x2 matrices the squared Frobenius norm q gives the exact closed
    form arccosh(q / 2) / 2, avoiding millions of LAPACK calls in
    orbit-scale batches; it takes the determinant to be 1 rather than
    computing ad - bc, which cancels in float64 once entries pass ~1e8.
    """
    stack = np.asarray(stack, dtype=float)
    # two reductions and no stack-sized copy: NaN propagates through both
    hi, lo = stack.max(initial=0.0), stack.min(initial=0.0)
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise NumericalError("non-finite matrix entries")
    if max(hi, -lo) > MAX_FLOAT_ENTRY:
        raise NumericalError(
            f"matrix entries exceed {MAX_FLOAT_ENTRY:g}; reduce the word length"
        )
    n = stack.shape[-1]
    if n == 2:
        a, b = stack[..., 0, 0], stack[..., 0, 1]
        c, d = stack[..., 1, 0], stack[..., 1, 1]
        q = (a * a + b * b + c * c + d * d) / 2.0
        h = 0.5 * np.arccosh(np.maximum(q, 1.0))
        return np.stack([h, -h], axis=-1)
    sv = np.linalg.svd(stack, compute_uv=False)
    if np.any(sv[..., -1] <= 0):
        raise NumericalError("singular block")
    logs = np.log(sv)
    return logs - logs.mean(axis=-1, keepdims=True)


def cartan_projection(g: GroupElement) -> ChamberVector:
    """Chamber component of g in the K exp(a+) K decomposition."""
    coords = np.concatenate([log_singular_values(block[None])[0]
                             for block in g.float_blocks()])
    return ChamberVector(g.spec, coords)


def relative_position(x: GroupElement, y: GroupElement | None = None) -> ChamberVector:
    """Cartan projection of y^-1 x, the chamber-valued distance of xK from yK
    (from eK when y is None)."""
    return cartan_projection(x if y is None else y.inverse() @ x)


def distance_riemannian(x: GroupElement, y: GroupElement | None = None) -> float:
    """Riemannian distance between xK and yK (trace-form norm of the
    relative Cartan projection)."""
    return relative_position(x, y).norm


def distance_polyhedral(rs: RootSystemData, x: GroupElement,
                        y: GroupElement | None = None) -> float:
    """Polyhedral distance <rho/||rho||, (y^-1 x)^+>; its balls are sublevel
    sets of <rho, .> and reflect the volume growth at infinity."""
    return float(rs.rho @ relative_position(x, y).coords) / rs.rho_norm


def distance_mixed(rs: RootSystemData, s: float, x: GroupElement,
                   y: GroupElement | None = None) -> float:
    """One-parameter blend of the polyhedral and Riemannian distances."""
    h = relative_position(x, y)
    dp = float(rs.rho @ h.coords) / rs.rho_norm
    return float(mixed_from_parts(rs.rho_norm, s, dp, h.norm))


def mixed_from_parts(rho_norm: float, s: float | None, d_poly, d_riem):
    """Mixed distance from precomputed polyhedral/Riemannian values; the one
    place that checks the mixing parameter s."""
    if s is None or not 0 < s < np.inf:
        raise ValueError(f"mixing parameter must be finite and positive, got {s}")
    # one fresh buffer for the result, which callers may overwrite
    mixed = np.multiply(d_poly, np.minimum(s, rho_norm))
    mixed += np.maximum(s - rho_norm, 0.0) * d_riem
    return mixed
