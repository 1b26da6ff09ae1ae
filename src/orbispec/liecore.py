"""Root-system and metric data for products of SL(n,R).

The symmetric space attached to a factor SL(n,R) is SL(n,R)/SO(n); products
are handled block-diagonally.  The invariant inner product is the trace form
on traceless symmetric matrices, i.e. the ordinary dot product on diagonal
coordinates, so every constant reported by this package (rho norms, critical
exponents, spectral values) is expressed in that normalization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedGroupError

ARITHMETIC_MODES = ("exact-int", "exact-rational", "float")

# absolute tolerance for dominance / trace-free assertions on float data
FLOAT_ATOL = 1e-9


@dataclass(frozen=True)
class Factor:
    """One simple factor of the ambient group."""

    type: str
    n: int


@dataclass(frozen=True)
class GroupSpec:
    """A finite product of SL(n,R) factors plus the arithmetic mode of its
    generators (exact integers, exact rationals, or floats)."""

    factors: tuple[Factor, ...]
    arithmetic: str = "exact-int"

    def __post_init__(self):
        if not self.factors:
            raise UnsupportedGroupError("group needs at least one factor")
        for f in self.factors:
            if f.type != "sl":
                raise UnsupportedGroupError(f"unsupported factor type {f.type!r}")
            if not isinstance(f.n, int) or f.n < 2:
                raise UnsupportedGroupError(f"factor size must be an integer >= 2, got {f.n!r}")
        if self.arithmetic not in ARITHMETIC_MODES:
            raise UnsupportedGroupError(
                f"arithmetic must be one of {ARITHMETIC_MODES}, got {self.arithmetic!r}"
            )

    @classmethod
    def sl(cls, n: int, arithmetic: str = "exact-int") -> "GroupSpec":
        return cls((Factor("sl", n),), arithmetic)

    @classmethod
    def product(cls, ns: tuple[int, ...] | list[int], arithmetic: str = "exact-int") -> "GroupSpec":
        return cls(tuple(Factor("sl", int(n)) for n in ns), arithmetic)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(f.n for f in self.factors)

    @property
    def ambient_dim(self) -> int:
        return sum(self.sizes)

    @property
    def block_slices(self) -> tuple[slice, ...]:
        ends = itertools.accumulate(self.sizes)
        return tuple(slice(end - n, end) for n, end in zip(self.sizes, ends))

    @property
    def entry_slices(self) -> tuple[slice, ...]:
        """Block k of a flat entry row: a run of n_k * n_k entries, row-major."""
        ends = itertools.accumulate(n * n for n in self.sizes)
        return tuple(slice(end - n * n, end) for n, end in zip(self.sizes, ends))

    @property
    def entry_count(self) -> int:
        """Total number of matrix entries across the block-diagonal factors."""
        return sum(n * n for n in self.sizes)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ChamberVector:
    """A vector in the closed positive chamber: per SL(n) block the
    coordinates are non-increasing and sum to zero."""

    spec: GroupSpec
    coords: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=float)
        if v.shape != (self.spec.ambient_dim,):
            raise ValueError(
                f"expected {self.spec.ambient_dim} coordinates, got shape {v.shape}"
            )
        v = v.copy()
        for sl in self.spec.block_slices:
            block = v[sl]
            mean = block.mean()
            if abs(mean) * block.size > FLOAT_ATOL:
                raise ValueError(f"block {sl} is not trace-free: sum {block.sum():g}")
            block -= mean  # exact trace-free after the tolerance check
            if np.any(np.diff(block) > FLOAT_ATOL):
                raise ValueError(f"block {sl} is not non-increasing: {block}")
        object.__setattr__(self, "coords", _readonly(v))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


@dataclass(frozen=True)
class RootSystemData:
    """Restricted-root data of the symmetric space of a GroupSpec.

    positive_roots are bare vectors (SL(n,R) has every multiplicity 1 and a
    reduced system).  chamber_rays are the unit extreme rays of the closed
    chamber (the normalized fundamental weight directions), along which the
    minimum of <rho, .> over the unit sphere of the chamber is attained.
    """

    spec: GroupSpec
    rank: int
    ambient_dim: int
    positive_roots: tuple[np.ndarray, ...]
    fundamental_weights: tuple[np.ndarray, ...]
    chamber_rays: tuple[np.ndarray, ...]
    rho: np.ndarray
    rho_norm: float
    dim_x: int

    @property
    def rho_min(self) -> float:
        """Minimum of <rho, H> over unit vectors H of the closed chamber.

        A linear functional restricted to the unit sphere of a convex cone
        attains its minimum on an extreme ray, so only the chamber rays are
        inspected.  Equals ||rho|| in rank one.
        """
        return min(float(self.rho @ u) for u in self.chamber_rays)

    def polyhedral(self, h: np.ndarray):
        """<rho, H>/||rho|| of one chamber vector H or of each row of a stack,
        summed left to right over rho's coordinates: a row's value in any stack."""
        p = h[..., 0] * self.rho[0]
        for k in range(1, self.ambient_dim):
            p += h[..., k] * self.rho[k]
        p /= self.rho_norm
        return p


def _sl_positive_roots(n: int, dim: int, offset: int) -> list[np.ndarray]:
    roots = []
    for i, j in itertools.combinations(range(n), 2):
        v = np.zeros(dim)
        v[offset + i] = 1.0
        v[offset + j] = -1.0
        roots.append(v)
    return roots


def _sl_fundamental_weights(n: int, dim: int, offset: int) -> list[np.ndarray]:
    weights = []
    for k in range(1, n):
        v = np.zeros(dim)
        v[offset : offset + k] = 1.0
        v[offset : offset + n] -= k / n
        weights.append(v)
    return weights


def build_root_system(spec: GroupSpec) -> RootSystemData:
    """Assemble the block-diagonal A-type root data for a product of SL(n)."""
    dim = spec.ambient_dim
    positive, weights = [], []
    offset = 0
    for f in spec.factors:
        positive.extend(_sl_positive_roots(f.n, dim, offset))
        weights.extend(_sl_fundamental_weights(f.n, dim, offset))
        offset += f.n

    rho = 0.5 * np.sum(positive, axis=0)
    rho_norm = float(np.linalg.norm(rho))
    rays = tuple(_readonly(w / np.linalg.norm(w)) for w in weights)
    rank = len(weights)
    return RootSystemData(
        spec=spec,
        rank=rank,
        ambient_dim=dim,
        positive_roots=tuple(_readonly(a) for a in positive),
        fundamental_weights=tuple(_readonly(w) for w in weights),
        chamber_rays=rays,
        rho=_readonly(rho),
        rho_norm=rho_norm,
        dim_x=rank + len(positive),
    )

