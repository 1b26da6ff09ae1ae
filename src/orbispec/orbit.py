"""Breadth-first enumeration of orbit balls in finitely generated subgroups.

Elements are gathered level by level in word length with exact deduplication.
With a symmetric generating set the word length of a product gamma*g differs
from that of gamma by at most one, so a candidate produced from the frontier
is new precisely when it avoids the previous two levels; the exact-integer
path exploits this to run fully vectorized on int64 rows, storing each level
in lexicographic row order.  Float mode quantizes entries to a 1e-9 grid
(documented risk: distinct elements closer than the quantum collapse) and
checks the full history, since rounding noise does not respect word-length
metrics; its levels keep the order in which candidates first occur.  Both
paths find keys by 64-bit row hashes, sorted per level, and compare full key
rows within every equal-hash group and on every hash hit; a level where two
different rows share a hash is deduplicated by sorting whole rows.  Rational
and oversized-integer inputs fall back to a dictionary-based walk on exact
flat tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# log_singular_values stays bound here, unused, because perfbench/spans.py
# wraps it by module name to count Cartan projections
from .cartan import GroupElement, log_singular_values, MAX_FLOAT_ENTRY  # noqa: F401
from .errors import NumericalError, ResourceLimitError
from .liecore import GroupSpec

DEFAULT_MAX_ELEMENTS = 10_000_000

# keep n * max|frontier| * max|generator| clear of int64 overflow
_INT64_SAFE = 2**62

_FLOAT_QUANTUM = 1e-9


def _flat_mul_factory(spec: GroupSpec):
    """Multiplier for block-diagonal matrices stored as flat entry tuples."""
    index_pairs = []
    off = 0
    for n in spec.sizes:
        for i in range(n):
            for j in range(n):
                index_pairs.append(tuple((off + i * n + k, off + k * n + j)
                                         for k in range(n)))
        off += n * n
    def mul(a, b):
        return tuple(sum(a[p] * b[q] for p, q in pairs) for pairs in index_pairs)
    return mul


def _element_from_flat(spec: GroupSpec, flat, word_length=None) -> GroupElement:
    blocks = []
    off = 0
    for n in spec.sizes:
        rows = tuple(tuple(flat[off + i * n + j] for j in range(n)) for i in range(n))
        blocks.append(rows)
        off += n * n
    return GroupElement(spec, tuple(blocks), word_length)


def _quantized_keys(rows: np.ndarray) -> np.ndarray:
    """Exact int64 pair encoding of round(x / quantum) for |x| <= 1e15."""
    if rows.size and np.abs(rows).max() > MAX_FLOAT_ENTRY:
        raise NumericalError(
            f"entry-overflow in float mode: entries exceed {MAX_FLOAT_ENTRY:g}"
        )
    whole = np.floor(rows)
    frac_key = np.rint((rows - whole) / _FLOAT_QUANTUM)
    carry = frac_key >= round(1.0 / _FLOAT_QUANTUM)
    whole = whole + carry
    frac_key = np.where(carry, 0.0, frac_key)
    keys = np.empty(rows.shape[:-1] + (2 * rows.shape[-1],), dtype=np.int64)
    keys[..., 0::2] = whole.astype(np.int64)
    keys[..., 1::2] = frac_key.astype(np.int64)
    return keys


@dataclass(frozen=True)
class GeneratorSet:
    """Symmetric, deduplicated generating set of a discrete subgroup.

    Building one closes the given elements under inverses and drops repeats:
    `elements` holds the generators, then their inverses, each at its first
    occurrence.  The enumerator's two-level dedup relies on this symmetry.
    Discreteness and torsion-freeness are the caller's responsibility; the
    engine itself tolerates torsion and merely collapses repeated elements.
    """

    spec: GroupSpec
    elements: tuple[GroupElement, ...]

    def __post_init__(self):
        seen, unique = set(), []
        for g in [*self.elements, *(g.inverse() for g in self.elements)]:
            if g.spec != self.spec:
                raise ValueError("generators live in different groups")
            if g.is_identity:
                raise ValueError("generator equals the identity")
            if self.spec.arithmetic == "float":
                key = tuple(_quantized_keys(np.asarray(g.flat_entries(), dtype=float)[None])[0])
            else:
                key = g.flat_entries()
            if key not in seen:
                seen.add(key)
                unique.append(g)
        object.__setattr__(self, "elements", tuple(unique))

    @classmethod
    def from_elements(cls, gens) -> "GeneratorSet":
        gens = tuple(gens)
        if not gens:
            raise ValueError("use GeneratorSet.trivial(spec) for an empty generating set")
        return cls(gens[0].spec, gens)

    @classmethod
    def trivial(cls, spec: GroupSpec) -> "GeneratorSet":
        return cls(spec, ())


class OrbitBall:
    """Deduplicated orbit ball up to a word length, with per-level counts.

    The entries are one (N, m) array: int64, float64, or dtype=object for
    rationals and oversized integers.  The ball holds no Cartan data; the
    distance table of each base-point pair is cached in `tables`.
    """

    def __init__(self, spec: GroupSpec, max_word_length: int, levels, exhausted: bool):
        self.spec = spec
        self.max_word_length = max_word_length
        self.growth_per_level = [len(lvl) for lvl in levels]
        self.exhausted = exhausted
        self._entries = np.vstack(levels)
        self.word_lengths = np.repeat(
            np.arange(len(levels), dtype=np.int32), self.growth_per_level
        )
        self.tables: dict = {}

    def __len__(self) -> int:
        return int(self.word_lengths.size)

    def element(self, i: int) -> GroupElement:
        flat = tuple(self._entries[i].tolist())
        return _element_from_flat(self.spec, flat, int(self.word_lengths[i]))

    def iter_elements(self):
        for i in range(len(self)):
            yield self.element(i)

    def float_entry_matrix(self) -> np.ndarray:
        """Float64 image of the entries.  Exact balls convert on every call
        rather than keep a second (N, m) copy for the ball's lifetime."""
        try:
            return self._entries.astype(float, copy=False)
        except OverflowError as exc:
            raise NumericalError("entries too large for a float image") from exc

    def block_stacks(self) -> list[np.ndarray]:
        mat = self.float_entry_matrix()
        out, off = [], 0
        for n in self.spec.sizes:
            out.append(mat[:, off:off + n * n].reshape(-1, n, n))
            off += n * n
        return out


def enumerate_ball(gens: GeneratorSet, max_word_length: int,
                   max_elements: int = DEFAULT_MAX_ELEMENTS) -> OrbitBall:
    """Enumerate {gamma : word length <= max_word_length} by levelled BFS.

    Deduplication is exact matrix equality in the exact modes and quantized
    (1e-9) key equality in float mode, found through 64-bit row hashes with
    full-row verification (see the module docstring).  Every element records
    the minimal word length at which it was reached.  Raises
    ResourceLimitError when the ball would exceed max_elements.
    """
    if max_word_length < 0:
        raise ValueError("max_word_length must be >= 0")
    spec = gens.spec
    if spec.arithmetic == "float":
        return _enumerate_rows(gens, max_word_length, max_elements, exact=False)
    if spec.arithmetic == "exact-int":
        gen_max = max((max(abs(x) for x in g.flat_entries()) for g in gens.elements),
                      default=0)
        if max(spec.sizes) * max(gen_max, 1) * gen_max < _INT64_SAFE:
            return _enumerate_rows(gens, max_word_length, max_elements, exact=True)
    return _enumerate_generic(gens, max_word_length, max_elements)


def _block_products(spec: GroupSpec, frontier: np.ndarray, gen_rows: np.ndarray) -> np.ndarray:
    """All frontier x generator products as flat rows, frontier-major."""
    nf, ng = len(frontier), len(gen_rows)
    pieces, off = [], 0
    for n in spec.sizes:
        fb = frontier[:, off:off + n * n].reshape(nf, n, n)
        gb = gen_rows[:, off:off + n * n].reshape(ng, n, n)
        if frontier.dtype == np.int64:
            prod = np.matmul(fb[:, None], gb)  # exact, and much faster than einsum on ints
        else:
            prod = np.einsum("fij,gjk->fgik", fb, gb)  # float bits depend on this order
        pieces.append(prod.reshape(nf * ng, n * n))
        off += n * n
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)


def _row_hashes(keys: np.ndarray) -> np.ndarray:
    """64-bit multiply-xor hash of each row of an (N, m) int64 key array."""
    words = keys.view(np.uint64)
    h = np.zeros(len(keys), dtype=np.uint64)
    for j in range(words.shape[1]):
        h ^= words[:, j]
        h *= np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
    return h


def _fresh_rows(keys: np.ndarray, known, known_keys) -> tuple[np.ndarray, np.ndarray]:
    """First occurrences of the distinct rows of `keys` that no known set
    holds: candidate indices and row hashes, in ascending hash order.  `known`
    lists (sorted hashes, fetch) pairs, fetch(i) giving the key rows behind
    sorted positions i.  Rows are compared in full within equal-hash groups and
    on hash hits; if two different rows share a hash, the level is deduplicated
    by a row sort against known_keys() instead."""
    h = _row_hashes(keys)
    order = np.argsort(h)
    h = h[order]
    head = np.r_[True, h[1:] != h[:-1]]
    repeat = np.flatnonzero(~head)
    clash = not np.array_equal(np.take(keys, order[repeat], axis=0),
                               np.take(keys, order[repeat - 1], axis=0))
    groups = np.flatnonzero(head)
    first, h = np.minimum.reduceat(order, groups), h[groups]
    fresh = np.ones(len(first), dtype=bool)
    for sorted_h, fetch in known:
        at = np.minimum(np.searchsorted(sorted_h, h), len(sorted_h) - 1)
        hit = sorted_h[at] == h
        clash |= not np.array_equal(np.take(keys, first[hit], axis=0), fetch(at[hit]))
        fresh &= ~hit
    if not clash:
        return first[fresh], h[fresh]
    ref = known_keys()
    _, first = np.unique(np.vstack([ref, keys]), axis=0, return_index=True)
    first = first[first >= len(ref)] - len(ref)
    h = _row_hashes(np.take(keys, first, axis=0))
    order = np.argsort(h)
    return first[order], h[order]


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Permutation putting distinct int64 rows in lexicographic order.

    Runs of columns are packed into uint64 mixed-radix keys.  One argsort of
    the leading key orders the rows; only the positions that tie on it are
    then reordered by the remaining keys, with the leading key (constant on a
    tie run, rising from run to run) as np.lexsort's last, primary key.  The
    rows are distinct, so the order is unique."""
    lo, m = int(rows.min()), rows.shape[1]
    span = int(rows.max()) - lo + 1
    width = max([w for w in range(1, m + 1) if span ** w <= 2 ** 64], default=1)

    def packed(cols):
        key = np.zeros(len(cols), dtype=np.uint64)
        for col in cols.T:
            key = key * np.uint64(span) + (col - lo).astype(np.uint64)
        return key

    lead = packed(rows[:, :width])
    order = np.argsort(lead)
    if width >= m:
        return order
    lead = lead[order]
    tie = lead[1:] == lead[:-1]
    at = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
    sub = order[at]
    tail = np.take(rows, sub, axis=0)
    keys = [packed(tail[:, j:j + width]) for j in range(width, m, width)]
    order[at] = sub[np.lexsort(keys[::-1] + [lead[at]])]
    return order


def _enumerate_rows(gens: GeneratorSet, L: int, cap: int, exact: bool) -> OrbitBall:
    """Vectorized BFS on int64 rows (exact) or float64 rows with quantized keys."""
    spec = gens.spec
    dtype = np.int64 if exact else float
    keys_of = (lambda rows: rows) if exact else _quantized_keys
    gen_rows = np.array([g.flat_entries() for g in gens.elements], dtype=dtype)
    gen_rows = gen_rows.reshape(len(gens.elements), spec.entry_count)
    gen_max = int(np.abs(gen_rows).max()) if gen_rows.size else 0
    n_max = max(spec.sizes)

    identity = np.array([GroupElement.identity(spec).flat_entries()], dtype=dtype)
    levels = [identity]
    # per level: its sorted row hashes and the level row behind each
    index = [(_row_hashes(keys_of(identity)), np.zeros(1, dtype=np.intp))]
    total = 1
    exhausted = False
    for w in range(1, L + 1):
        frontier = levels[-1]
        if gen_rows.size == 0:
            exhausted = True
            break
        if exact and n_max * max(int(np.abs(frontier).max()), 1) * max(gen_max, 1) >= _INT64_SAFE:
            # entries outgrow the int64 fast path; continue on exact big ints
            return _enumerate_generic(gens, L, cap,
                                      seed_levels=[lvl.tolist() for lvl in levels])
        cand = _block_products(spec, frontier, gen_rows)
        # float rounding noise does not respect word length: check every level
        known = range(max(len(levels) - 2, 0) if exact else 0, len(levels))
        fetch = [(index[k][0], lambda i, k=k: keys_of(np.take(levels[k], index[k][1][i], axis=0)))
                 for k in known]
        first, hashes = _fresh_rows(keys_of(cand), fetch,
                                    lambda: keys_of(np.vstack([levels[k] for k in known])))
        if len(first) == 0:
            exhausted = True
            break
        total += len(first)
        if total > cap:
            raise ResourceLimitError(
                f"orbit ball exceeds {cap} elements at word length {w}"
            )
        # drop the step's largest arrays once used: at the last level they
        # would otherwise stay alive while OrbitBall stacks the levels
        rows = np.take(cand, first, axis=0)
        del cand
        order = _lex_order(rows) if exact else np.argsort(first)
        levels.append(np.take(rows, order, axis=0))
        del rows
        at = np.empty_like(order)
        at[order] = np.arange(len(order))
        index.append((hashes, at))
        if exact and len(index) > 2:
            index[-3] = None
    return OrbitBall(spec, L, levels, exhausted)


def _enumerate_generic(gens: GeneratorSet, L: int, cap: int,
                       seed_levels: list | None = None) -> OrbitBall:
    spec = gens.spec
    mul = _flat_mul_factory(spec)
    gen_tuples = [g.flat_entries() for g in gens.elements]

    if seed_levels is None:
        levels = [[GroupElement.identity(spec).flat_entries()]]
    else:
        levels = [[tuple(row) for row in lvl] for lvl in seed_levels]
    seen = {t for lvl in levels for t in lvl}
    total = len(seen)
    exhausted = False
    for w in range(len(levels), L + 1):
        new = []
        for a in levels[-1]:
            for g in gen_tuples:
                prod = mul(a, g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    total += 1
                    if total > cap:
                        raise ResourceLimitError(
                            f"orbit ball exceeds {cap} elements at word length {w}"
                        )
        if not new:
            exhausted = True
            break
        levels.append(new)
    return OrbitBall(spec, L, [np.array(lvl, dtype=object) for lvl in levels], exhausted)
