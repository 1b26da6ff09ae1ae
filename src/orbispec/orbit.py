"""Breadth-first enumeration of orbit balls in finitely generated subgroups.

Elements are gathered level by level in word length with exact deduplication,
by one walk whatever the arithmetic.  A generating set is integral when every
entry of every element, inverses included, is an integer: every exact-int
set, and every float set whose entries are integer-valued
(GroupElement.inverse takes those inverses as exact adjugates).  An integral
ball runs one path whatever its arithmetic label, and its rows are their own
keys.  Each level is stored as int32 while n * max|frontier| * max|generator|
stays below 2**31, else as int64, its products formed in int64; from the
level where that bound reaches 2**62 (checked first), levels are object rows
of exact Python ints.  The bound starts from max|generator|, so a set whose
products could pass int64 at once is on object rows from level 1.  Levels
keep the dtype they were made with across that switch, and the last two
levels are hashed again as object rows there.  Exact-rational sets walk on
object rows of fractions from level 0.  With a symmetric generating set and
exact products the word length of a product gamma*g differs from that of
gamma by at most one, so a candidate is new precisely when it avoids the
previous two levels.  Every level is stored in the order in which its
candidates first occur, frontier-major and generator-ascending, so the
exact-int and float balls of one integral set hold the same rows in the
same order; float levels still fail with NumericalError once an entry
passes MAX_FLOAT_ENTRY.

Other float sets are multiplied in float64, and every earlier level is
searched, since rounding noise does not respect word-length metrics.  Their
entries are quantized to a 1e-9 grid (documented risk: distinct elements
closer than the quantum collapse) and each entry is keyed by two int64 words.

Every level finds its keys by 64-bit row hashes: a multiply-xor hash of
integer key rows, and Python's tuple hash of object rows.  The candidates are
grouped by equal hash with one np.sort of their hashes' high bits, the
candidate index filling the low bits, so each group starts at its first
candidate; hashes that share those high bits are then sorted again.  Each
level a candidate may meet is kept as one record, its rows, their sorted
hashes and the level row behind each hash; those hashes, fewer in a growing
ball than the next level's candidates, are searched among the group hashes.
Full key rows are compared within every equal-hash group and on every hash
hit; a level where two different rows share a hash is deduplicated by one
first-occurrence pass over whole rows instead.  The last level keeps no
hashes of its rows and gets no letters, since no later level reads them.

For each frontier row the enumerator keeps the inverse of its last letter,
the generator by which the row was first reached, permuted with the level;
`GeneratorSet.inverse` paired each generator with its inverse when it built
the set.  From level 2 on, a row's product with that inverse is its parent,
always old, and is dropped from its block before it is keyed or hashed, so a
frontier row yields |S| - 1 candidates.  In float mode that product is the
parent up to rounding, which the full-history check would have found old
unless the rounding moved it into another quantum cell.  A level whose rows
yield no candidates (no generators, or one involution from level 2 on) ends
the walk as exhausted.  Candidates are formed, keyed and hashed _BLOCK_ROWS
rows at a time into one compressed candidate array, frontier-major and
generator-ascending; full key rows are formed only for the rows compared.  A
candidate thus costs its m entries (4 or 8 bytes each, plus the Python
objects an object row points to) and its 8-byte hash for the level, plus
about three 8-byte indices while the level is deduplicated; keys and int64
product temporaries live for one block only.  The frontier's letters and
parent generators are freed once the next level no longer needs them.  The
L=10 walk of Gamma(2) peaks near 38 traced bytes per element.  The ball
keeps the level arrays as they are made, with no stacked copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# log_singular_values stays bound here, unused, because perfbench/spans.py
# wraps it by module name to count Cartan projections
from .cartan import log_singular_values  # noqa: F401
from .cartan import GroupElement, MAX_FLOAT_ENTRY, stack_product
from .errors import NumericalError, ResourceLimitError
from .liecore import GroupSpec

DEFAULT_MAX_ELEMENTS = 10_000_000

# store a level as int32 while n * max|frontier| * max|generator| is below
# _INT32_SAFE; keep it clear of int64 overflow, else store object rows
_INT32_SAFE = 2**31
_INT64_SAFE = 2**62

_FLOAT_QUANTUM = 1e-9

# candidate rows formed, keyed and hashed at a time
_BLOCK_ROWS = 1 << 16


def _check_float_entries(top) -> None:
    """Raise once the largest |entry| of a float ball passes MAX_FLOAT_ENTRY."""
    if top > MAX_FLOAT_ENTRY:
        raise NumericalError(
            f"entry-overflow in float mode: entries exceed {MAX_FLOAT_ENTRY:g}"
        )


def _quantized_keys(rows: np.ndarray) -> np.ndarray:
    """Exact int64 pair encoding of round(x / quantum) for |x| <= 1e15."""
    _check_float_entries(max(-rows.min(initial=0.0), rows.max(initial=0.0)))
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
    occurrence, keyed as the enumerator keys rows (quantized in float mode).
    `inverse[i]` is the position of the inverse of `elements[i]`, taken from
    the (generator, inverse) pairs the set is built from.  The
    enumerator's two-level dedup and its parent skip rely on this symmetry.
    Discreteness and torsion-freeness are the caller's responsibility; the
    engine itself tolerates torsion and merely collapses repeated elements.
    """

    spec: GroupSpec
    elements: tuple[GroupElement, ...]
    inverse: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        # stack[k] and stack[(k + n) % 2n] are a generator and its inverse
        n = len(self.elements)
        stack = [*self.elements, *(g.inverse() for g in self.elements)]
        for g in stack:
            if g.spec != self.spec:
                raise ValueError("generators live in different groups")
            if g.is_identity:
                raise ValueError("generator equals the identity")
        keys = [g.flat_entries() for g in stack]
        if self.spec.arithmetic == "float":
            rows = np.array(keys, dtype=float).reshape(len(stack), self.spec.entry_count)
            keys = list(map(tuple, _quantized_keys(rows).tolist()))
        at, firsts = {}, []
        for k, key in enumerate(keys):
            if key not in at:
                at[key] = len(firsts)
                firsts.append(k)
        object.__setattr__(self, "elements", tuple(stack[k] for k in firsts))
        object.__setattr__(self, "inverse", tuple(at[keys[(k + n) % (2 * n)]] for k in firsts))

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

    The entries are the list of (n_w, m) level arrays the enumerator made,
    level w holding the elements of word length w, the identity alone at
    level 0.  The levels of an integral generating set, in float mode too,
    are int32, then int64, then dtype=object rows of Python ints once
    products could pass int64; earlier levels keep their dtype.  Levels of
    any other float set are float64, and those of a rational set object
    rows of fractions.  Each level holds its rows in the order the walk
    first reached them, frontier-major and generator-ascending, in every
    arithmetic.  Element i is row i of the levels taken in order:
    element(i) builds it, and float_row_blocks() gives the float64
    image a block at a time; the levels are never stacked into one array.
    The levels are the one record of word length: the ball keeps no
    per-element word lengths.  The ball holds no Cartan data; the distance
    table of each base-point pair is cached in `tables`.
    """

    def __init__(self, spec: GroupSpec, max_word_length: int, levels, exhausted: bool):
        self.spec = spec
        self.max_word_length = max_word_length
        self._levels = list(levels)
        self.growth_per_level = [len(lvl) for lvl in self._levels]
        self.exhausted = exhausted
        self.tables: dict = {}

    def __len__(self) -> int:
        return sum(self.growth_per_level)

    def element(self, i: int) -> GroupElement:
        i = range(len(self))[i]  # a negative index counts from the end
        for w, lvl in enumerate(self._levels):
            if i < len(lvl):
                return GroupElement.from_flat(self.spec, lvl[i].tolist(), w)
            i -= len(lvl)

    def level_sums(self, terms: np.ndarray) -> np.ndarray:
        """Sum of one term per element over each word-length level,
        overwriting `terms`.  Each level is a contiguous slice added in
        element order from +0.0, ((0.0 + t0) + t1) + ..., bit for bit as
        np.bincount adds it.  One np.subtract.reduceat reads every level
        once the first term of each is negated in place: numpy sums float
        add reductions pairwise, which moves bits, but subtract reduces in
        order, and (-a) - b = -(a + b) exactly in round-to-nearest.  0.0
        minus each result is then the sum from +0.0 (an all-zero level
        gives +0.0).  The walk makes no empty level, which reduceat would
        misread."""
        starts = np.cumsum([0] + self.growth_per_level[:-1])
        terms[starts] = -terms[starts]
        return 0.0 - np.subtract.reduceat(terms, starts)

    def float_row_blocks(self):
        """Float64 images of the entries in element order, at most
        _BLOCK_ROWS rows at a time and never across a level.  Integer and
        object levels, float-mode ones included, convert only the block in
        use rather than keep a second copy."""
        for lvl in self._levels:
            for lo in range(0, len(lvl), _BLOCK_ROWS):
                try:
                    yield lvl[lo:lo + _BLOCK_ROWS].astype(float, copy=False)
                except OverflowError as exc:
                    raise NumericalError("entries too large for a float image") from exc


def enumerate_ball(gens: GeneratorSet, max_word_length: int,
                   max_elements: int = DEFAULT_MAX_ELEMENTS) -> OrbitBall:
    """Enumerate {gamma : word length <= max_word_length} by levelled BFS.

    Deduplication is exact matrix equality for integral generating sets,
    exact-int or float, and in exact-rational mode, and quantized (1e-9) key
    equality for other float sets, found through 64-bit row hashes with
    full-row verification.  One walk serves every set: its levels are
    int32, then int64, then object rows of exact Python ints for integral
    sets, object rows of fractions for rational ones, float64 for the rest
    (see the module docstring).  Raises ResourceLimitError when the ball
    would exceed max_elements, and in float mode NumericalError once an
    entry passes MAX_FLOAT_ENTRY.
    """
    if max_word_length < 0:
        raise ValueError("max_word_length must be >= 0")
    spec, L, cap = gens.spec, max_word_length, max_elements
    entries = [x for g in gens.elements for x in g.flat_entries()]
    quantized = spec.arithmetic == "float" and not all(x.is_integer() for x in entries)
    integral = spec.arithmetic != "exact-rational" and not quantized
    if integral:
        entries = list(map(int, entries))
    gen_rows = np.array(entries, dtype=float if quantized else object)
    gen_rows = gen_rows.reshape(len(gens.elements), spec.entry_count)
    keys_of = _quantized_keys if quantized else (lambda rows: rows)
    n_max = max(spec.sizes)
    inverse = np.array(gens.inverse, dtype=np.intp)

    identity = np.array([GroupElement.identity(spec).flat_entries()],
                        dtype=float if quantized else np.int32 if integral else object)
    levels = [identity]
    # per level a candidate may meet: its rows, their sorted row hashes and
    # the level row behind each
    known = [(identity, *_hash_index(keys_of(identity)))]
    # per frontier row: the generator whose product is the row's parent
    skip = None
    total = 1
    exhausted = False
    level_dtype = identity.dtype
    # bounds the largest |entry| of the frontier; from max|generator| at
    # level 1, so a set whose products could pass int64 at once starts on
    # object rows there
    top = gen_max = max(map(abs, entries), default=0) if integral else 0
    for w in range(1, L + 1):
        frontier = levels[-1]
        per_row = len(gen_rows) - (skip is not None)
        if per_row == 0:
            exhausted = True
            break
        if integral and level_dtype != object:
            bound = n_max * top * gen_max
            if bound >= _INT64_SAFE:
                # products could overflow int64: walk on exact Python ints from
                # here, with the last two levels hashed again as object rows so
                # that candidates can meet them
                level_dtype = np.dtype(object)
                known = [(lvl, *_hash_index(lvl.astype(object))) for lvl, _, _ in known]
            else:
                level_dtype = np.dtype(np.int32 if bound < _INT32_SAFE else np.int64)
        cand, h = _candidates(spec, frontier, gen_rows, skip, keys_of, level_dtype)
        if w == L:
            del skip
        first, hashes = _fresh_rows(h, cand, known, keys_of, w == L)
        del h
        if len(first) == 0:
            exhausted = True
            break
        total += len(first)
        if total > cap:
            raise ResourceLimitError(
                f"orbit ball exceeds {cap} elements at word length {w}"
            )
        # the level's rows in the order their candidates first occur; each
        # hash's level row is the running count of fresh candidates up to it
        fresh = np.zeros(len(cand), dtype=bool)
        fresh[first] = True
        rows = np.flatnonzero(fresh)
        if w < L:
            at = np.cumsum(fresh, dtype=np.intp)[first] - 1
        # drop the step's largest arrays once used: at the last level they
        # would otherwise stay alive beside the finished ball
        del first, fresh
        levels.append(np.take(cand, rows, axis=0))
        del cand
        if integral:
            top = max(-int(levels[-1].min()), int(levels[-1].max()))
            if spec.arithmetic == "float":
                _check_float_entries(top)
        if w < L:
            known.append((levels[-1], hashes, at))
            # exact products make the ball's relations hold exactly and, the
            # set being symmetric, a candidate is new when the last two levels
            # lack it; float rounding noise does not respect word length
            if not quantized:
                del known[:-2]
            # the last letter of each new row; its inverse leads back
            letter = rows % per_row
            if skip is not None:
                letter += letter >= skip[rows // per_row]
            skip = inverse[letter]
            del rows, letter
    return OrbitBall(spec, L, levels, exhausted)


def _block_products(spec: GroupSpec, frontier: np.ndarray, gen_rows: np.ndarray) -> np.ndarray:
    """All frontier x generator products as flat rows, frontier-major."""
    nf, ng = len(frontier), len(gen_rows)
    pieces = []
    for n, sl in zip(spec.sizes, spec.entry_slices):
        fb = frontier[:, sl].reshape(nf, 1, n, n)
        gb = gen_rows[:, sl].reshape(ng, n, n)
        if frontier.dtype == float:
            prod = stack_product(fb, gb)
        else:
            prod = np.matmul(fb, gb)  # exact, and much faster than einsum on ints
        pieces.append(prod.reshape(nf * ng, n * n))
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)


def _row_hashes(keys: np.ndarray) -> np.ndarray:
    """64-bit hash of each row of an (N, m) key array: Python's tuple hash
    of an object row, else a multiply-xor hash of the int64 values of an
    integer row, widened one column at a time."""
    if keys.dtype == object:
        return np.fromiter(map(hash, map(tuple, keys.tolist())), dtype=np.int64,
                           count=len(keys)).view(np.uint64)
    h = np.zeros(len(keys), dtype=np.uint64)
    for col in keys.T:
        h ^= col.astype(np.int64, copy=False).view(np.uint64)
        h *= np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
    return h


def _hash_index(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A level's sorted row hashes and the level row behind each."""
    h = _row_hashes(keys)
    order = np.argsort(h)
    return h[order], order


def _candidates(spec: GroupSpec, frontier: np.ndarray, gen_rows: np.ndarray,
                skip: np.ndarray | None, keys_of, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Products of the frontier with the generators, frontier-major and
    generator-ascending, leaving out generator skip[f] for frontier row f,
    with the hash of each product's key.  Products, keys and hashes are
    formed _BLOCK_ROWS products at a time, in int64 for an integer `dtype`,
    else in `dtype`, and compressed straight into the one candidate array of
    `dtype`."""
    gen_rows = gen_rows.astype(np.int64 if dtype.kind == "i" else dtype, copy=False)
    ng = len(gen_rows)
    per_row = ng - (skip is not None)
    cand = np.empty((len(frontier) * per_row, frontier.shape[1]), dtype=dtype)
    h = np.empty(len(cand), dtype=np.uint64)
    step = max(_BLOCK_ROWS // ng, 1)
    for lo in range(0, len(frontier), step):
        block = frontier[lo:lo + step].astype(gen_rows.dtype, copy=False)
        prod = _block_products(spec, block, gen_rows)
        at = slice(lo * per_row, (lo + step) * per_row)
        if skip is None:
            cand[at] = prod
        else:
            keep = np.arange(ng) != skip[lo:lo + step, None]
            np.compress(keep.ravel(), prod, axis=0, out=cand[at])
        del prod
        h[at] = _row_hashes(keys_of(cand[at]))
    return cand, h


def _hash_groups(h: np.ndarray, cand: np.ndarray, keys_of) -> tuple[np.ndarray, np.ndarray, bool]:
    """Sort `h` in place and keep its first entry of each equal-hash group
    at its front; return the first candidate of each group, the group
    hashes (a view of `h`), and whether a group holds different key rows.

    One np.sort of the keys (h & ~low) | i, i the candidate index in the low
    b bits, gives the order: equal hashes keep ascending index, so each
    group starts at its first candidate.  Two different hashes may share the
    64 - b bit prefix; a stable argsort of the gathered hashes then puts
    them back in order, which costs little on nearly sorted values.  The
    index bits are set one _BLOCK_ROWS slice at a time, with no
    candidate-length index array, and its candidate-length temporaries are
    freed on return."""
    low = np.uint64((1 << (len(h) - 1).bit_length()) - 1)
    keys = h & ~low
    for lo in range(0, len(h), _BLOCK_ROWS):
        keys[lo:lo + _BLOCK_ROWS] |= np.arange(lo, min(lo + _BLOCK_ROWS, len(h)),
                                               dtype=np.uint64)
    keys.sort()
    keys &= low
    order = keys.view(np.intp)
    h[...] = h[order]
    if np.any(h[1:] < h[:-1]):
        fix = np.argsort(h, kind="stable")
        order = order[fix]
        h[...] = h[fix]
    head = np.r_[True, h[1:] != h[:-1]]
    repeat = np.flatnonzero(~head)
    clash = not np.array_equal(keys_of(np.take(cand, order[repeat], axis=0)),
                               keys_of(np.take(cand, order[repeat - 1], axis=0)))
    k = np.count_nonzero(head)
    order[:k] = order[head]
    h[:k] = h[head]
    return order[:k], h[:k], clash


def _fresh_rows(h: np.ndarray, cand: np.ndarray, known, keys_of,
                last: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """First occurrences of the distinct candidates that no known level
    holds: candidate indices and row hashes in ascending hash order, or at
    the `last` level the indices alone, in any order.  `h` holds the hashes
    of the key rows of `cand` and is sorted and compacted in place.  `known`
    lists one (rows, sorted hashes, level row behind each hash) record per
    level a candidate may meet, and keys_of turns rows of either into key
    rows.  Each known level's hashes are searched among the candidates'
    group hashes: a growing ball's known levels hold fewer rows than its
    candidates.  Key rows are compared in full within equal-hash groups and
    on hash hits; if two different key rows share a hash, the level is
    deduplicated instead by one pass that keeps each candidate whose key row
    neither a known level nor an earlier candidate holds."""
    first, h, clash = _hash_groups(h, cand, keys_of)
    fresh = np.ones(len(first), dtype=bool)
    for rows, sorted_h, level_row in known:
        at = np.searchsorted(h, sorted_h)
        np.minimum(at, len(h) - 1, out=at)
        hit = h[at] == sorted_h
        at = at[hit]
        clash |= not np.array_equal(keys_of(np.take(cand, first[at], axis=0)),
                                    keys_of(np.take(rows, level_row[hit], axis=0)))
        fresh[at] = False
    if not clash:
        return first[fresh], None if last else h[fresh]
    keys = keys_of(cand)
    known_keys = keys_of(np.vstack([rows for rows, _, _ in known]))
    seen, first = set(map(tuple, known_keys.tolist())), []
    for i, row in enumerate(map(tuple, keys.tolist())):
        if row not in seen:
            seen.add(row)
            first.append(i)
    first = np.array(first, dtype=np.intp)
    if last:
        return first, None
    h = _row_hashes(np.take(keys, first, axis=0))
    order = np.argsort(h)
    return first[order], h[order]

