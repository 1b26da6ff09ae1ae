"""Orbit-ball enumeration: dedup exactness, closure, and trust radius."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orbispec import (GeneratorSet, GroupElement, GroupSpec, NumericalError,
                      ResourceLimitError, build_root_system, enumerate_ball, orbit,
                      trust_radius)
from orbispec.exponents import distance_table, relative_chamber_matrix

from conftest import (ball_elements, chamber_matrix, cyclic_hyperbolic_generator, dict_walk,
                      float_image, orthonormal_sym2_generators, sanov_generators, word_lengths)

SQRT2 = np.sqrt(2.0)


def ball_key_set(ball):
    if ball.spec.arithmetic == "float":
        return {tuple(np.round(row / 1e-9).astype(np.int64)) for row in float_image(ball)}
    return {g.flat_entries() for g in ball_elements(ball)}


def test_cyclic_ball_counts_and_trust():
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 3)
    assert len(ball) == 7
    assert ball.growth_per_level == [1, 2, 2, 2]
    rs = build_root_system(ball.spec)
    assert trust_radius(ball, rs) == pytest.approx(3 * SQRT2, abs=1e-9)
    assert ball.element(0).is_identity


def test_free_group_counts_sanov():
    ball = enumerate_ball(sanov_generators(), 6)
    # free of rank 2: level w holds 4 * 3^(w-1) reduced words
    assert ball.growth_per_level == [1] + [4 * 3 ** (w - 1) for w in range(1, 7)]
    assert len(ball) == 1 + sum(4 * 3 ** (w - 1) for w in range(1, 7))


def test_sanov_level_two_example():
    ball = enumerate_ball(sanov_generators(), 2)
    assert len(ball) == 17  # 1 + 4 + 12


def test_torsion_collapses_by_direct_multiplication_oracle():
    """Generator of order four: direct multiplication closes on
    {I, a, a^2, a^3} = {+-I, +-a}, and enumeration agrees."""
    spec = GroupSpec.sl(2)
    a = GroupElement(spec, (((0, 1), (-1, 0)),))
    closure = {GroupElement.identity(spec).flat_entries()}
    cur = GroupElement.identity(spec)
    for _ in range(8):
        cur = cur @ a
        closure.add(cur.flat_entries())
    ball = enumerate_ball(GeneratorSet.from_elements([a]), 4)
    assert ball_key_set(ball) == closure
    assert len(ball) == 4
    assert ball.exhausted
    # per-level counts never exceed the free-group bound 2k (2k-1)^(w-1)
    free_bound = [1] + [2 * (2 - 1) ** (w - 1) for w in range(1, 5)]
    assert all(c <= b for c, b in zip(ball.growth_per_level, free_bound))


def test_non_symmetric_set_is_closed_under_inverses():
    """An order-three generator passed without its inverse: the ball is the
    group {I, g, g^2}, fully enumerated, with no element repeated."""
    spec = GroupSpec.sl(2)
    g = GroupElement(spec, (((0, -1), (1, -1)),))
    gens = GeneratorSet(spec, (g,))
    assert len(gens.elements) == 2
    ball = enumerate_ball(gens, 4)
    assert len(ball) == 3
    assert len(ball_key_set(ball)) == 3
    assert ball.growth_per_level == [1, 2]
    assert ball.exhausted


def test_dedup_idempotence():
    deep = enumerate_ball(sanov_generators(), 5)
    shallow = enumerate_ball(sanov_generators(), 4)
    deep_keys = {g.flat_entries() for g, w in zip(ball_elements(deep), word_lengths(deep))
                 if w <= 4}
    assert deep_keys == ball_key_set(shallow)


def test_inverse_closure_preserves_word_length():
    ball = enumerate_ball(sanov_generators(), 4)
    lengths = {g.flat_entries(): w for g, w in zip(ball_elements(ball), word_lengths(ball))}
    for g in ball_elements(ball):
        assert lengths[g.inverse().flat_entries()] == lengths[g.flat_entries()]


def test_ball_closed_under_stored_word_length():
    ball = enumerate_ball(sanov_generators(), 3)
    keys = {g.flat_entries(): w for g, w in zip(ball_elements(ball), word_lengths(ball))}
    gens = sanov_generators()
    for g, w in zip(ball_elements(ball), word_lengths(ball)):
        if w >= 3:
            continue
        for h in gens.elements:
            prod = (g @ h).flat_entries()
            assert prod in keys and keys[prod] <= w + 1


def test_cyclic_counting_matches_closed_form():
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 12)
    rs = build_root_system(ball.spec)
    t = trust_radius(ball, rs)
    d = np.sort(distance_table(ball, rs).d)
    for r in np.arange(0.25, t, 0.25):
        n_r = int(np.searchsorted(d, r, side="right"))
        assert n_r == 2 * math.floor(r / SQRT2) + 1


def test_trust_radius_monotone_in_depth():
    rs = build_root_system(GroupSpec.sl(2))
    t6 = trust_radius(enumerate_ball(sanov_generators(), 6), rs)
    t7 = trust_radius(enumerate_ball(sanov_generators(), 7), rs)
    assert t7 >= t6
    assert t6 > 0


def test_trust_radius_rejects_depth_zero():
    ball = enumerate_ball(sanov_generators(), 0)
    assert len(ball) == 1
    with pytest.raises(ValueError, match="frontier"):
        trust_radius(ball, build_root_system(ball.spec))


def test_trust_radius_infinite_when_exhausted():
    spec = GroupSpec.sl(2)
    a = GroupElement(spec, (((0, 1), (-1, 0)),))
    ball = enumerate_ball(GeneratorSet.from_elements([a]), 10)
    assert math.isinf(trust_radius(ball, build_root_system(spec)))


def test_memory_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_ball(sanov_generators(), 8, max_elements=100)


def test_generator_set_validation():
    spec = GroupSpec.sl(2)
    with pytest.raises(ValueError, match="identity"):
        GeneratorSet.from_elements([GroupElement.identity(spec)])
    gens = sanov_generators()
    assert len(gens.elements) == 4  # two generators plus their inverses
    # symmetric closure deduplicates an involution to a single element
    assert gens.inverse == (2, 3, 0, 1)
    j = GroupElement(spec, (((0, 1), (-1, 0)),))
    alone = GeneratorSet.from_elements([j])
    assert len(alone.elements) == 2  # j and j^-1 = -j are distinct matrices
    assert alone.inverse == (1, 0)
    # -I is its own inverse: one element, paired with itself, and from level
    # 2 on its one row yields no candidates
    for arithmetic in ("exact-int", "float"):
        spec = GroupSpec.sl(2, arithmetic)
        minus = GeneratorSet.from_elements([GroupElement(spec, (((-1, 0), (0, -1)),))])
        assert len(minus.elements) == 1 and minus.inverse == (0,)
        ball = enumerate_ball(minus, 4)
        assert ball.growth_per_level == [1, 1]
        assert ball.exhausted


@pytest.mark.parametrize("call, match", [
    (lambda: GeneratorSet.from_elements([]), r"use GeneratorSet\(spec, \(\)\)"),
    (lambda: GeneratorSet.from_elements([GroupElement(GroupSpec.sl(2), (((1, 2), (0, 1)),)),
                                         GroupElement(GroupSpec.sl(3), (((1, 2, 0), (0, 1, 0),
                                                                         (0, 0, 1)),))]),
     "generators live in different groups"),
    (lambda: enumerate_ball(sanov_generators(), -1), "max_word_length must be >= 0"),
], ids=["no-elements", "two-specs", "negative-depth"])
def test_generating_set_and_walk_refusals(call, match):
    """from_elements reads the spec from its first element, so an empty
    list is refused with the constructor that takes one."""
    with pytest.raises(ValueError, match=match):
        call()


def test_bigint_fallback_matches_direct_multiplication():
    """Entries beyond the int64 fast path continue on exact big integers."""
    spec = GroupSpec.sl(2)
    n = 10**10
    g = GroupElement(spec, (((n, 1), (n - 1, 1)),))
    ball = enumerate_ball(GeneratorSet.from_elements([g]), 3)
    keys = ball_key_set(ball)
    expect = {GroupElement.identity(spec).flat_entries()}
    cur, inv = GroupElement.identity(spec), GroupElement.identity(spec)
    for _ in range(3):
        cur, inv = cur @ g, inv @ g.inverse()
        expect |= {cur.flat_entries(), inv.flat_entries()}
    assert keys == expect
    assert max(abs(x) for x in cur.flat_entries()) > 2**63
    # distances on such entries are rejected by the SVD conditioning guard
    with pytest.raises(NumericalError):
        distance_table(ball, build_root_system(spec))


def test_float_quantized_dedup_collapses_close_generators():
    spec = GroupSpec.sl(2, "float")
    a = GroupElement(spec, (((2.0, 1.0), (1.0, 1.0)),))
    eps = 1e-13
    b = GroupElement(spec, (((2.0 + eps, 1.0), (1.0, 2.0 / (2.0 + eps) + eps / 2.0)),))
    ball = enumerate_ball(GeneratorSet.from_elements([a, b]), 1)
    # a and b quantize to the same key, so level one holds a-like and inverse only
    assert ball.growth_per_level == [1, 2]


def test_product_spec_ball():
    spec = GroupSpec.product((2, 2))
    a = GroupElement(spec, (((1, 2), (0, 1)), ((1, 0), (0, 1))))
    ball = enumerate_ball(GeneratorSet.from_elements([a]), 3)
    assert ball.growth_per_level == [1, 2, 2, 2]
    chamber = chamber_matrix(ball)
    assert chamber.shape == (7, 4)
    # second factor stays at the identity: zero chamber block
    np.testing.assert_allclose(chamber[:, 2:], 0.0, atol=1e-12)


def test_empty_generating_set_gives_trivial_ball():
    ball = enumerate_ball(GeneratorSet(GroupSpec.sl(2), ()), 5)
    assert len(ball) == 1
    assert ball.exhausted


def _elementary_sl3(arithmetic="exact-int"):
    spec = GroupSpec.sl(3, arithmetic)
    mats = []
    for i, j in ((0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0)):
        m = [[int(r == c) for c in range(3)] for r in range(3)]
        m[i][j] = 1
        mats.append(GroupElement(spec, (tuple(map(tuple, m)),)))
    return GeneratorSet.from_elements(mats)


def _product_generators():
    spec = GroupSpec.product((2, 2))
    a = GroupElement(spec, (((1, 2), (0, 1)), ((1, 1), (0, 1))))
    b = GroupElement(spec, (((1, 0), (2, 1)), ((1, 0), (1, 1))))
    return GeneratorSet.from_elements([a, b])


def _cube_rotations():
    """Rotations by a quarter turn about two axes: they generate the
    24-element rotation group of the cube inside SL(3,Z)."""
    spec = GroupSpec.sl(3)
    rx = GroupElement(spec, (((1, 0, 0), (0, 0, -1), (0, 1, 0)),))
    rz = GroupElement(spec, (((0, -1, 0), (1, 0, 0), (0, 0, 1)),))
    return GeneratorSet.from_elements([rx, rz])


def _sym2_float_generators():
    """Gamma(2) in SL(3,R) through the symmetric square, in float mode."""
    spec = GroupSpec.sl(3, "float")
    out = []
    for (a, b), (c, d) in (((1, 2), (0, 1)), ((1, 0), (2, 1))):
        m = ((a * a, 2 * a * b, b * b), (a * c, a * d + b * c, b * d),
             (c * c, 2 * c * d, d * d))
        out.append(GroupElement(spec, (m,)))
    return GeneratorSet.from_elements(out)


def _levels(ball):
    bounds = np.cumsum([0] + ball.growth_per_level)
    rows = float_image(ball)
    return [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _conjugated_sanov():
    """The Sanov pair conjugated by [[13,5],[5,2]]: from word length 7 on, a
    level's entries span more than 2**16 values."""
    spec = GroupSpec.sl(2)
    c = np.array([[13, 5], [5, 2]])
    c_inv = np.array([[2, -5], [-5, 13]])
    return GeneratorSet.from_elements(
        [GroupElement(spec, (tuple(map(tuple, (c @ np.array(m) @ c_inv).tolist())),))
         for m in ([[1, 2], [0, 1]], [[1, 0], [2, 1]])])


def _modular_group(arithmetic="exact-int"):
    spec = GroupSpec.sl(2, arithmetic)
    return GeneratorSet.from_elements([GroupElement(spec, (((0, -1), (1, 0)),)),
                                       GroupElement(spec, (((1, 1), (0, 1)),))])


INT_CASES = [(sanov_generators, 8), (_elementary_sl3, 4), (_product_generators, 7),
             (_cube_rotations, 10), (_conjugated_sanov, 8)]


@pytest.mark.parametrize("make_gens, L", INT_CASES)
def test_int_levels_match_exact_dict_walk(make_gens, L):
    """The hashed int64 dedup finds, level by level, the rows of the
    dictionary walk on exact tuples, in the order that walk first meets
    them."""
    gens = make_gens()
    ball = enumerate_ball(gens, L)
    oracle = dict_walk(gens, L)
    assert ball.growth_per_level == oracle.growth_per_level
    assert ball.exhausted == oracle.exhausted
    for got, want in zip(ball._levels, oracle._levels):
        assert np.array_equal(got, want)
    if make_gens is _cube_rotations:
        assert ball.exhausted and len(ball) == 24
    if make_gens is _conjugated_sanov:
        assert np.ptp(got) >= 2**16


@pytest.mark.parametrize("make_gens, L", [
    (lambda arithmetic: sanov_generators(GroupSpec.sl(2, arithmetic)), 8),
    (_elementary_sl3, 4), (_modular_group, 12)], ids=["sanov", "elementary-sl3", "modular"])
def test_exact_int_and_float_balls_of_an_integral_set_are_equal(make_gens, L):
    """One integral generating set gives the same int levels, row for row,
    whether it is labelled exact-int or float; <S, T> = SL(2,Z) adds torsion,
    whose relations lead candidates back to the previous two levels."""
    exact = enumerate_ball(make_gens("exact-int"), L)
    flt = enumerate_ball(make_gens("float"), L)
    assert exact.growth_per_level == flt.growth_per_level
    for a, b in zip(exact._levels, flt._levels):
        assert a.dtype.kind == b.dtype.kind == "i"
        assert np.array_equal(a, b)


def _float_rotation():
    """Rotation by 1 radian in float SL(2), of infinite order in a compact
    group: on a coarse quantum the keys of its powers recur across levels."""
    spec = GroupSpec.sl(2, "float")
    c, s = math.cos(1.0), math.sin(1.0)
    return GeneratorSet.from_elements([GroupElement(spec, (((c, -s), (s, c)),))])


def _first_occurrence_levels(gens, L):
    """Float levels by a plain walk on one-block generators: every frontier x
    generator product, by np.einsum, kept in candidate order where its
    quantized key is new."""
    n = gens.spec.sizes[0]
    gen_blocks = np.array([g.flat_entries() for g in gens.elements]).reshape(-1, n, n)
    levels = [np.eye(n).reshape(1, n * n)]
    seen = {tuple(orbit._quantized_keys(levels[0])[0].tolist())}
    for _ in range(L):
        cand = np.einsum("fij,gjk->fgik", levels[-1].reshape(-1, n, n), gen_blocks)
        cand = cand.reshape(-1, n * n)
        keep = []
        for i, key in enumerate(map(tuple, orbit._quantized_keys(cand).tolist())):
            if key not in seen:
                seen.add(key)
                keep.append(i)
        if not keep:
            break
        levels.append(cand[keep])
    return levels


def _record_searched_levels(monkeypatch) -> list[int]:
    """Make orbit._fresh_rows record, for each level it deduplicates, how
    many earlier levels it checks the candidates against."""
    searched = []
    fresh_rows = orbit._fresh_rows

    def recording(h, cand, known, keys_of, last):
        searched.append(len(known))
        return fresh_rows(h, cand, known, keys_of, last)

    monkeypatch.setattr(orbit, "_fresh_rows", recording)
    return searched


def test_float_levels_keep_first_occurrence_order(monkeypatch):
    """Each float level holds the candidates whose key no earlier level
    holds, in the order the candidates first occur, gathered at once from
    candidates formed in one block or in many 64-row ones.  On a 0.4 quantum
    the rotation meets keys more than two levels old, which only the float
    path's full-history check catches: its entries are not integers, so
    each of its levels is checked against every earlier one."""
    searched = _record_searched_levels(monkeypatch)
    for make_gens, L, quantum, block_rows in (
            (_sym2_float_generators, 5, orbit._FLOAT_QUANTUM, orbit._BLOCK_ROWS),
            (_sym2_float_generators, 5, orbit._FLOAT_QUANTUM, 64),
            (_float_rotation, 12, 0.4, orbit._BLOCK_ROWS)):
        monkeypatch.setattr(orbit, "_FLOAT_QUANTUM", quantum)
        monkeypatch.setattr(orbit, "_BLOCK_ROWS", block_rows)
        gens = make_gens()
        searched.clear()
        ball = enumerate_ball(gens, L)
        want = _first_occurrence_levels(gens, L)
        assert [lvl.tobytes() for lvl in _levels(ball)] == [lvl.tobytes() for lvl in want]
    assert ball.growth_per_level == [1, 2, 2, 1, 1]
    assert ball.exhausted
    assert searched == [1, 2, 3, 4, 5]


def _float_modular_group():
    """<S, T> = SL(2,Z) in float mode: integer entries, and relations such
    as S^4 = (ST)^6 = 1."""
    spec = GroupSpec.sl(2, "float")
    return GeneratorSet.from_elements([GroupElement(spec, (((0, -1), (1, 0)),)),
                                       GroupElement(spec, (((1, 1), (0, 1)),))])


@pytest.mark.parametrize("make_gens, L", [(_sym2_float_generators, 7),
                                          (_float_modular_group, 12)])
def test_integral_float_ball_is_keyed_exactly_on_two_levels(make_gens, L, monkeypatch):
    """Every entry of these float sets, inverses included, is an integer.
    Their balls run the exact path: int32 or int64 levels that are their
    own keys, never quantized keys, each checked against the previous two
    levels only; their float images are still the first-occurrence walk's,
    byte for byte."""
    gens = make_gens()
    want = _first_occurrence_levels(gens, L)
    searched = _record_searched_levels(monkeypatch)
    monkeypatch.setattr(orbit, "_quantized_keys", None)  # a call would raise
    ball = enumerate_ball(gens, L)
    assert [lvl.tobytes() for lvl in _levels(ball)] == [lvl.tobytes() for lvl in want]
    assert searched == [1] + [2] * (L - 1)
    assert all(lvl.dtype in (np.int32, np.int64) for lvl in ball._levels)


@pytest.mark.parametrize("k", [30, 1000, 100000])
def test_conjugated_float_modular_group_has_the_exact_ball(k):
    """<S, T> conjugated by [[k, k - 1], [1, 1]] has integer entries, and so
    have the inverses the generating set takes as exact adjugates: the float
    ball holds the 3,932 elements of the exact one, not the tens of
    thousands (k = 30) or 832,315 (k = 1000) that inverses rounded by LU
    added.  At k = 100000 the generators' entries near 1e10 put both balls
    on the exact big-int walk from the start, where float products that
    rounded past 2**53 gave 12,909 elements."""
    conj, conj_inv = np.array([[k, k - 1], [1, 1]]), np.array([[1, 1 - k], [-1, k]])
    balls = []
    for arithmetic in ("float", "exact-int"):
        spec = GroupSpec.sl(2, arithmetic)
        gens = [GroupElement(spec, (tuple(map(tuple, (conj @ m @ conj_inv).tolist())),))
                for m in (np.array([[0, -1], [1, 0]]), np.array([[1, 1], [0, 1]]))]
        balls.append(enumerate_ball(GeneratorSet.from_elements(gens), 12))
    assert len(balls[0]) == len(balls[1]) == 3932
    assert balls[0].growth_per_level == balls[1].growth_per_level
    assert [_level_set(lvl) for lvl in balls[0]._levels] == \
        [_level_set(lvl) for lvl in balls[1]._levels]


def _level_set(level) -> set:
    """The rows of a level as tuples of Python ints, checking each is one."""
    rows = {tuple(r) for r in level.tolist()}
    assert all(type(x) is int for r in rows for x in r)
    return rows


@pytest.mark.parametrize("entries, L", [(((1, 10**14), (0, 1)), 12),
                                        (((3, 8), (1, 3)), 30)],
                         ids=["generic-walk", "int-rows"])
def test_float_ball_overflow_is_an_enumeration_error(entries, L):
    """An integral float ball still raises NumericalError once an entry
    passes MAX_FLOAT_ENTRY (1e15), whether it walks on big ints from the
    start (generator entries of 1e14) or on int rows (word length 20)."""
    gens = GeneratorSet.from_elements([GroupElement(GroupSpec.sl(2, "float"), (entries,))])
    with pytest.raises(NumericalError, match="entry-overflow in float mode"):
        enumerate_ball(gens, L)


def test_float_ball_elements_with_large_integer_entries_are_valid():
    """The float ball of [[3,8],[1,3]] at L=16 holds integer entries up to
    2.5e12, where np.linalg.det misses 1 by more than 1e-9.  Its blocks'
    determinants are taken exactly, so every element(i) is built, and each
    is the exact ball's element."""
    balls = [enumerate_ball(GeneratorSet.from_elements(
        [GroupElement(GroupSpec.sl(2, arithmetic), (((3, 8), (1, 3)),))]), 16)
        for arithmetic in ("float", "exact-int")]
    got = {tuple(map(int, balls[0].element(i).flat_entries())) for i in range(len(balls[0]))}
    assert got == {e.flat_entries() for e in ball_elements(balls[1])}
    assert len(got) == 33


@pytest.mark.parametrize("sizes", [(3,), (2, 3)], ids=["sl3", "sl2xsl3"])
def test_float_block_products_match_einsum_bit_for_bit(sizes):
    """Float products add each entry's terms over j in order to +0.0, as
    np.einsum("fij,gjk->fgik") does: the bits are einsum's, over entries
    from 1e-3 to 1e9 of either sign and rows and columns of +0.0 and -0.0."""
    spec = GroupSpec.product(sizes, "float")
    rng = np.random.default_rng(5)

    def entries(count):
        x = 10.0 ** rng.uniform(-3, 9, size=(count, spec.entry_count))
        return x * rng.choice([-1.0, 1.0], size=x.shape)

    frontier, gen_rows = entries(40), entries(7)
    for n, sl in zip(spec.sizes, spec.entry_slices):
        frontier[:8, sl.start:sl.start + n] = 0.0  # block row 0
        frontier[8:16, sl.stop - n:sl.stop] = -0.0  # block row n - 1
        gen_rows[:2, sl.start:sl.stop:n] = 0.0  # block column 0
        gen_rows[2:4, sl.start + 1:sl.stop:n] = -0.0  # block column 1
    want = np.concatenate(
        [np.einsum("fij,gjk->fgik", frontier[:, sl].reshape(-1, n, n),
                   gen_rows[:, sl].reshape(-1, n, n)).reshape(-1, n * n)
         for n, sl in zip(spec.sizes, spec.entry_slices)], axis=1)
    got = orbit._block_products(spec, frontier, gen_rows)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_float_enumeration_peak_below_two_level_key_arrays(monkeypatch):
    """Quantized keys and hashes are formed a block at a time.  With
    1024-row blocks the L=9 ball of the orthonormal sym2 set, whose entries
    hold sqrt(2) and so are quantized, is enumerated within twice the size
    of the two-word key array that its last level's candidates would need
    all at once, and the blocks change no bit of the ball."""
    import tracemalloc
    gens, L = orthonormal_sym2_generators(), 9
    ref = enumerate_ball(gens, L)
    monkeypatch.setattr(orbit, "_BLOCK_ROWS", 1024)
    tracemalloc.start()
    try:
        ball = enumerate_ball(gens, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    frontier = ball.growth_per_level[L - 1]
    key_array = frontier * len(gens.elements) * 2 * ball.spec.entry_count * 8
    assert peak < 2 * key_array
    assert float_image(ball).tobytes() == float_image(ref).tobytes()


@pytest.mark.parametrize("make_gens, L", [(sanov_generators, 8), (_sym2_float_generators, 7)])
@pytest.mark.parametrize("block_rows", [orbit._BLOCK_ROWS, 64])
def test_parent_products_are_never_hashed(make_gens, L, block_rows, monkeypatch):
    """From level 2 on a row's product with the inverse of its last letter
    is its parent, which is formed with its block and dropped before it is
    hashed: the ball hashes |S| - 1 candidates per frontier row, however the
    rows fall into blocks, in int64 and in float mode, and is still the ball
    of the dictionary walk.  The count is of hashed rows, not of products."""
    gens = make_gens()
    hashed = []

    def counting(keys):
        hashed.append(len(keys))
        return row_hashes(keys)

    row_hashes = orbit._row_hashes
    monkeypatch.setattr(orbit, "_row_hashes", counting)
    monkeypatch.setattr(orbit, "_BLOCK_ROWS", block_rows)
    ball = enumerate_ball(gens, L)
    growth, size = ball.growth_per_level, len(gens.elements)
    # the identity's own hash, level 1 from all |S| products, then |S| - 1
    assert sum(hashed) == 1 + size + (size - 1) * sum(growth[1:L])
    oracle = dict_walk(gens, L)
    assert growth == oracle.growth_per_level
    for got, want in zip(_levels(ball), _levels(oracle)):
        assert {tuple(r) for r in got.tolist()} == {tuple(r) for r in want.tolist()}


@pytest.mark.parametrize("entries, quantum, L, levels", [
    ((1.7, 0.3, 0.9), 1e-17, 6, [1, 2, 2, 2, 2, 2, 2]),
    ((702471.6059460046, 82.45371109486837, 79279.29200841639), orbit._FLOAT_QUANTUM, 2,
     [1, 2, 2]),
], ids=["bit-keys", "large-entries"])
def test_cyclic_float_generator_enumerates_its_cyclic_group(entries, quantum, L, levels,
                                                            monkeypatch):
    """A float generator is paired with its inverse as the set is built, so
    every level from 2 on skips the parent product, also where inverting the
    stored inverse would miss the generator's key: by one bit on a 1e-17
    quantum, where the keys are the float bits, and by a determinant of
    1 - 1.1e-9, outside GroupElement's tolerance, for the large entries.
    Level k then holds g^k and g^-k alone, where the rounding noise of the
    unskipped products would add elements the group does not have."""
    spec = GroupSpec.sl(2, "float")
    a, b, c = entries
    monkeypatch.setattr(orbit, "_FLOAT_QUANTUM", quantum)
    g = GroupElement(spec, (((a, b), (c, (1 + b * c) / a)),))
    gens = GeneratorSet.from_elements([g])
    assert gens.inverse == (1, 0)
    ball = enumerate_ball(gens, L)
    assert ball.growth_per_level == levels
    assert not ball.exhausted
    block = np.array(g.float_blocks()[0])
    for k, level in enumerate(_levels(ball)[1:], start=1):
        for e in (k, -k):
            power = np.linalg.matrix_power(block, e).ravel()
            assert (np.abs(level - power).max(axis=1) / np.abs(power).max()).min() < 1e-9


def _rational_generators():
    spec = GroupSpec.sl(2, "exact-rational")
    a = GroupElement(spec, (((2, 0), (0, Fraction(1, 2))),))
    b = GroupElement(spec, (((1, Fraction(1, 3)), (0, 1)),))
    return GeneratorSet.from_elements([a, b])


def _far_conjugated_modular_group():
    """<S, T> conjugated by [[100000, 99999], [1, 1]]: generator entries
    near 1e10 put the ball on object rows from level 1."""
    spec, k = GroupSpec.sl(2), 100000
    conj, conj_inv = np.array([[k, k - 1], [1, 1]]), np.array([[1, 1 - k], [-1, k]])
    return GeneratorSet.from_elements(
        [GroupElement(spec, (tuple(map(tuple, (conj @ m @ conj_inv).tolist())),))
         for m in (np.array([[0, -1], [1, 0]]), np.array([[1, 1], [0, 1]]))])


_row_hashes = orbit._row_hashes


def _low_32_bits(keys):
    """The row hash cut to its low 32 bits: a level of fewer than 2**32
    candidates then sorts every hash on one shared (zero) prefix."""
    return _row_hashes(keys) & np.uint64(2**32 - 1)


@pytest.mark.parametrize("weak_hash", [
    lambda keys: np.zeros(len(keys), dtype=np.uint64),
    lambda keys: np.fromiter(map(hash, keys[:, 0].tolist()), dtype=np.int64,
                             count=len(keys)).view(np.uint64),
    _low_32_bits,
], ids=["constant", "first-column", "low-32-bits"])
@pytest.mark.parametrize("make_gens, L", [(sanov_generators, 6), (_cube_rotations, 10),
                                          (_sym2_float_generators, 4),
                                          (_rational_generators, 4),
                                          (_far_conjugated_modular_group, 6),
                                          (_modular_group, 8),
                                          (orthonormal_sym2_generators, 6)])
def test_hash_collisions_fall_back_to_identical_balls(make_gens, L, weak_hash, monkeypatch):
    """Hashes that collide for different rows change nothing, on int rows
    and on object rows of fractions or big ints: the verified rows expose
    every clash and the first-occurrence fallback gives the same ball.
    Hashes that differ only in their low 32 bits share the prefix by which
    candidates are grouped, and are sorted again into the same ball: on
    <S, T>, with its relations, too."""
    ref = enumerate_ball(make_gens(), L)
    monkeypatch.setattr(orbit, "_row_hashes", weak_hash)
    ball = enumerate_ball(make_gens(), L)
    assert ball.growth_per_level == ref.growth_per_level
    assert ball.exhausted == ref.exhausted
    assert [lvl.dtype for lvl in ball._levels] == [lvl.dtype for lvl in ref._levels]
    assert [lvl.tolist() for lvl in ball._levels] == [lvl.tolist() for lvl in ref._levels]
    assert float_image(ball).tobytes() == float_image(ref).tobytes()


def test_exact_determinant_survives_large_entries():
    """Entries of <[[3,8],[1,3]]> reach 3.7e8 at word length 12, where ad - bc
    cancels in float64; the exact ball's h still equals acosh(|g|_F^2 / 2) / 2
    evaluated on Python integers."""
    g = GroupElement(GroupSpec.sl(2), (((3, 8), (1, 3)),))
    ball = enumerate_ball(GeneratorSet.from_elements([g]), 12)
    expect = [0.5 * math.acosh(sum(x * x for x in e.flat_entries()) / 2)
              for e in ball_elements(ball)]
    np.testing.assert_allclose(chamber_matrix(ball)[:, 0], expect, rtol=1e-15,
                               atol=0)


def test_int_ball_levels_climb_from_int32_to_int64():
    """The entries of <[[3,8],[1,3]]> pass 2**31 near word length 12: its
    levels are stored as int32, then int64, and level k still holds exactly
    g^k and g^-k as Python-int matrix powers give them.  Each element's
    chamber row has the bytes it has in the dictionary walk's ball."""
    spec = GroupSpec.sl(2)
    g = ((3, 8), (1, 3))
    gens = GeneratorSet.from_elements([GroupElement(spec, (g,))])
    L = 16
    ball = enumerate_ball(gens, L)

    def power(k):
        m, step = ((1, 0), (0, 1)), g if k >= 0 else ((3, -8), (-1, 3))
        for _ in range(abs(k)):
            m = tuple(tuple(sum(m[i][t] * step[t][j] for t in range(2)) for j in range(2))
                      for i in range(2))
        return tuple(x for row in m for x in row)

    dtypes = [lvl.dtype for lvl in ball._levels]
    assert dtypes == sorted(dtypes, key=lambda d: d.itemsize)
    assert {np.dtype(np.int32), np.dtype(np.int64)} == set(dtypes)
    assert max(power(L)) > 2**31
    for k, lvl in enumerate(ball._levels):
        assert sorted(map(tuple, lvl.tolist())) == sorted({power(k), power(-k)})

    def rows_by_element(b):
        return {e.flat_entries(): row.tobytes()
                for e, row in zip(ball_elements(b), chamber_matrix(b))}

    assert rows_by_element(ball) == rows_by_element(dict_walk(gens, L))


def test_exact_enumeration_peak_below_two_int64_images(monkeypatch):
    """An int ball is kept as its int32 levels, never stacked into one
    array: with 4096-row blocks the L=10 Sanov ball is enumerated within
    twice the bytes of its int64 entries, which a stacked copy of int64
    levels alone would fill."""
    import tracemalloc
    monkeypatch.setattr(orbit, "_BLOCK_ROWS", 4096)
    tracemalloc.start()
    try:
        ball = enumerate_ball(sanov_generators(), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(ball) * ball.spec.entry_count * 8


def test_exact_enumeration_peak_per_element(monkeypatch):
    """The walk builds nothing it never reads and keeps nothing it has read:
    the last level gets no row hashes and no sort of its rows, the
    frontier's letters and parent generators are freed once used, and the
    sort keys' index bits are set a block at a time, so with 4096-row
    blocks the L=10 Sanov ball's traced peak stays below 40 bytes per
    element (37.9 measured; 43.2 while the letters outlived their level
    and the index bits took a candidate-length np.arange, 45.9 while int
    levels were sorted lexicographically, 51.2 while the last level kept an
    8-byte hash per element)."""
    import tracemalloc
    monkeypatch.setattr(orbit, "_BLOCK_ROWS", 4096)
    tracemalloc.start()
    try:
        ball = enumerate_ball(sanov_generators(), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * len(ball)


def test_chamber_matrix_peak_below_one_float_image(monkeypatch):
    """The chamber pass projects the ball a row block at a time: with
    4096-row blocks, through a fold that keeps no block, its traced peak on
    the L=10 Sanov ball stays below one float64 image of the whole ball."""
    import tracemalloc
    ball = enumerate_ball(sanov_generators(), 10)
    monkeypatch.setattr(orbit, "_BLOCK_ROWS", 4096)
    tracemalloc.start()
    try:
        relative_chamber_matrix(ball, None, None, lambda start, block: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(ball) * ball.spec.entry_count * 8


def test_chamber_matrix_keeps_no_float_copy_of_an_int_ball(monkeypatch):
    """An int ball converts its entries to float64 one row block at a time,
    only while they are projected: with 1024-row blocks, through a fold
    that keeps no block, the pass over the L=8 Sanov ball peaks below one
    float64 image of it and holds under a tenth of one afterwards."""
    import tracemalloc
    ball = enumerate_ball(sanov_generators(), 8)
    image = len(ball) * ball.spec.entry_count * 8
    monkeypatch.setattr(orbit, "_BLOCK_ROWS", 1024)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        relative_chamber_matrix(ball, None, None, lambda start, block: None)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < image
    assert held < image // 10


def test_rational_ball_elements_are_exact_products():
    """Object storage hands back the exact Fraction products of the words."""
    gens = _rational_generators()
    ball = enumerate_ball(gens, 3)
    frontier = [GroupElement.identity(gens.spec)]
    words = {frontier[0].flat_entries(): 0}
    for w in range(1, 4):
        frontier = [g @ h for g in frontier for h in gens.elements]
        for g in frontier:
            words.setdefault(g.flat_entries(), w)
    assert len(ball) == len(words)
    for g, w in zip(ball_elements(ball), word_lengths(ball)):
        assert all(type(x) is Fraction for x in g.flat_entries())
        assert words[g.flat_entries()] == w
    assert [lvl.tolist() for lvl in ball._levels] == \
        [lvl.tolist() for lvl in dict_walk(gens, 3)._levels]


def test_rational_ball_float_image_converts_each_entry():
    ball = enumerate_ball(_rational_generators(), 3)
    expect = np.array([[float(x) for x in g.flat_entries()] for g in ball_elements(ball)])
    assert float_image(ball).tobytes() == expect.tobytes()


def test_oversized_int_ball_has_no_float_image():
    g = GroupElement(GroupSpec.sl(2), (((10**200, 1), (10**200 - 1, 1)),))
    ball = enumerate_ball(GeneratorSet.from_elements([g]), 2)
    assert word_lengths(ball)[-1] == 2
    with pytest.raises(NumericalError, match="entries too large for a float image"):
        list(ball.float_row_blocks())


@pytest.mark.parametrize("arithmetic, L, int64_safe, switch",
                         [("exact-int", 30, orbit._INT64_SAFE, 24), ("float", 19, 2**40, 15)],
                         ids=["exact-int", "float"])
def test_int64_ball_continues_on_big_ints(arithmetic, L, int64_safe, switch, monkeypatch):
    """<[[3,8],[1,3]]> outgrows int64 at word length 24 on the way to 30:
    its levels are int32 and int64 below that and object rows of Python ints
    from it, and each level holds the dictionary walk's elements.  The float
    ball takes the same walk on the int values of its entries; with the
    switch lowered to 2**40 it switches at word length 15, its entries still
    below 1e15 up to L = 19."""
    def make_gens(arithmetic):
        spec = GroupSpec.sl(2, arithmetic)
        return GeneratorSet.from_elements([GroupElement(spec, (((3, 8), (1, 3)),))])

    monkeypatch.setattr(orbit, "_INT64_SAFE", int64_safe)
    ball = enumerate_ball(make_gens(arithmetic), L)
    assert [lvl.dtype.kind for lvl in ball._levels] == ["i"] * switch + ["O"] * (L + 1 - switch)
    assert ball.growth_per_level == [1] + [2] * L
    oracle = dict_walk(make_gens("exact-int"), L)
    assert [_level_set(lvl) for lvl in ball._levels] == \
        [_level_set(lvl) for lvl in oracle._levels]


@pytest.mark.parametrize("arithmetic", ["exact-int", "float"])
def test_relations_across_the_switch_to_object_rows(arithmetic, monkeypatch):
    """With the switch lowered to 2**5, <S, T> = SL(2,Z) goes on object rows
    at word length 10, and relations such as S^4 = (ST)^6 = 1 then lead
    candidates back to the int levels 8 and 9.  Those levels are hashed
    again as object rows at the switch, so the ball still holds the 3,932
    elements of SL(2,Z) up to word length 12, level for level the
    dictionary walk's."""
    monkeypatch.setattr(orbit, "_INT64_SAFE", 2**5)
    spec = GroupSpec.sl(2, arithmetic)
    gens = GeneratorSet.from_elements([GroupElement(spec, (((0, -1), (1, 0)),)),
                                       GroupElement(spec, (((1, 1), (0, 1)),))])
    ball = enumerate_ball(gens, 12)
    assert [lvl.dtype.kind for lvl in ball._levels] == ["i"] * 10 + ["O"] * 3
    assert len(ball) == 3932
    assert [_level_set(lvl) for lvl in ball._levels] == \
        [_level_set(lvl) for lvl in dict_walk(gens, 12)._levels]


@pytest.mark.parametrize("arithmetic", ["exact-int", "float"])
def test_levels_keep_first_occurrence_order_through_int64_and_object_rows(arithmetic,
                                                                          monkeypatch):
    """With the int32 switch lowered to 2**3 and the int64 switch to 2**5,
    the SL(2,Z) ball's levels go from int32 through int64 to object rows, and
    every level, in each storage, holds the dictionary walk's rows in the
    order that walk first meets them."""
    monkeypatch.setattr(orbit, "_INT32_SAFE", 2**3)
    monkeypatch.setattr(orbit, "_INT64_SAFE", 2**5)
    gens = _modular_group(arithmetic)
    ball = enumerate_ball(gens, 12)
    dtypes = [lvl.dtype for lvl in ball._levels]
    assert [d for i, d in enumerate(dtypes) if d not in dtypes[:i]] == \
        [np.dtype(np.int32), np.dtype(np.int64), np.dtype(object)]
    oracle = dict_walk(gens, 12)
    assert ball.growth_per_level == oracle.growth_per_level
    for got, want in zip(ball._levels, oracle._levels):
        assert np.array_equal(got, want)


def test_generic_walk_enforces_element_cap():
    with pytest.raises(ResourceLimitError, match="exceeds 20 elements at word length 3"):
        enumerate_ball(_rational_generators(), 4, max_elements=20)


def _left_fold_level_sums(sizes, terms):
    """Each level's terms added one at a time to +0.0 in Python floats."""
    sums, start = [], 0
    for n in sizes:
        total = 0.0
        for t in terms[start:start + n].tolist():
            total += t
        sums.append(total)
        start += n
    return np.array(sums)


def test_level_sums_are_the_left_fold_bit_for_bit():
    """level_sums adds each level in element order from +0.0.  Terms from
    1e-8 to 1e8 make a pairwise sum (np.add.reduceat) give other bits, so
    the pin fails under one."""
    ball = enumerate_ball(sanov_generators(), 8)
    sizes = ball.growth_per_level
    terms = 10.0 ** np.random.default_rng(7).uniform(-8, 8, len(ball))
    want = _left_fold_level_sums(sizes, terms)
    pairwise = np.add.reduceat(terms, np.cumsum([0] + sizes[:-1]))
    assert pairwise.tobytes() != want.tobytes()
    assert ball.level_sums(terms.copy()).tobytes() == want.tobytes()


def test_level_sums_edge_levels():
    """The identity's ball; a level of +0.0 terms (the Green series' skipped
    identity) and one of -0.0 terms, each summing to +0.0; terms that cancel
    to +0.0; an infinite term."""
    ball = enumerate_ball(sanov_generators(), 0)
    assert ball.level_sums(np.array([0.25])).tobytes() == np.array([0.25]).tobytes()

    ball = enumerate_ball(sanov_generators(), 3)
    assert ball.growth_per_level == [1, 4, 12, 36]
    terms = np.concatenate([[0.0], [1.5, -1.5, 0.75, -0.75], np.full(12, -0.0),
                            np.linspace(0.1, 3.5, 36)])
    terms[20] = np.inf
    want = _left_fold_level_sums(ball.growth_per_level, terms)
    got = ball.level_sums(terms.copy())
    assert got.tobytes() == want.tobytes()
    assert list(got[:3]) == [0.0, 0.0, 0.0] and not np.signbit(got[:3]).any()
    assert got[3] == np.inf
