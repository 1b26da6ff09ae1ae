"""Orbit-ball enumeration: dedup exactness, closure, and trust radius."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orbispec import (GeneratorSet, GroupElement, GroupSpec, NumericalError,
                      ResourceLimitError, build_root_system, enumerate_ball, orbit,
                      trust_radius)
from orbispec.exponents import distance_table, relative_chamber_matrix

from conftest import cyclic_hyperbolic_generator, sanov_generators

SQRT2 = np.sqrt(2.0)


def ball_key_set(ball):
    if ball.spec.arithmetic == "float":
        return {tuple(np.round(row / 1e-9).astype(np.int64)) for row in ball.float_entry_matrix()}
    return {g.flat_entries() for g in ball.iter_elements()}


def test_cyclic_ball_counts_and_trust():
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 3)
    assert len(ball) == 7
    assert ball.growth_per_level == [1, 2, 2, 2]
    rs = build_root_system(ball.spec)
    assert trust_radius(ball, rs) == pytest.approx(3 * SQRT2, abs=1e-9)
    assert ball.word_lengths[0] == 0


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
    deep_keys = {g.flat_entries() for g in deep.iter_elements() if g.word_length <= 4}
    assert deep_keys == ball_key_set(shallow)


def test_inverse_closure_preserves_word_length():
    ball = enumerate_ball(sanov_generators(), 4)
    lengths = {g.flat_entries(): g.word_length for g in ball.iter_elements()}
    for g in ball.iter_elements():
        inv_key = g.inverse().flat_entries()
        assert lengths[inv_key] == g.word_length


def test_ball_closed_under_stored_word_length():
    ball = enumerate_ball(sanov_generators(), 3)
    keys = {g.flat_entries(): g.word_length for g in ball.iter_elements()}
    gens = sanov_generators()
    for g in ball.iter_elements():
        if g.word_length >= 3:
            continue
        for h in gens.elements:
            prod = (g @ h).flat_entries()
            assert prod in keys and keys[prod] <= g.word_length + 1


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
    j = GroupElement(spec, (((0, 1), (-1, 0)),))
    alone = GeneratorSet.from_elements([j])
    assert len(alone.elements) == 2  # j and j^-1 = -j are distinct matrices


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
    chamber = relative_chamber_matrix(ball)
    assert chamber.shape == (7, 4)
    # second factor stays at the identity: zero chamber block
    np.testing.assert_allclose(chamber[:, 2:], 0.0, atol=1e-12)


def test_empty_generating_set_gives_trivial_ball():
    ball = enumerate_ball(GeneratorSet.trivial(GroupSpec.sl(2)), 5)
    assert len(ball) == 1
    assert ball.exhausted


def _elementary_sl3():
    spec = GroupSpec.sl(3)
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
    rows = ball.float_entry_matrix()
    return [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _conjugated_sanov():
    """The Sanov pair conjugated by [[13,5],[5,2]]: from word length 7 on, a
    level's entries span more than 2**16 values, so its rows need two packed
    sort keys."""
    spec = GroupSpec.sl(2)
    c = np.array([[13, 5], [5, 2]])
    c_inv = np.array([[2, -5], [-5, 13]])
    return GeneratorSet.from_elements(
        [GroupElement(spec, (tuple(map(tuple, (c @ np.array(m) @ c_inv).tolist())),))
         for m in ([[1, 2], [0, 1]], [[1, 0], [2, 1]])])


INT_CASES = [(sanov_generators, 8), (_elementary_sl3, 4), (_product_generators, 7),
             (_cube_rotations, 10), (_conjugated_sanov, 8)]


@pytest.mark.parametrize("make_gens, L", INT_CASES)
def test_int_levels_match_exact_dict_walk(make_gens, L):
    """The hashed int64 dedup finds, level by level, the elements of the
    dictionary walk on exact tuples, and stores each level in strict
    lexicographic row order."""
    gens = make_gens()
    ball = enumerate_ball(gens, L)
    oracle = orbit._enumerate_generic(gens, L, orbit.DEFAULT_MAX_ELEMENTS)
    assert ball.growth_per_level == oracle.growth_per_level
    assert ball.exhausted == oracle.exhausted
    for got, want in zip(_levels(ball), _levels(oracle)):
        assert {tuple(r) for r in got.tolist()} == {tuple(r) for r in want.tolist()}
        step = np.diff(got, axis=0)
        lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
        assert (lead > 0).all()
    if make_gens is _cube_rotations:
        assert ball.exhausted and len(ball) == 24
    if make_gens is _conjugated_sanov:
        assert np.ptp(got) >= 2**16


def _float_rotation():
    """Rotation by 1 radian in float SL(2), of infinite order in a compact
    group: on a coarse quantum the keys of its powers recur across levels."""
    spec = GroupSpec.sl(2, "float")
    c, s = math.cos(1.0), math.sin(1.0)
    return GeneratorSet.from_elements([GroupElement(spec, (((c, -s), (s, c)),))])


def test_float_levels_keep_first_occurrence_order(monkeypatch):
    """Each float level holds the candidates whose key no earlier level
    holds, in the order the candidates first occur.  On a 0.4 quantum the
    rotation meets keys more than two levels old, which only the float
    path's full-history check catches."""
    for make_gens, L, quantum in ((_sym2_float_generators, 5, orbit._FLOAT_QUANTUM),
                                  (_float_rotation, 12, 0.4)):
        monkeypatch.setattr(orbit, "_FLOAT_QUANTUM", quantum)
        gens = make_gens()
        ball = enumerate_ball(gens, L)
        levels = _levels(ball)
        gen_rows = np.array([g.flat_entries() for g in gens.elements], dtype=float)
        seen = {tuple(orbit._quantized_keys(levels[0])[0].tolist())}
        for prev, level in zip(levels[:-1], levels[1:]):
            cand = orbit._block_products(ball.spec, prev, gen_rows)
            keep = []
            for i, key in enumerate(map(tuple, orbit._quantized_keys(cand).tolist())):
                if key not in seen:
                    seen.add(key)
                    keep.append(i)
            np.testing.assert_array_equal(level, cand[keep])
    assert ball.growth_per_level == [1, 2, 2, 1, 1]
    assert ball.exhausted


@pytest.mark.parametrize("bound", [3, 2**20, 2**40, 2**61,
                                   pytest.param((3, 2**40), id="lead3-last2**40")])
def test_lex_order_matches_python_tuple_sort(bound):
    """Packed sort keys (one key, several, or one column each) order rows
    exactly as Python orders their tuples.  Small leading columns with a last
    column up to 2**40 give one key per column and long runs of rows that tie
    on the leading key, which only the remaining keys can order."""
    lead, last = bound if isinstance(bound, tuple) else (bound, bound)
    rng = np.random.default_rng(7)
    rows = np.column_stack([rng.integers(-lead, lead, size=(500, 3)),
                            rng.integers(-last, last, size=500)])
    rows = np.unique(rows, axis=0)
    rows = rows[rng.permutation(len(rows))]
    expect = sorted(range(len(rows)), key=lambda i: tuple(rows[i].tolist()))
    np.testing.assert_array_equal(orbit._lex_order(rows), expect)


@pytest.mark.parametrize("weak_hash", [
    lambda keys: np.zeros(len(keys), dtype=np.uint64),
    lambda keys: keys[:, 0].astype(np.uint64),
], ids=["constant", "first-column"])
@pytest.mark.parametrize("make_gens, L", [(sanov_generators, 6), (_cube_rotations, 10),
                                          (_sym2_float_generators, 4)])
def test_hash_collisions_fall_back_to_identical_balls(make_gens, L, weak_hash, monkeypatch):
    """Hashes that collide for different rows change nothing: the verified
    rows expose every clash and the row-sort fallback gives the same ball."""
    ref = enumerate_ball(make_gens(), L)
    monkeypatch.setattr(orbit, "_row_hashes", weak_hash)
    ball = enumerate_ball(make_gens(), L)
    assert ball.growth_per_level == ref.growth_per_level
    assert ball.exhausted == ref.exhausted
    assert ball.float_entry_matrix().tobytes() == ref.float_entry_matrix().tobytes()


def test_exact_determinant_survives_large_entries():
    """Entries of <[[3,8],[1,3]]> reach 3.7e8 at word length 12, where ad - bc
    cancels in float64; the exact ball's h still equals acosh(|g|_F^2 / 2) / 2
    evaluated on Python integers."""
    g = GroupElement(GroupSpec.sl(2), (((3, 8), (1, 3)),))
    ball = enumerate_ball(GeneratorSet.from_elements([g]), 12)
    expect = [0.5 * math.acosh(sum(x * x for x in e.flat_entries()) / 2)
              for e in ball.iter_elements()]
    np.testing.assert_allclose(relative_chamber_matrix(ball)[:, 0], expect, rtol=1e-15,
                               atol=0)


def test_chamber_matrix_keeps_no_float_copy_of_an_int_ball():
    """An int ball converts its entries to float64 only while they are
    projected: afterwards the chamber matrix is alive and no float copy."""
    import tracemalloc
    ball = enumerate_ball(sanov_generators(), 8)
    entries = sum(n * n for n in ball.spec.sizes)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chamber = relative_chamber_matrix(ball)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert chamber.shape == (len(ball), 2)
    assert held < len(ball) * entries * 8


def _rational_generators():
    spec = GroupSpec.sl(2, "exact-rational")
    a = GroupElement(spec, (((2, 0), (0, Fraction(1, 2))),))
    b = GroupElement(spec, (((1, Fraction(1, 3)), (0, 1)),))
    return GeneratorSet.from_elements([a, b])


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
    for g in ball.iter_elements():
        assert all(type(x) is Fraction for x in g.flat_entries())
        assert words[g.flat_entries()] == g.word_length


def test_rational_ball_float_image_converts_each_entry():
    ball = enumerate_ball(_rational_generators(), 3)
    expect = np.array([[float(x) for x in g.flat_entries()] for g in ball.iter_elements()])
    assert ball.float_entry_matrix().tobytes() == expect.tobytes()


def test_oversized_int_ball_has_no_float_image():
    g = GroupElement(GroupSpec.sl(2), (((10**200, 1), (10**200 - 1, 1)),))
    ball = enumerate_ball(GeneratorSet.from_elements([g]), 2)
    assert ball.element(len(ball) - 1).word_length == 2
    with pytest.raises(NumericalError, match="entries too large for a float image"):
        ball.float_entry_matrix()
