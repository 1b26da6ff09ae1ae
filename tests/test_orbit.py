"""Orbit-ball enumeration: dedup exactness, closure, and trust radius."""

import math

import numpy as np
import pytest

from orbispec import (GeneratorSet, GroupElement, GroupSpec, NumericalError,
                      ResourceLimitError, enumerate_ball, trust_radius)

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
    assert trust_radius(ball) == pytest.approx(3 * SQRT2, abs=1e-9)
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
    ball = enumerate_ball(GeneratorSet(spec, (g,), symmetric=False), 4)
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
    t = trust_radius(ball)
    d = np.sort(ball.distances())
    for r in np.arange(0.25, t, 0.25):
        n_r = int(np.searchsorted(d, r, side="right"))
        assert n_r == 2 * math.floor(r / SQRT2) + 1


def test_trust_radius_monotone_in_depth():
    t6 = trust_radius(enumerate_ball(sanov_generators(), 6))
    t7 = trust_radius(enumerate_ball(sanov_generators(), 7))
    assert t7 >= t6
    assert t6 > 0


def test_trust_radius_rejects_depth_zero():
    ball = enumerate_ball(sanov_generators(), 0)
    assert len(ball) == 1
    with pytest.raises(ValueError, match="frontier"):
        trust_radius(ball)


def test_trust_radius_infinite_when_exhausted():
    spec = GroupSpec.sl(2)
    a = GroupElement(spec, (((0, 1), (-1, 0)),))
    ball = enumerate_ball(GeneratorSet.from_elements([a]), 10)
    assert math.isinf(trust_radius(ball))


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
        ball.distances()


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
    assert ball.chamber_matrix().shape == (7, 4)
    # second factor stays at the identity: zero chamber block
    np.testing.assert_allclose(ball.chamber_matrix()[:, 2:], 0.0, atol=1e-12)


def test_empty_generating_set_gives_trivial_ball():
    ball = enumerate_ball(GeneratorSet.trivial(GroupSpec.sl(2)), 5)
    assert len(ball) == 1
    assert ball.exhausted
