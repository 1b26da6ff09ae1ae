"""Counting curves, partial Poincare sums, and exponent fits."""

import math

import numpy as np
import pytest

from orbispec import (GroupElement, GroupSpec, KIND_MIXED, KIND_POLYHEDRAL,
                      KIND_RIEMANNIAN, build_root_system, counting_curve,
                      delta_second_bisection, enumerate_ball, estimate_exponent,
                      exponent_triple, level_partial_sums, poincare_partial_sum,
                      GeneratorSet)

from orbispec.exponents import completeness_radius, distance_table, relative_chamber_matrix

from conftest import cyclic_hyperbolic_generator, sanov_generators

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def cyclic_rs():
    return build_root_system(GroupSpec.sl(2, "float"))


@pytest.fixture(scope="module")
def sanov_rs():
    return build_root_system(GroupSpec.sl(2))


def test_counting_examples_cyclic(cyclic_rs):
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 10)
    curve = counting_curve(ball, cyclic_rs, KIND_RIEMANNIAN, radii=np.array([3.0]))
    assert curve.counts[0] == 5  # 2 * floor(3/sqrt(2)) + 1
    curve_p = counting_curve(ball, cyclic_rs, KIND_POLYHEDRAL, radii=np.array([3.0]))
    assert curve_p.counts[0] == 5  # rank one: same distance


def test_counting_at_zero_radius(sanov_rs):
    ball = enumerate_ball(sanov_generators(), 3)
    curve = counting_curve(ball, sanov_rs, KIND_RIEMANNIAN, radii=np.array([0.0]))
    assert curve.counts[0] == 1  # identity only


def test_counting_rejects_unsorted_radii(sanov_rs):
    ball = enumerate_ball(sanov_generators(), 2)
    with pytest.raises(ValueError, match="sorted"):
        counting_curve(ball, sanov_rs, KIND_RIEMANNIAN, radii=np.array([2.0, 1.0]))


def test_counting_monotone_and_complete_flag(sanov_rs):
    ball = enumerate_ball(sanov_generators(), 6)
    curve = counting_curve(ball, sanov_rs, KIND_POLYHEDRAL)
    assert np.all(np.diff(curve.counts) >= 0)
    assert curve.complete
    beyond = counting_curve(ball, sanov_rs, KIND_RIEMANNIAN,
                            radii=np.array([curve.completeness_radius + 50.0]))
    assert not beyond.complete


def test_partial_sum_trivial_ball(cyclic_rs):
    spec = GroupSpec.sl(2, "float")
    ball = enumerate_ball(GeneratorSet.trivial(spec), 0)
    assert poincare_partial_sum(ball, cyclic_rs, KIND_RIEMANNIAN, 1.0) == pytest.approx(1.0)
    e = math.e
    x = GroupElement(spec, (((e, 0.0), (0.0, 1.0 / e)),))
    # single term exp(-s d(x, e)) with d = sqrt(2)
    got = poincare_partial_sum(ball, cyclic_rs, KIND_RIEMANNIAN, 1.0, x=x)
    assert got == pytest.approx(math.exp(-SQRT2), rel=1e-12)


def test_partial_sum_geometric_oracle(cyclic_rs):
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 3)
    want = 1 + 2 * sum(math.exp(-n * SQRT2) for n in (1, 2, 3))
    got = poincare_partial_sum(ball, cyclic_rs, KIND_RIEMANNIAN, 1.0)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(1.63318415, abs=1e-6)


def test_partial_sum_monotone_in_depth(sanov_rs):
    sums = [poincare_partial_sum(enumerate_ball(sanov_generators(), L), sanov_rs,
                                 KIND_RIEMANNIAN, 1.0) for L in (2, 4, 6)]
    assert sums[0] < sums[1] < sums[2]


def test_mixed_sum_equals_polyhedral_below_rho(sanov_rs):
    """First branch: for s <= ||rho|| the mixed sum is sum exp(-s d')."""
    ball = enumerate_ball(sanov_generators(), 5)
    s = 0.5 * sanov_rs.rho_norm
    mixed = poincare_partial_sum(ball, sanov_rs, KIND_MIXED, s)
    poly = poincare_partial_sum(ball, sanov_rs, KIND_POLYHEDRAL, s)
    assert mixed == pytest.approx(poly, rel=1e-14)


def test_partial_sum_rejects_nonpositive_s(sanov_rs):
    ball = enumerate_ball(sanov_generators(), 2)
    with pytest.raises(ValueError):
        poincare_partial_sum(ball, sanov_rs, KIND_RIEMANNIAN, 0.0)


def test_summation_by_parts_bracket(sanov_rs):
    """The difference-weighted integer-radius series sum_R (N'_R - N'_{R-1})
    e^{-sR} = sum_gamma e^{-s ceil(d')} brackets the partial Poincare sum
    within [e^-s, e^s]."""
    ball = enumerate_ball(sanov_generators(), 8)
    dprime = relative_chamber_matrix(ball) @ sanov_rs.rho / sanov_rs.rho_norm
    for s in (0.5, 1.0, 2.0):
        series = np.exp(-s * np.ceil(dprime)).sum()
        psum = poincare_partial_sum(ball, sanov_rs, KIND_POLYHEDRAL, s)
        ratio = psum / series
        assert math.exp(-s) - 1e-12 <= ratio <= math.exp(s) + 1e-12


def test_monotone_series_comparison(sanov_rs):
    """P_s <= P'_s <= P_{(rho_min/||rho||) s} pointwise over the same ball."""
    ball = enumerate_ball(sanov_generators(), 6)
    ratio = sanov_rs.rho_min / sanov_rs.rho_norm
    for s in (0.6, 1.1, 2.3):
        p = poincare_partial_sum(ball, sanov_rs, KIND_RIEMANNIAN, s)
        pp = poincare_partial_sum(ball, sanov_rs, KIND_POLYHEDRAL, s)
        p_scaled = poincare_partial_sum(ball, sanov_rs, KIND_RIEMANNIAN, ratio * s)
        assert p <= pp + 1e-12 <= p_scaled + 1e-9


def test_level_partial_sums_cumulative(sanov_rs):
    ball = enumerate_ball(sanov_generators(), 5)
    sums = level_partial_sums(ball, sanov_rs, KIND_POLYHEDRAL, 1.0)
    assert len(sums) == 6
    assert np.all(np.diff(sums) >= 0)
    assert sums[-1] == pytest.approx(
        poincare_partial_sum(ball, sanov_rs, KIND_POLYHEDRAL, 1.0), rel=1e-12)


def test_estimate_exponent_polynomial_growth(cyclic_rs):
    """Cyclic group grows linearly, so the fitted exponent is near zero."""
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 20)
    curve = counting_curve(ball, cyclic_rs, KIND_RIEMANNIAN)
    est = estimate_exponent(curve, rho_norm=cyclic_rs.rho_norm)
    assert abs(est.value) <= 0.1
    assert est.complete
    assert est.in_range


def test_estimate_exponent_needs_points(cyclic_rs):
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 10)
    curve = counting_curve(ball, cyclic_rs, KIND_RIEMANNIAN, radii=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="samples"):
        estimate_exponent(curve)


def test_estimate_exponent_rejects_zero_counts(cyclic_rs):
    import dataclasses
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 10)
    curve = counting_curve(ball, cyclic_rs, KIND_RIEMANNIAN)
    broken = dataclasses.replace(curve, counts=curve.counts * 0)
    with pytest.raises(ValueError, match="zero counts"):
        estimate_exponent(broken)


def test_exponent_triple_trivial_group(cyclic_rs):
    ball = enumerate_ball(GeneratorSet.trivial(GroupSpec.sl(2, "float")), 3)
    triple = exponent_triple(ball, cyclic_rs)
    assert triple.values == (0.0, 0.0, 0.0)
    assert triple.delta.complete


def test_exponent_triple_rank_one_agreement(sanov_rs):
    """In rank one the polyhedral distance equals the Riemannian one, so all
    three estimates coincide."""
    ball = enumerate_ball(sanov_generators(), 8)
    triple = exponent_triple(ball, sanov_rs)
    d, ds, dp = triple.values
    assert d == pytest.approx(dp, abs=1e-9)
    assert ds == pytest.approx(d, abs=1e-9)
    assert triple.ordered()


def test_base_point_independence(sanov_rs):
    """Basing the count at (x, y) != (e, e) shifts the trusted window but not
    the fitted exponent beyond fit noise."""
    ball = enumerate_ball(sanov_generators(), 11)
    spec = sanov_rs.spec
    x = GroupElement(spec, (((1, 2), (0, 1)),))
    y = GroupElement(spec, (((1, 0), (2, 1)),))
    t0 = exponent_triple(ball, sanov_rs, radii_step=0.1)
    t1 = exponent_triple(ball, sanov_rs, x=x, y=y, radii_step=0.1)
    tol = 2 * (t0.delta.residual + t1.delta.residual) + 0.05
    assert abs(t0.delta.value - t1.delta.value) <= tol
    tolp = 2 * (t0.delta_prime.residual + t1.delta_prime.residual) + 0.05
    assert abs(t0.delta_prime.value - t1.delta_prime.value) <= tolp


def test_bisection_diagnostic_brackets(sanov_rs):
    """The tail-threshold bisection overshoots at truncated range but stays
    above the slope estimate and inside [0, 2||rho|| + 1]."""
    ball = enumerate_ball(sanov_generators(), 8)
    triple = exponent_triple(ball, sanov_rs)
    raw = delta_second_bisection(ball, sanov_rs)
    assert raw >= triple.delta_second.value - 0.1
    assert 0.0 <= raw <= 2 * sanov_rs.rho_norm + 1.0
    clipped = min(max(raw, triple.delta.value), triple.delta_prime.value)
    assert triple.delta.value - 1e-12 <= clipped <= triple.delta_prime.value + 1e-12


def test_bisection_trivial_group(cyclic_rs):
    ball = enumerate_ball(GeneratorSet.trivial(GroupSpec.sl(2, "float")), 2)
    assert delta_second_bisection(ball, cyclic_rs) == 0.0


@pytest.mark.parametrize("kind,s,match", [("bogus", None, "unknown distance kind"),
                                          (KIND_MIXED, -1.0, "mixing parameter")])
def test_completeness_radius_validates_on_exhausted_ball(sanov_rs, kind, s, match):
    """An exhausted ball has infinite trust radius; a bad kind or s still
    raises the ValueError that counting_curve raises."""
    spec = GroupSpec.sl(2)
    order3 = GroupElement(spec, (((0, -1), (1, -1)),))
    ball = enumerate_ball(GeneratorSet.from_elements([order3]), 3)
    assert ball.exhausted and ball.growth_per_level == [1, 2]
    assert math.isinf(completeness_radius(ball, sanov_rs, KIND_MIXED, s=1.0))
    for fn in (completeness_radius, counting_curve):
        with pytest.raises(ValueError, match=match):
            fn(ball, sanov_rs, kind, s)


def test_torsion_exclusion_in_counting():
    """Non-identity stabilizer elements are dropped when requested."""
    spec = GroupSpec.sl(2)
    rs = build_root_system(spec)
    rot = GroupElement(spec, (((0, 1), (-1, 0)),))
    shear = GroupElement(spec, (((1, 2), (0, 1)),))
    ball = enumerate_ball(GeneratorSet.from_elements([rot, shear]), 4)
    radii = np.array([0.0, 1.0])
    with_t = counting_curve(ball, rs, KIND_RIEMANNIAN, radii=radii, include_torsion=True)
    no_t = counting_curve(ball, rs, KIND_RIEMANNIAN, radii=radii, include_torsion=False)
    assert with_t.counts[0] > 1   # -I and friends sit at distance zero
    assert no_t.counts[0] == 1    # identity retained
    assert with_t.counts[1] - no_t.counts[1] == with_t.counts[0] - 1


def test_torsion_mask_computed_once_per_ball(monkeypatch):
    """The torsion mask is kept with the ball's base-point-free table: later
    counting curves, at base points too, reuse it without recomputing."""
    from orbispec import exponents
    spec = GroupSpec.sl(2)
    rs = build_root_system(spec)
    rot = GroupElement(spec, (((0, 1), (-1, 0)),))
    shear = GroupElement(spec, (((1, 2), (0, 1)),))
    x = GroupElement(spec, (((2, 1), (1, 1)),))
    ball = enumerate_ball(GeneratorSet.from_elements([rot, shear]), 4)
    radii = np.array([0.0, 1.0, 4.0])
    first = counting_curve(ball, rs, KIND_RIEMANNIAN, radii=radii, include_torsion=False)
    mask = exponents._torsion_mask(ball, rs, False)
    assert mask is not None and not mask.flags.writeable
    # a recomputed mask would now drop every element but the identity
    monkeypatch.setattr(exponents, "ZERO_DISTANCE", math.inf)
    again = counting_curve(ball, rs, KIND_RIEMANNIAN, radii=radii, include_torsion=False)
    np.testing.assert_array_equal(again.counts, first.counts)
    assert first.counts[-1] > 1
    counting_curve(ball, rs, KIND_POLYHEDRAL, x=x, radii=radii, include_torsion=False)
    assert exponents._torsion_mask(ball, rs, False) is mask


def _based_ball_and_points(depth):
    spec = GroupSpec.sl(2)
    x = GroupElement(spec, (((2, 1), (1, 1)),))
    y = GroupElement(spec, (((1, 2), (0, 1)),))
    return enumerate_ball(sanov_generators(spec), depth), x, y


def test_distance_table_matches_per_element_oracles(sanov_rs):
    """Each table entry is d(x, gamma y) and its polyhedral counterpart."""
    from orbispec.cartan import distance_polyhedral, distance_riemannian
    ball, x, y = _based_ball_and_points(5)
    table = distance_table(ball, sanov_rs, x, y)
    assert table.d.shape == table.dprime.shape == (len(ball),)
    for i, g in enumerate(ball.iter_elements()):
        assert table.d[i] == pytest.approx(distance_riemannian(g @ y, x), abs=1e-12)
        assert table.dprime[i] == pytest.approx(
            distance_polyhedral(sanov_rs, g @ y, x), abs=1e-12)
    assert table.shift == pytest.approx(distance_riemannian(x) + distance_riemannian(y),
                                        abs=1e-12)
    assert distance_table(ball, sanov_rs, x, y) is table
    with pytest.raises(ValueError):
        table.d[0] = 0.0


def _product_ball():
    spec = GroupSpec.product((2, 2))
    a = GroupElement(spec, (((1, 2), (0, 1)), ((1, 0), (2, 1))))
    b = GroupElement(spec, (((1, 0), (2, 1)), ((3, 2), (4, 3))))
    return enumerate_ball(GeneratorSet.from_elements([a, b]), 5)


def test_distance_table_rejects_root_system_of_another_group():
    """SL(4) has the ambient dimension of SL(2) x SL(2) but other roots."""
    ball = _product_ball()
    with pytest.raises(ValueError, match="root system"):
        poincare_partial_sum(ball, build_root_system(GroupSpec.sl(4)), KIND_POLYHEDRAL, 1.0)
    assert ball.tables == {}
    rs = build_root_system(ball.spec)
    total = poincare_partial_sum(ball, rs, KIND_POLYHEDRAL, 1.0)
    with pytest.raises(ValueError, match="root system"):
        poincare_partial_sum(ball, build_root_system(GroupSpec.sl(4)), KIND_POLYHEDRAL, 1.0)
    # root data depends on the blocks alone, not on the arithmetic mode
    float_rs = build_root_system(GroupSpec.product((2, 2), "float"))
    assert distance_table(ball, float_rs) is distance_table(ball, rs)


def test_distance_table_cache_stays_clean_for_the_right_root_system():
    """A refused call leaves nothing behind: the right root system then gets
    the sum a fresh ball gives."""
    ball = _product_ball()
    rs = build_root_system(ball.spec)
    with pytest.raises(ValueError):
        distance_table(ball, build_root_system(GroupSpec.sl(4)))
    assert poincare_partial_sum(ball, rs, KIND_POLYHEDRAL, 1.0) == \
        poincare_partial_sum(_product_ball(), rs, KIND_POLYHEDRAL, 1.0)
    dprime = relative_chamber_matrix(ball) @ rs.rho / rs.rho_norm
    np.testing.assert_array_equal(distance_table(ball, rs).dprime, dprime)


def test_one_chamber_rebuild_per_base_point_pair(sanov_rs, monkeypatch):
    """Every analysis over the same ball and base points reads one table."""
    from orbispec import exponents, green_series_diagnostic
    ball, x, y = _based_ball_and_points(8)
    calls = []
    build = exponents.relative_chamber_matrix

    def counted(b, bx=None, by=None):
        calls.append((bx, by))
        return build(b, bx, by)

    monkeypatch.setattr(exponents, "relative_chamber_matrix", counted)
    for px, py in ((x, y), (None, None), (x, None)):
        triple = exponent_triple(ball, sanov_rs, x=px, y=py, radii_step=0.1)
        if py is None:  # the fit reaches the mixed branch, which reads the table too
            assert triple.delta_prime.value > sanov_rs.rho_norm
        for kind, s in ((KIND_RIEMANNIAN, None), (KIND_POLYHEDRAL, None), (KIND_MIXED, 1.0)):
            counting_curve(ball, sanov_rs, kind, s=s, x=px, y=py)
        level_partial_sums(ball, sanov_rs, KIND_MIXED, 1.0, px, py)
        poincare_partial_sum(ball, sanov_rs, KIND_POLYHEDRAL, 1.0, px, py)
        green_series_diagnostic(ball, sanov_rs, 0.5, x=px, y=py)
    assert calls == [(x, y), (None, None), (x, None)]


def test_relative_chamber_matrix_matches_einsum_bytes(sanov_rs, monkeypatch):
    """x^-1 gamma y is formed bit for bit as np.einsum forms it, on a Sanov
    ball at x, y and both, and on a float stack full of signed zeros, where
    a sum of products that did not start at +0.0 would keep -0.0."""
    from orbispec import exponents
    from orbispec.cartan import log_singular_values

    def reference(stack, bx, by):
        if bx is not None:
            stack = np.einsum("ij,njk->nik", np.linalg.inv(bx.float_blocks()[0]), stack)
        if by is not None:
            stack = np.einsum("nij,jk->nik", stack, by.float_blocks()[0])
        return stack

    seen = []

    def recorded(stack, det=None):
        seen.append(stack)
        return log_singular_values(stack, det=det)

    monkeypatch.setattr(exponents, "log_singular_values", recorded)
    ball, x, y = _based_ball_and_points(8)
    for px, py in ((x, None), (None, y), (x, y)):
        seen.clear()
        got = exponents.relative_chamber_matrix(ball, px, py)
        want = reference(ball.block_stacks()[0], px, py)
        assert seen[0].tobytes() == want.tobytes()
        assert got.tobytes() == log_singular_values(want, det=1.0).tobytes()

    rng = np.random.default_rng(3)
    stack = rng.standard_normal((4000, 2, 2))
    stack[rng.random(stack.shape) < 0.4] = 0.0
    stack[rng.random(stack.shape) < 0.4] = -0.0
    shear = GroupElement(GroupSpec.sl(2), (((1, 1), (0, 1)),))
    monkeypatch.setattr(ball, "block_stacks", lambda: [stack])
    for px, py in ((shear, None), (shear, shear)):
        seen.clear()
        exponents.relative_chamber_matrix(ball, px, py)
        assert seen[0].tobytes() == reference(stack, px, py).tobytes()
