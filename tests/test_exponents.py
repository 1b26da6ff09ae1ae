"""Counting curves, partial Poincare sums, and exponent fits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from orbispec import (GroupElement, GroupSpec, KIND_MIXED, KIND_POLYHEDRAL,
                      KIND_RIEMANNIAN, build_root_system, counting_curve,
                      delta_second_bisection, enumerate_ball, estimate_exponent,
                      exponent_triple, green_series_diagnostic, level_partial_sums,
                      poincare_partial_sum, pressure_exponent, GeneratorSet, OrbitBall)

from orbispec.exponents import KINDS, completeness_radius, distance_table

from conftest import (ball_elements, chamber_matrix, cyclic_hyperbolic_generator, float_image,
                      sanov_generators, word_lengths)

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


@pytest.mark.parametrize("radii", [[0.5, np.nan], [np.nan], [0.5, np.inf], [-np.inf, 0.5]])
def test_counting_rejects_non_finite_radii(sanov_rs, radii):
    """A NaN radius passes the sortedness check, and counting only within
    the last radius would read no element at all."""
    ball = enumerate_ball(sanov_generators(), 2)
    with pytest.raises(ValueError, match="finite"):
        counting_curve(ball, sanov_rs, KIND_RIEMANNIAN, radii=np.array(radii))


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
    ball = enumerate_ball(GeneratorSet(spec, ()), 0)
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
    dprime = chamber_matrix(ball) @ sanov_rs.rho / sanov_rs.rho_norm
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


@pytest.mark.parametrize("fraction", [0.0, 1.5])
def test_estimate_exponent_rejects_a_window_fraction_outside_0_1(cyclic_rs, fraction):
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 10)
    curve = counting_curve(ball, cyclic_rs, KIND_RIEMANNIAN)
    with pytest.raises(ValueError, match=r"window_fraction must lie in \(0, 1\]"):
        estimate_exponent(curve, window_fraction=fraction)


def test_estimate_exponent_rejects_zero_counts(cyclic_rs):
    import dataclasses
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 10)
    curve = counting_curve(ball, cyclic_rs, KIND_RIEMANNIAN)
    broken = dataclasses.replace(curve, counts=curve.counts * 0)
    with pytest.raises(ValueError, match="zero counts"):
        estimate_exponent(broken)


def test_estimate_exponent_rejects_a_curve_that_counts_no_orbit_point(sanov_rs):
    """Gamma(2) at L=1: the trust radius 1.246 is the generators' distance,
    so every radius of the window counts the identity alone and the flat
    count would fit slope 0."""
    ball = enumerate_ball(sanov_generators(), 1)
    curve = counting_curve(ball, sanov_rs, KIND_RIEMANNIAN, radii_step=0.1)
    assert set(curve.counts) == {1}
    with pytest.raises(ValueError, match="no orbit point counted"):
        estimate_exponent(curve)
    with pytest.raises(ValueError, match="no orbit point counted"):
        exponent_triple(ball, sanov_rs, radii_step=0.1)


def test_estimate_exponent_flat_window_above_counted_points(cyclic_rs):
    """The cyclic group at L=10 with window fraction 0.9: each radius of the
    window [12.6, 14], 12.75 to 14, counts the same 19 elements, 18 of them
    at positive distance: the flat count still fits, at slope 0."""
    ball = enumerate_ball(cyclic_hyperbolic_generator(), 10)
    curve = counting_curve(ball, cyclic_rs, KIND_RIEMANNIAN)
    est = estimate_exponent(curve, window_fraction=0.9)
    assert est.window == pytest.approx((12.6, 14.0))
    assert set(curve.counts[curve.radii >= 12.6]) == {19}
    assert abs(est.value) <= 1e-12


def test_exponent_triple_trivial_group(cyclic_rs):
    ball = enumerate_ball(GeneratorSet(GroupSpec.sl(2, "float"), ()), 3)
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


@pytest.fixture(scope="module")
def based_sanov_11(sanov_rs):
    """The Sanov ball at L = 11 with the base points x = [[1,2],[0,1]] and
    y = [[1,0],[2,1]]."""
    spec = sanov_rs.spec
    return (enumerate_ball(sanov_generators(), 11), GroupElement(spec, (((1, 2), (0, 1)),)),
            GroupElement(spec, (((1, 0), (2, 1)),)))


def test_base_point_independence(sanov_rs, based_sanov_11):
    """Basing the count at (x, y) != (e, e) shifts the trusted window but not
    the fitted exponent beyond fit noise."""
    ball, x, y = based_sanov_11
    t0 = exponent_triple(ball, sanov_rs, radii_step=0.1)
    t1 = exponent_triple(ball, sanov_rs, x=x, y=y, radii_step=0.1)
    tol = 2 * (t0.delta.residual + t1.delta.residual) + 0.05
    assert abs(t0.delta.value - t1.delta.value) <= tol
    tolp = 2 * (t0.delta_prime.residual + t1.delta_prime.residual) + 0.05
    assert abs(t0.delta_prime.value - t1.delta_prime.value) <= tolp


def test_based_counting_fits_fail_where_the_pressure_zero_holds(sanov_rs, based_sanov_11):
    """With base points x, y every counting fit leaves the range [0, 2||rho||]
    (each reads 2.341, against sqrt(2)), while the word-length pressure zero
    at (x, y) stays within 0.02 of the one at (e, e) (1.4288 against
    1.4228): the pressure zero tells 1.40 from 2.34, which the tolerance
    above does not."""
    ball, x, y = based_sanov_11
    triple = exponent_triple(ball, sanov_rs, x=x, y=y, radii_step=0.1)
    for est in (triple.delta, triple.delta_second, triple.delta_prime):
        assert not est.in_range
    based = pressure_exponent(ball, sanov_rs, KIND_RIEMANNIAN, x, y).value
    free = pressure_exponent(ball, sanov_rs, KIND_RIEMANNIAN).value
    assert abs(based - free) <= 0.02


def test_bisection_diagnostic_brackets(sanov_rs):
    """The mixed-exponent diagnostic, the word-length pressure zero, lies
    within 0.03 of the truth sqrt(2) on the Sanov ball at L = 8 (the
    tail-threshold bisection it replaced returned its bracket end, 2.4142),
    inside [0, 2||rho|| + 1]."""
    ball = enumerate_ball(sanov_generators(), 8)
    triple = exponent_triple(ball, sanov_rs)
    raw = delta_second_bisection(ball, sanov_rs)
    assert abs(raw - SQRT2) <= 0.03
    assert 0.0 <= raw <= 2 * sanov_rs.rho_norm + 1.0
    clipped = min(max(raw, triple.delta.value), triple.delta_prime.value)
    assert triple.delta.value - 1e-12 <= clipped <= triple.delta_prime.value + 1e-12


def test_bisection_trivial_group(cyclic_rs):
    ball = enumerate_ball(GeneratorSet(GroupSpec.sl(2, "float"), ()), 2)
    assert delta_second_bisection(ball, cyclic_rs) == 0.0


def test_bracketed_zero_stops_at_an_exact_zero():
    """f(s) = 1 - s on [0.5, 2]: the first secant lands exactly on 1.0,
    where f is 0, and the search returns it after that one evaluation."""
    from orbispec.exponents import _bracketed_zero
    calls = []

    def f(s):
        calls.append(s)
        return 1.0 - s

    assert _bracketed_zero(f, 0.5, 0.5, 2.0, -1.0) == 1.0
    assert calls == [1.0]


def test_bisection_pass_budget(sanov_rs, monkeypatch):
    """The diagnostic takes at most 24 level-sum passes over Gamma(2) at
    L = 8; the 50-halving bisection it replaced took 51."""
    ball = enumerate_ball(sanov_generators(), 8)
    distance_table(ball, sanov_rs)
    calls = []
    level_sums = OrbitBall.level_sums
    monkeypatch.setattr(OrbitBall, "level_sums",
                        lambda self, terms: calls.append(1) or level_sums(self, terms))
    delta_second_bisection(ball, sanov_rs)
    assert 0 < len(calls) <= 24


def _level_log_sums(ball, rs, kind, s):
    """log S_w(s) for w = 0..L, summed level by level with np.bincount."""
    dist = distance_table(ball, rs).of_kind(kind, s)
    terms = np.exp(-dist if kind == KIND_MIXED else -s * dist)
    return np.log(np.bincount(word_lengths(ball), weights=terms))


def _w_coefficient(log_sums, levels, log_w):
    """The w-coefficient of a least-squares fit of log S_w on (1, w) or
    (1, w, log w) over the last `levels` word lengths."""
    w = np.arange(len(log_sums), dtype=float)[-levels:]
    cols = [np.ones_like(w), w] + ([np.log(w)] if log_w else [])
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), log_sums[-levels:], rcond=None)
    return coef[1]


@pytest.mark.parametrize("kind", KINDS)
def test_pressure_zero_of_the_log_w_fit(sanov_rs, sanov_ball_8, kind):
    """On the Sanov ball at L = 8 the estimate zeroes the w-coefficient of
    the (1, w, log w) fit over word lengths 4..8, recomputed here with
    bincount and lstsq; its window is those word lengths and its residual,
    bit for bit, the RMS of np.linalg.lstsq's fit at the estimate."""
    est = pressure_exponent(sanov_ball_8, sanov_rs, kind)
    log_sums = _level_log_sums(sanov_ball_8, sanov_rs, kind, est.value)
    assert abs(_w_coefficient(log_sums, 5, log_w=True)) <= 1e-9
    assert est.window == (4.0, 8.0)
    w = np.arange(4.0, 9.0)
    # the design in column-major order, as the package's fit builds it:
    # the product design @ coef rounds differently in row-major order
    design = np.vstack([np.ones_like(w), w, np.log(w)]).T
    coef, *_ = np.linalg.lstsq(design, log_sums[4:], rcond=None)
    assert est.residual == float(np.sqrt(np.mean((design @ coef - log_sums[4:]) ** 2)))
    assert est.complete and est.in_range


@pytest.mark.parametrize("generators,depth", [
    ([((0, -1), (1, -1))], 3),
    ([((2, 1), (1, 1))], 8),
    ([((1, 2), (0, 1)), ((1, 0), (2, 1))], 1),
], ids=["exhausted", "cyclic", "one-level"])
def test_pressure_zero_is_zero(sanov_rs, generators, depth):
    """An exhausted ball (an element of order 3), a ball with fewer than two
    levels past the identity, and <[[2,1],[1,1]]>, each of whose levels holds
    two elements so that log S_w falls with w at every s > 0 (a slope <= 0
    at the bracket's low end), give 0."""
    ball = enumerate_ball(GeneratorSet.from_elements(
        [GroupElement(GroupSpec.sl(2), (g,)) for g in generators]), depth)
    for kind in KINDS:
        assert pressure_exponent(ball, sanov_rs, kind).value == 0.0


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_pressure_zero_of_a_short_ball_is_the_slope_zero(sanov_rs, depth):
    """A ball with two to four levels past the identity gives the zero of
    the (1, w) slope over all of them."""
    ball = enumerate_ball(sanov_generators(), depth)
    est = pressure_exponent(ball, sanov_rs, KIND_RIEMANNIAN)
    log_sums = _level_log_sums(ball, sanov_rs, KIND_RIEMANNIAN, est.value)
    assert abs(_w_coefficient(log_sums, depth, log_w=False)) <= 1e-9
    assert est.window == (1.0, float(depth))
    assert 1.0 < est.value < SQRT2


def test_pressure_zero_falls_back_to_the_slope_zero(sanov_rs):
    """On the golden torsion ball at L = 7 the (1, w, log w) coefficient
    keeps one sign on [0.7 z, 1.3 z], z the zero of the (1, w) slope over
    the last 4 levels: the estimate is z, to the final tolerance."""
    spec = GroupSpec.sl(2)
    ball = enumerate_ball(GeneratorSet.from_elements(
        [GroupElement(spec, (((0, 1), (-1, 0)),)), GroupElement(spec, (((1, 2), (0, 1)),))]), 7)
    est = pressure_exponent(ball, sanov_rs, KIND_MIXED)
    z = est.value
    assert abs(_w_coefficient(_level_log_sums(ball, sanov_rs, KIND_MIXED, z), 4,
                              log_w=False)) <= 1e-9
    assert est.window == (4.0, 7.0)
    assert z == pytest.approx(1.280, abs=1e-3)
    ends = [_w_coefficient(_level_log_sums(ball, sanov_rs, KIND_MIXED, s), 5, log_w=True)
            for s in (0.7 * z, 1.3 * z)]
    assert (ends[0] > 0) == (ends[1] > 0)


def test_pressure_zero_past_the_bracket_is_its_end():
    """Rotations by arccos(3/5) about two axes generate a free subgroup of
    SO(3): every element lies at distance 0, so the level sums grow at every
    s and the estimate is the bracket end 2||rho|| + 1, out of range."""
    spec = GroupSpec.sl(3, "float")
    c, s = 0.6, 0.8
    rotations = [(((1, 0, 0), (0, c, -s), (0, s, c)),), (((c, -s, 0), (s, c, 0), (0, 0, 1)),)]
    ball = enumerate_ball(GeneratorSet.from_elements(
        [GroupElement(spec, blocks) for blocks in rotations]), 6)
    assert ball.growth_per_level == [1, 4, 12, 36, 108, 324, 972]
    rs = build_root_system(spec)
    est = pressure_exponent(ball, rs, KIND_MIXED)
    assert est.value == 2 * rs.rho_norm + 1 and not est.in_range


def test_pressure_exponent_rejects_a_bad_kind(sanov_rs, sanov_ball_8):
    with pytest.raises(ValueError, match="unknown distance kind"):
        pressure_exponent(sanov_ball_8, sanov_rs, "bogus")


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


def _based_ball_and_points(depth, arithmetic="exact-int"):
    spec = GroupSpec.sl(2, arithmetic)
    x = GroupElement(spec, (((2, 1), (1, 1)),))
    y = GroupElement(spec, (((1, 2), (0, 1)),))
    return enumerate_ball(sanov_generators(spec), depth), x, y


@pytest.mark.parametrize("arithmetic", ["exact-int", "float"])
def test_distance_table_matches_per_element_oracles(sanov_rs, arithmetic):
    """Each table entry is d(x, gamma y) and its polyhedral counterpart."""
    from orbispec.cartan import distance_polyhedral, distance_riemannian
    ball, x, y = _based_ball_and_points(5, arithmetic)
    table = distance_table(ball, sanov_rs, x, y)
    assert table.d.shape == table.dprime.shape == (len(ball),)
    for i, g in enumerate(ball_elements(ball)):
        assert table.d[i] == pytest.approx(distance_riemannian(g @ y, x), abs=1e-12)
        assert table.dprime[i] == pytest.approx(
            distance_polyhedral(sanov_rs, g @ y, x), abs=1e-12)
    assert table.shift == pytest.approx(distance_riemannian(x) + distance_riemannian(y),
                                        abs=1e-12)
    assert distance_table(ball, sanov_rs, x, y) is table
    with pytest.raises(ValueError):
        table.d[0] = 0.0


@pytest.mark.parametrize("depth", [12, 16])
def test_float_cyclic_ball_matches_exact_distances(sanov_rs, depth):
    """[[3,8],[1,3]]^k reaches entries of 2.5e12 at k = 16, where ad - bc in
    float64 cancels; float blocks are projected with determinant 1 as exact
    ones are.  g^k and g^-k lie at one distance, so sorted tables compare."""
    balls = [enumerate_ball(GeneratorSet.from_elements(
        [GroupElement(GroupSpec.sl(2, mode), (((3, 8), (1, 3)),))]), depth)
        for mode in ("exact-int", "float")]
    assert balls[0].growth_per_level == balls[1].growth_per_level
    exact, rounded = (np.sort(distance_table(b, sanov_rs).d) for b in balls)
    np.testing.assert_allclose(rounded, exact, rtol=0, atol=1e-12)


def _product_ball():
    spec = GroupSpec.product((2, 2))
    a = GroupElement(spec, (((1, 2), (0, 1)), ((1, 0), (2, 1))))
    b = GroupElement(spec, (((1, 0), (2, 1)), ((3, 2), (4, 3))))
    return enumerate_ball(GeneratorSet.from_elements([a, b]), 5)


def _unipotent(n, lower):
    """I with 2 in every entry above the diagonal, or below it."""
    return tuple(tuple(1 if i == j else 2 if (i > j) == lower and i != j else 0
                       for j in range(n)) for i in range(n))


def _hyperbolic(n):
    """[[2, 1], [1, 1]] in the top corner of the n x n identity."""
    return tuple(tuple([[2, 1], [1, 1]][i][j] if max(i, j) < 2 else int(i == j)
                       for j in range(n)) for i in range(n))


def _unipotent_ball(sizes, depth):
    """The ball of two unipotent generators, upper and lower by turns in
    each block, and the hyperbolic base point of the same blocks."""
    spec = GroupSpec.product(sizes) if len(sizes) > 1 else GroupSpec.sl(sizes[0])
    a = GroupElement(spec, tuple(_unipotent(n, k % 2) for k, n in enumerate(sizes)))
    b = GroupElement(spec, tuple(_unipotent(n, 1 - k % 2) for k, n in enumerate(sizes)))
    x = GroupElement(spec, tuple(map(_hyperbolic, sizes)))
    return enumerate_ball(GeneratorSet.from_elements([a, b]), depth), x


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 2), (3, 3)])
@pytest.mark.parametrize("based", [False, True])
def test_distance_is_the_row_norm_bit_for_bit(sizes, based):
    """d, folded left to right over the chamber columns, equals
    np.linalg.norm(axis=1) byte for byte on 2, 3, 4 and 6 columns, at the
    identity and at a base point."""
    ball, x = _unipotent_ball(sizes, 6)
    x = x if based else None
    table = distance_table(ball, build_root_system(ball.spec), x)
    chamber = chamber_matrix(ball, x)
    assert chamber.shape[1] == sum(sizes)
    assert table.d.tobytes() == np.linalg.norm(chamber, axis=1).tobytes()


def test_dprime_does_not_depend_on_the_row_block(monkeypatch):
    """<rho, H> is summed in one order over rho's coordinates, so a row's d'
    is the same in a one-row block as in a long one, and equals
    rs.polyhedral of its own chamber row: on SL(2) x SL(2), where rho has
    four nonzero coordinates, a BLAS product per block moved 264 of these
    1,457 rows in their last bit."""
    from orbispec import orbit
    spec = GroupSpec.product((2, 2))
    a = GroupElement(spec, (((1, 2), (0, 1)), ((1, 0), (2, 1))))
    b = GroupElement(spec, (((1, 0), (2, 1)), ((1, 2), (0, 1))))
    x = GroupElement(spec, (((2, 1), (1, 1)),) * 2)
    ball = enumerate_ball(GeneratorSet.from_elements([a, b]), 6)
    rs = build_root_system(spec)
    dprime = distance_table(ball, rs, x).dprime
    assert len(dprime) == 1457
    chamber = chamber_matrix(ball, x)
    assert [rs.polyhedral(row) for row in chamber] == dprime.tolist()
    monkeypatch.setattr(orbit, "_BLOCK_ROWS", 1)
    ball.tables.clear()
    assert distance_table(ball, rs, x).dprime.tobytes() == dprime.tobytes()


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 2), (3, 3)])
@pytest.mark.parametrize("based", [False, True])
def test_root_product_is_the_product_over_roots_bit_for_bit(sizes, based, monkeypatch):
    """The table's root_product is the product, over the positive roots in
    order, of 1 + <alpha, H> on the whole chamber matrix, byte for byte:
    at the identity and at a base point, on one block per level and on
    many."""
    from orbispec import orbit
    ball, x = _unipotent_ball(sizes, 6)
    x = x if based else None
    rs = build_root_system(ball.spec)
    chamber = chamber_matrix(ball, x)
    expect = np.ones(len(ball))
    for alpha in rs.positive_roots:
        expect *= 1.0 + chamber @ alpha
    assert distance_table(ball, rs, x).root_product.tobytes() == expect.tobytes()
    monkeypatch.setattr(orbit, "_BLOCK_ROWS", 100)
    ball.tables.clear()
    assert distance_table(ball, rs, x).root_product.tobytes() == expect.tobytes()


@pytest.mark.parametrize("sizes, depth", [((2,), 11), ((3,), 12), ((2, 2), 10)])
def test_table_holds_three_floats_per_element(sizes, depth, monkeypatch):
    """A distance table keeps d, d' and root_product, 24 bytes per element
    whatever the ambient dimension, and with 4096-row blocks its build
    peaks below that plus 320 bytes per block row (266 measured, on the
    based SL(3) table): no chamber matrix of the ball's length is made,
    which would hold 16 to 32 bytes per element more on these balls."""
    import tracemalloc
    from orbispec import orbit
    ball, x = _unipotent_ball(sizes, depth)
    rs = build_root_system(ball.spec)
    monkeypatch.setattr(orbit, "_BLOCK_ROWS", 4096)
    for base in (None, x):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = distance_table(ball, rs, base)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(table.d) == len(ball) > 100_000
        assert 24 * len(ball) <= held < 25 * len(ball)
        assert peak < 24 * len(ball) + 320 * 4096


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


@pytest.mark.parametrize("sizes, blocks",
                         [((2, 2), (((2, 1), (1, 1)),) * 2),
                          ((3,), (((2, 1, 0), (1, 1, 0), (0, 0, 1)),))],
                         ids=["sl2xsl2", "sl3"])
@pytest.mark.parametrize("side", ["x", "y"])
def test_distance_table_rejects_base_point_of_another_group(sanov_rs, sizes, blocks, side):
    """An SL(2) x SL(2) point on an SL(2) ball would count its first block
    alone, and an SL(3) point does not multiply 2x2 blocks: both are refused
    before anything is built."""
    point = GroupElement(GroupSpec.product(sizes), blocks)
    ball = enumerate_ball(sanov_generators(), 3)
    with pytest.raises(ValueError, match="base point"):
        distance_table(ball, sanov_rs, **{side: point})
    assert ball.tables == {}


def test_distance_table_cache_stays_clean_for_the_right_root_system():
    """A refused call leaves nothing behind: the right root system then gets
    the sum a fresh ball gives."""
    ball = _product_ball()
    rs = build_root_system(ball.spec)
    with pytest.raises(ValueError):
        distance_table(ball, build_root_system(GroupSpec.sl(4)))
    assert poincare_partial_sum(ball, rs, KIND_POLYHEDRAL, 1.0) == \
        poincare_partial_sum(_product_ball(), rs, KIND_POLYHEDRAL, 1.0)
    dprime = rs.polyhedral(chamber_matrix(ball))
    np.testing.assert_array_equal(distance_table(ball, rs).dprime, dprime)


def test_one_chamber_rebuild_per_base_point_pair(sanov_rs, monkeypatch):
    """Every analysis over the same ball and base points reads one table."""
    from orbispec import exponents, green_series_diagnostic
    ball, x, y = _based_ball_and_points(8)
    calls = []
    build = exponents.relative_chamber_matrix

    def counted(b, bx, by, fold):
        calls.append((bx, by))
        return build(b, bx, by, fold)

    monkeypatch.setattr(exponents, "relative_chamber_matrix", counted)
    for px, py in ((x, y), (None, None), (x, None)):
        triple = exponent_triple(ball, sanov_rs, x=px, y=py, radii_step=0.1)
        if py is None:  # the fit reaches the mixed branch, which reads the table too
            assert triple.delta_prime.value > sanov_rs.rho_norm
        for kind, s in ((KIND_RIEMANNIAN, None), (KIND_POLYHEDRAL, None), (KIND_MIXED, 1.0)):
            counting_curve(ball, sanov_rs, kind, s=s, x=px, y=py)
        level_partial_sums(ball, sanov_rs, KIND_MIXED, 1.0, px, py)
        poincare_partial_sum(ball, sanov_rs, KIND_POLYHEDRAL, 1.0, px, py)
        green_series_diagnostic(ball, sanov_rs, [0.5], x=px, y=py)
    assert calls == [(x, y), (None, None), (x, None)]


def test_base_point_is_inverted_exactly(sanov_rs):
    """x = M^6 has entries near 5.5e4: the float LU inverse of x is off in
    the last digits and moved d by 1.9e-7 over <M>; the exact inverse of an
    integer x gives each element's own distance."""
    from orbispec.cartan import distance_riemannian
    spec = GroupSpec.sl(2)
    m = GroupElement(spec, (((3, 8), (1, 3)),))
    ball = enumerate_ball(GeneratorSet.from_elements([m]), 12)
    x = GroupElement(spec, (((19601, 55440), (6930, 19601)),))
    assert x == m @ m @ m @ m @ m @ m
    want = [distance_riemannian(g, x) for g in ball_elements(ball)]
    np.testing.assert_allclose(distance_table(ball, sanov_rs, x).d, want, rtol=0, atol=1e-12)


def test_one_table_for_an_element_and_its_parsed_copy(sanov_rs):
    """A ball element and the matrix parsed from its blocks name one base
    point and share one table."""
    ball = enumerate_ball(sanov_generators(), 4)
    element = ball.element(5)
    parsed = GroupElement(ball.spec, element.blocks)
    distance_table(ball, sanov_rs, element)
    assert distance_table(ball, sanov_rs, parsed) is distance_table(ball, sanov_rs, element)
    assert len(ball.tables) == 1


@pytest.mark.parametrize("bad", [0.0, -0.25, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda ball, rs, v: counting_curve(ball, rs, KIND_RIEMANNIAN, radii_step=v),
    lambda ball, rs, v: poincare_partial_sum(ball, rs, KIND_POLYHEDRAL, v),
    lambda ball, rs, v: level_partial_sums(ball, rs, KIND_MIXED, v),
    lambda ball, rs, v: green_series_diagnostic(ball, rs, [v]),
], ids=["counting_curve", "poincare_partial_sum", "level_partial_sums",
        "green_series_diagnostic"])
def test_series_and_radii_parameters_must_be_finite_and_positive(sanov_rs, call, bad):
    """A zero, negative, NaN or infinite radii_step, s or zeta is refused
    rather than giving a ZeroDivisionError, an empty curve or NaN sums."""
    ball = enumerate_ball(sanov_generators(), 3)
    with pytest.raises(ValueError, match="finite and positive"):
        call(ball, sanov_rs, bad)


def test_default_radii_of_a_finite_group(sanov_rs):
    """<S> has order 4 and every element fixes the base point: the default
    radii stop one step past the farthest element, at distance 0, and count
    all four."""
    s = GroupElement(GroupSpec.sl(2), (((0, -1), (1, 0)),))
    ball = enumerate_ball(GeneratorSet.from_elements([s]), 3)
    assert ball.exhausted
    curve = counting_curve(ball, sanov_rs, KIND_RIEMANNIAN)
    np.testing.assert_array_equal(curve.radii, [0.25])
    np.testing.assert_array_equal(curve.counts, [4])
    assert curve.complete


def test_default_radii_at_completeness_radius_zero(sanov_rs):
    """A base point farther out than the trust radius leaves no complete
    radius: the curve holds one radius with no count, and no fit can run."""
    ball = enumerate_ball(sanov_generators(), 4)
    x = GroupElement(GroupSpec.sl(2), (((89, 55), (144, 89)),))
    curve = counting_curve(ball, sanov_rs, KIND_RIEMANNIAN, x=x)
    assert curve.completeness_radius == 0.0
    np.testing.assert_array_equal(curve.radii, [0.25])
    np.testing.assert_array_equal(curve.counts, [0])
    assert not curve.complete
    with pytest.raises(ValueError, match="need at least 6 samples"):
        exponent_triple(ball, sanov_rs, x=x)


def test_relative_chamber_matrix_matches_einsum_bytes(sanov_rs, monkeypatch):
    """x^-1 gamma y is formed bit for bit as np.einsum forms it, in every
    row block the table projects, on a Sanov ball at x, y and both, and on
    a float ball full of signed zeros, where a sum of products that did not
    start at +0.0 would keep -0.0."""
    from orbispec import exponents, orbit
    from orbispec.cartan import log_singular_values

    def reference(stack, bx, by):
        if bx is not None:
            stack = np.einsum("ij,njk->nik", bx.inverse().float_blocks()[0], stack)
        if by is not None:
            stack = np.einsum("nij,jk->nik", stack, by.float_blocks()[0])
        return stack

    seen = []

    def recorded(stack):
        seen.append(stack)
        return log_singular_values(stack)

    def assert_blocks_match(want):
        assert sum(map(len, seen)) == len(want)
        start = 0
        for block in seen:
            assert block.tobytes() == want[start:start + len(block)].tobytes()
            start += len(block)

    monkeypatch.setattr(exponents, "log_singular_values", recorded)
    ball, x, y = _based_ball_and_points(8)
    ball_stack = float_image(ball).reshape(-1, 2, 2)
    for px, py in ((x, None), (None, y), (x, y)):
        seen.clear()
        got = chamber_matrix(ball, px, py)
        want = reference(ball_stack, px, py)
        assert len(seen) == len(ball.growth_per_level)  # one block per level
        assert_blocks_match(want)
        assert got.tobytes() == log_singular_values(want).tobytes()

    rng = np.random.default_rng(3)
    stack = rng.standard_normal((4000, 2, 2))
    stack[rng.random(stack.shape) < 0.4] = 0.0
    stack[rng.random(stack.shape) < 0.4] = -0.0
    spec = GroupSpec.sl(2, "float")
    zeros_ball = orbit.OrbitBall(spec, 0, [stack.reshape(-1, 4)], False)
    shear = GroupElement(spec, (((1.0, 1.0), (0.0, 1.0)),))
    monkeypatch.setattr(orbit, "_BLOCK_ROWS", 1024)
    for px, py in ((shear, None), (shear, shear)):
        seen.clear()
        chamber_matrix(zeros_ball, px, py)
        assert len(seen) == 4
        assert_blocks_match(reference(stack, px, py))


def _torsion_sanov_ball(depth):
    """Gamma(2): the Sanov generators and -I, which sits at distance zero."""
    spec = GroupSpec.sl(2)
    minus = GroupElement(spec, (((-1, 0), (0, -1)),))
    return enumerate_ball(GeneratorSet.from_elements(sanov_generators(spec).elements
                                                     + (minus,)), depth)


def _fit_case(case):
    """(ball, x) of a named test case."""
    if case == "sanov_at_x":
        return _based_ball_and_points(8)[:2]
    if case == "product":
        return _product_ball(), None
    return _torsion_sanov_ball(8), None


@pytest.mark.parametrize("case", ["sanov_at_x", "product", "torsion"])
def test_counting_curve_equals_a_sort_of_the_whole_ball(case):
    """Counting within the last radius gives the counts of a sort of every
    element, at default radii, radii ending on an element's distance or
    past the farthest element, and no radii."""
    ball, x = _fit_case(case)
    rs = build_root_system(ball.spec)
    for kind, s in ((KIND_RIEMANNIAN, None), (KIND_POLYHEDRAL, None),
                    (KIND_MIXED, 1.3 * rs.rho_norm)):
        dist = np.sort(distance_table(ball, rs, x).of_kind(kind, s))
        for radii in (None, np.linspace(0.0, dist[dist.size // 2], 9),
                      np.linspace(0.0, dist[-1] + 1.0, 13), np.array([])):
            curve = counting_curve(ball, rs, kind, s, x=x, radii=radii)
            assert curve.counts.dtype == np.int64
            np.testing.assert_array_equal(
                curve.counts, np.searchsorted(dist, curve.radii, side="right"))


@pytest.mark.parametrize("case", ["sanov_at_x", "torsion"])
def test_mixed_fit_equals_a_stable_sort_of_the_whole_ball(case):
    """The weighted mixed count summed within the last radius is bit for
    bit the cumsum over a stable argsort of every element."""
    ball, x = _fit_case(case)
    rs = build_root_system(ball.spec)
    triple = exponent_triple(ball, rs, x=x, radii_step=0.1)
    assert triple.delta_prime.value > rs.rho_norm  # the weighted count ran

    curve_d = counting_curve(ball, rs, KIND_RIEMANNIAN, x=x, radii_step=0.1)
    table = distance_table(ball, rs, x)
    d, dprime = table.d, table.dprime
    order = np.argsort(d, kind="stable")
    cum = np.zeros(len(d) + 1)
    np.cumsum(np.exp(-rs.rho_norm * dprime[order]), out=cum[1:])
    fit = estimate_exponent(replace(curve_d, counts=cum[np.searchsorted(
        d[order], curve_d.radii, side="right")]))
    lo, hi = sorted((triple.delta.value, triple.delta_prime.value))
    got = triple.delta_second
    assert got.value == min(max(rs.rho_norm + fit.value, lo), hi)
    assert (got.window, got.residual, got.complete) == (fit.window, fit.residual, fit.complete)


@pytest.mark.parametrize("case", ["sanov_at_x", "product", "torsion"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scale", [0.5, 1.0, 1.5])
def test_level_partial_sums_equal_bincount_sums(case, kind, scale):
    """Level sums of exp(-s dist), with the mixed distance blended as
    min(s, ||rho||) d' + max(s - ||rho||, 0) d, match np.bincount's bit for
    bit, for s below, at and above ||rho||, and the partial sum over the
    ball is the flat sum of the same terms."""
    ball, x = _fit_case(case)
    rs = build_root_system(ball.spec)
    table = distance_table(ball, rs, x)
    s = scale * rs.rho_norm
    if kind == KIND_MIXED:
        rate, dist = 1.0, (np.minimum(s, rs.rho_norm) * table.dprime
                           + np.maximum(s - rs.rho_norm, 0.0) * table.d)
    else:
        rate, dist = s, table.of_kind(kind)
    terms = np.exp(-rate * dist)
    want = np.cumsum(np.bincount(word_lengths(ball), weights=terms,
                                 minlength=len(ball.growth_per_level)))
    assert np.array_equal(level_partial_sums(ball, rs, kind, s, x), want)
    assert poincare_partial_sum(ball, rs, kind, s, x) == terms.sum()


@pytest.mark.parametrize("case", ["sanov_at_x", "product"])
def test_green_partial_sums_equal_bincount_sums(case):
    """One sweep's partial sums at each zeta match np.bincount's of
    weight * exp(-||rho|| d' - zeta d) bit for bit, the weight d**power
    times the root product, zeroed at distance zero."""
    from orbispec import asymptotics, green_series_diagnostic
    ball, x = _fit_case(case)
    rs = build_root_system(ball.spec)
    table = distance_table(ball, rs, x)
    power = -(rs.rank - 1) / 2.0 - len(rs.positive_roots)
    with np.errstate(divide="ignore"):
        weight = table.d ** power * table.root_product
    weight[table.d <= asymptotics.ZERO_DISTANCE] = 0.0
    zetas = (0.25, 1.0)
    for zeta, got in zip(zetas, green_series_diagnostic(ball, rs, zetas, x=x), strict=True):
        terms = np.exp(-rs.rho_norm * table.dprime - zeta * table.d) * weight
        want = np.cumsum(np.bincount(word_lengths(ball), weights=terms,
                                     minlength=len(ball.growth_per_level)))
        assert np.array_equal(got.partial_sums, want)


def test_green_sweep_leaves_nothing_with_the_table(sanov_rs):
    """A three-zeta sweep on the 118k-element L=10 ball forms its zeta-free
    factors once and drops them on return: under a byte per element is
    still held afterwards (a cache kept with the table held 16)."""
    import tracemalloc
    from orbispec import green_series_diagnostic
    ball = enumerate_ball(sanov_generators(), 10)
    distance_table(ball, sanov_rs)
    tracemalloc.start()
    try:
        diags = green_series_diagnostic(ball, sanov_rs, [0.5, 1.0 / SQRT2, 1.0])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [diag.zeta for diag in diags] == [0.5, 1.0 / SQRT2, 1.0]
    assert held < len(ball)


def test_exponent_fit_allocates_under_two_bytes_per_element(sanov_rs):
    """Past the distance table, a fit on the 118k-element L=10 ball sorts
    and sums only the few hundred elements inside its fit radius; a sort of
    the whole ball allocates 32 bytes per element."""
    import tracemalloc
    ball = enumerate_ball(sanov_generators(), 10)
    distance_table(ball, sanov_rs)
    tracemalloc.start()
    try:
        triple = exponent_triple(ball, sanov_rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert triple.delta_prime.value > sanov_rs.rho_norm  # the weighted count ran
    assert peak < 2 * len(ball)
