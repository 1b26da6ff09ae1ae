"""Volume quadrature, Green envelopes, and heat-bound expressions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from orbispec import (GroupSpec, build_root_system, cartan_density,
                      classical_ball_volume, enumerate_ball, fit_ball_volume,
                      green_asymptotic, green_series_diagnostic, heat_bound,
                      polyhedral_ball_volume)
from orbispec import exponents

from conftest import sanov_generators

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def rs2():
    return build_root_system(GroupSpec.sl(2, "float"))


@pytest.fixture(scope="module")
def rs3():
    return build_root_system(GroupSpec.sl(3, "float"))


def test_density_examples(rs2, rs3):
    assert cartan_density(rs2, np.array([1.0, -1.0])) == pytest.approx(math.sinh(2.0))
    assert cartan_density(rs2, np.array([0.0, 0.0])) == 0.0
    want = math.sinh(1.0) ** 2 * math.sinh(2.0)
    assert cartan_density(rs3, np.array([1.0, 0.0, -1.0])) == pytest.approx(want)


def test_rank_one_volumes_match_closed_form(rs2):
    """Chamber coordinate c gives H = c(1,-1)/sqrt(2), so the polyhedral ball
    of radius r integrates sinh(sqrt(2) c) over [0, r]."""
    for r in (0.3, 1.0, 4.0, 9.0):
        want = (math.cosh(SQRT2 * r) - 1.0) / SQRT2
        assert polyhedral_ball_volume(rs2, r) == pytest.approx(want, rel=1e-6)
        # rank one: the classical ball is the same sublevel set
        assert classical_ball_volume(rs2, r) == pytest.approx(want, rel=1e-6)


def test_rank_two_volume_against_independent_quadrature(rs3):
    """Cross-check the nested chamber quadrature with a hand-built double
    integral in the same extreme-ray coordinates."""
    u1 = np.array([2.0, -1.0, -1.0]) / math.sqrt(6)
    u2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6)
    roots = [np.array([1.0, -1.0, 0.0]), np.array([0.0, 1.0, -1.0]),
             np.array([1.0, 0.0, -1.0])]
    rho = np.array([1.0, 0.0, -1.0])
    a1, a2 = rho @ u1, rho @ u2

    def omega(c1, c2):
        h = c1 * u1 + c2 * u2
        return np.prod([np.sinh(al @ h) for al in roots])

    r = 2.5
    b = SQRT2 * r
    want = quad(lambda c1: quad(lambda c2: omega(c1, c2),
                                0, (b - a1 * c1) / a2, epsrel=1e-10)[0],
                0, b / a1, epsrel=1e-9)[0]
    assert polyhedral_ball_volume(rs3, r) == pytest.approx(want, rel=1e-6)


def test_volumes_positive_increasing(rs3):
    rads = [0.5, 1.0, 2.0, 4.0]
    for fn in (polyhedral_ball_volume, classical_ball_volume):
        vals = [fn(rs3, r) for r in rads]
        assert all(v > 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        polyhedral_ball_volume(rs3, 0.0)


def test_small_radius_degree_is_dimension(rs3):
    fit = fit_ball_volume(rs3, "polyhedral", "small")
    assert fit.fitted_polynomial_degree == pytest.approx(rs3.dim_x, abs=0.3)
    fitc = fit_ball_volume(rs3, "classical", "small")
    assert fitc.fitted_polynomial_degree == pytest.approx(rs3.dim_x, abs=0.3)


def test_large_radius_rates_and_degrees(rs3):
    """Both families grow like e^{2||rho|| r}; the polynomial prefactors
    separate them: rank-1 versus (rank-1)/2."""
    poly = fit_ball_volume(rs3, "polyhedral", "large")
    clas = fit_ball_volume(rs3, "classical", "large")
    assert poly.fitted_exponential_rate == pytest.approx(2 * SQRT2, abs=0.05)
    assert clas.fitted_exponential_rate == pytest.approx(2 * SQRT2, abs=0.05)
    assert poly.fitted_polynomial_degree == pytest.approx(1.0, abs=0.3)
    assert clas.fitted_polynomial_degree == pytest.approx(0.5, abs=0.3)
    assert poly.fitted_polynomial_degree > clas.fitted_polynomial_degree + 0.2


def test_volume_quadrature_rank_cap():
    rs4 = build_root_system(GroupSpec.product((2, 2, 2, 2), "float"))
    with pytest.raises(ValueError, match="rank"):
        polyhedral_ball_volume(rs4, 1.0)


def test_green_small_branch(rs2, rs3):
    v = np.array([1.0, -1.0]) / SQRT2 * 0.1
    assert np.linalg.norm(v) == pytest.approx(0.1)
    assert green_asymptotic(rs2, 1.0, v) == pytest.approx(math.log(10.0))
    v3 = np.array([1.0, 0.0, -1.0]) / SQRT2 * 0.1
    assert green_asymptotic(rs3, 1.0, v3) == pytest.approx(0.1 ** (-(rs3.dim_x - 2)))
    with pytest.raises(ValueError):
        green_asymptotic(rs3, 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        green_asymptotic(rs3, 0.0, v3)


def test_green_ray_log_slope(rs3):
    """Along the unit ray through rho the envelope decays at rate
    <rho, H/||H||> + zeta = sqrt(2) + zeta."""
    direction = np.array([1.0, 0.0, -1.0]) / SQRT2
    zeta = 0.8
    t1, t2 = 40.0, 80.0
    g1 = green_asymptotic(rs3, zeta, t1 * direction)
    g2 = green_asymptotic(rs3, zeta, t2 * direction)
    slope = (math.log(g2) - math.log(g1)) / (t2 - t1)
    assert slope == pytest.approx(-(SQRT2 + zeta), abs=5e-2)


def test_green_monotone_in_zeta(rs3):
    v = np.array([2.0, 0.5, -2.5])
    vals = [green_asymptotic(rs3, z, v) for z in (0.3, 0.8, 1.5, 3.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_green_series_trivial_group(rs2):
    from orbispec import GeneratorSet, GroupElement
    spec = rs2.spec
    ball = enumerate_ball(GeneratorSet.trivial(spec), 1)
    e = math.e
    x = GroupElement(spec, (((e, 0.0), (0.0, 1.0 / e)),))
    diag = green_series_diagnostic(ball, rs2, 1.0, x=x)
    assert diag.verdict == "converging"
    assert diag.partial_sums[-1] > 0


def test_green_series_dichotomy_small_ball():
    """Lattice threshold zeta* = 1/sqrt(2): clearly above converges, clearly
    below diverges, already at moderate depth."""
    spec = GroupSpec.sl(2)
    rs = build_root_system(spec)
    ball = enumerate_ball(sanov_generators(spec), 10)
    assert green_series_diagnostic(ball, rs, 1.0).verdict == "converging"
    assert green_series_diagnostic(ball, rs, 0.3).verdict == "diverging"
    sums = green_series_diagnostic(ball, rs, 0.5).partial_sums
    assert np.all(np.diff(sums) >= 0)


def test_green_terms_bracketed_by_poincare_terms():
    """Term by term on the rank-one ball, for d >= 1: the Green summand is at
    most (sqrt(2) + 1) times the polyhedral summand at rate ||rho|| + zeta
    (the prefactor (1 + sqrt(2) d)/d is decreasing, so its value at d = 1
    bounds it), and at least the Riemannian summand at rate
    ||rho|| + zeta + eps."""
    import numpy as np
    spec = GroupSpec.sl(2)
    rs = build_root_system(spec)
    ball = enumerate_ball(sanov_generators(spec), 8)
    h = exponents.relative_chamber_matrix(ball)
    d = np.linalg.norm(h, axis=1)
    keep = d >= 1.0
    d = d[keep]
    dprime = h[keep] @ rs.rho / rs.rho_norm
    zeta, eps = 1.0, 0.5
    pref = 1.0 + h[keep] @ rs.positive_roots[0]
    green = pref * d**-1.0 * np.exp(-rs.rho_norm * dprime - zeta * d)
    upper = (SQRT2 + 1.0) * np.exp(-(rs.rho_norm + zeta) * dprime)
    lower = np.exp(-(rs.rho_norm + zeta + eps) * d)
    assert np.all(green <= upper * (1 + 1e-12))
    assert np.all(green >= lower * (1 - 1e-12))


def _inline_green_sums(ball, rs, zeta, x=None):
    """Partial sums of the Green envelope terms, each written out as the
    envelope formula reads, over the elements at nonzero distance."""
    table = exponents.distance_table(ball, rs, x)
    keep = table.d > exponents.ZERO_DISTANCE
    keep = slice(None) if keep.all() else keep
    d, dprime, chamber = table.d[keep], table.dprime[keep], table.chamber[keep]
    prefactor = np.ones_like(d)
    for alpha in rs.positive_roots:
        prefactor *= 1.0 + chamber @ alpha
    power = -(rs.rank - 1) / 2.0 - len(rs.positive_roots)
    terms = prefactor * d**power * np.exp(-rs.rho_norm * dprime - zeta * d)
    return np.cumsum(np.bincount(ball.word_lengths[keep], weights=terms,
                                 minlength=len(ball.growth_per_level)))


def test_green_sums_bit_identical_to_inline_envelope(monkeypatch):
    """The zeta-free factors computed once per distance table give the
    inline sums bit for bit: on the Sanov ball without a base point (the
    identity is skipped), with base point x (nothing skipped, and the cache
    of the first table is not reused), and on a ball with torsion, whose
    skipped elements sit at word lengths 0, 1 and 2.  A second sweep over a
    ball builds no new distance table."""
    from orbispec import GeneratorSet, GroupElement
    spec = GroupSpec.sl(2)
    rs = build_root_system(spec)
    x = GroupElement(spec, (((2, 1), (1, 1)),))
    torsion = GeneratorSet.from_elements([GroupElement(spec, (((0, -1), (1, 0)),)),
                                          GroupElement(spec, (((1, 1), (0, 1)),))])
    sanov = enumerate_ball(sanov_generators(spec), 8)
    cases = [(sanov, None, [0]), (sanov, x, []),
             (enumerate_ball(torsion, 8), None, [0, 1, 1, 2])]
    zetas = (0.3, 1.0 / SQRT2, 1.0, 2.5)
    for ball, base, skipped_levels in cases:
        table = exponents.distance_table(ball, rs, base)
        skipped = table.d <= exponents.ZERO_DISTANCE
        assert sorted(ball.word_lengths[skipped]) == skipped_levels
        for zeta in zetas:
            got = green_series_diagnostic(ball, rs, zeta, x=base).partial_sums
            assert np.array_equal(got, _inline_green_sums(ball, rs, zeta, base)), zeta
    assert not np.array_equal(green_series_diagnostic(sanov, rs, 1.0).partial_sums,
                              green_series_diagnostic(sanov, rs, 1.0, x=x).partial_sums)

    builds = []
    build = exponents.relative_chamber_matrix
    monkeypatch.setattr(exponents, "relative_chamber_matrix",
                        lambda *a: builds.append(a) or build(*a))
    for ball, base, _ in cases:
        for zeta in zetas:
            green_series_diagnostic(ball, rs, zeta, x=base)
    assert builds == []
    assert len(sanov.tables) == 2


def test_heat_bound_case_i_trivial(rs2):
    """Trivial group, x = y, t = 1, pseudo-dimension n: every factor but
    e^{-||rho||^2 t} collapses to one."""
    val = heat_bound(rs2, "i", t=1.0, delta_second=0.0, s=0.5 * rs2.rho_norm,
                     psecond=1.0, pseudo_dim=rs2.dim_x)
    assert val == pytest.approx(math.exp(-rs2.rho_norm**2))
    # default pseudo-dimension is rank + 2 * #reduced roots = 3 for SL(2)
    val_default = heat_bound(rs2, "i", t=1.0, delta_second=0.0,
                             s=0.5 * rs2.rho_norm, psecond=1.0)
    assert val_default == pytest.approx(math.exp(-rs2.rho_norm**2) * 2 ** -0.5)


def test_heat_bound_case_ii_long_time_slope(rs2):
    """(log b(2t) - log b(t)) / t approaches -(||rho||^2 - s2^2); the
    remaining t^{-n/2} correction decays like log(2)/t."""
    rho = rs2.rho_norm
    ds = 1.2 * rho
    s1, s2 = 0.4 * rho, 0.8 * rho
    t = 1000.0
    b1 = heat_bound(rs2, "ii", t=t, delta_second=ds, s1=s1, s2=s2, psecond=2.0)
    b2 = heat_bound(rs2, "ii", t=2 * t, delta_second=ds, s1=s1, s2=s2, psecond=2.0)
    slope = (math.log(b2) - math.log(b1)) / t
    assert slope == pytest.approx(-(rho**2 - s2**2), abs=2e-3)


def test_heat_bound_case_iii_rate_matches_lambda0(rs2):
    """With eps -> 0 the long-time decay rate of case iii approaches the
    characterization value of the spectral bottom."""
    from orbispec import lambda0_characterization
    rho = rs2.rho_norm
    ds = 1.5 * rho
    lam = lambda0_characterization(rho, ds)
    eps = 1e-6
    t = 300.0
    b1 = heat_bound(rs2, "iii", t=t, delta_second=ds, s=ds + 0.1, eps=eps,
                    psecond_x=1.5, psecond_y=2.5)
    b2 = heat_bound(rs2, "iii", t=2 * t, delta_second=ds, s=ds + 0.1, eps=eps,
                    psecond_x=1.5, psecond_y=2.5)
    rate = -(math.log(b2) - math.log(b1)) / t
    assert rate == pytest.approx(lam, abs=5e-3)


def test_heat_bound_parameter_validation(rs2):
    rho = rs2.rho_norm
    with pytest.raises(ValueError):
        heat_bound(rs2, "i", t=1.0, delta_second=0.6 * rho, s=0.5 * rho, psecond=1.0)
    with pytest.raises(ValueError):
        heat_bound(rs2, "ii", t=1.0, delta_second=1.2 * rho,
                   s1=0.9 * rho, s2=0.5 * rho, psecond=1.0)
    with pytest.raises(ValueError):
        heat_bound(rs2, "ii", t=1.0, delta_second=0.5 * rho,
                   s1=0.2 * rho, s2=0.4 * rho, psecond=1.0)
    with pytest.raises(ValueError):
        heat_bound(rs2, "iii", t=1.0, delta_second=1.2 * rho, s=rho, eps=0.1,
                   psecond_x=1.0, psecond_y=1.0)
    with pytest.raises(ValueError):
        heat_bound(rs2, "iii", t=1.0, delta_second=1.2 * rho, s=1.5 * rho, eps=-0.1,
                   psecond_x=1.0, psecond_y=1.0)
    with pytest.raises(ValueError):
        heat_bound(rs2, "nope", t=1.0, delta_second=0.0)
