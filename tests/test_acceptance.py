"""Acceptance suite.

One test per acceptance criterion, each printing a `[criterion N] PASS/FAIL`
line and asserting the stated tolerances and runtime budgets, and beside
them the pressure-zero estimates pinned to known exponents.  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from orbispec import (GeneratorSet, GroupElement, GroupSpec, KIND_MIXED,
                      KIND_POLYHEDRAL, KIND_RIEMANNIAN, build_root_system,
                      classical_ball_volume, consistency_check, enumerate_ball,
                      exponent_triple, fit_ball_volume, green_series_diagnostic,
                      lambda0_characterization, lambda0_lower_polyhedral,
                      lambda0_two_sided_bounds, log_singular_values,
                      polyhedral_ball_volume, pressure_exponent, trust_radius)

from orbispec.exponents import distance_table

from conftest import orthonormal_sym2_generators, random_sl3_words, sanov_generators

SQRT2 = math.sqrt(2.0)


def _report(num: int, desc: str, checks: list[tuple[bool, str]], elapsed: float,
            budget: float) -> None:
    checks = checks + [(elapsed < budget, f"runtime {elapsed:.1f}s < {budget:.0f}s")]
    ok = all(c for c, _ in checks)
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    for good, msg in checks:
        print(f"    {'ok ' if good else 'BAD'} {msg}")
    assert ok, line + " :: " + "; ".join(m for g, m in checks if not g)


@pytest.fixture(scope="module")
def sl3_samples():
    rng = np.random.default_rng(1234)
    n = 10_000
    return tuple(random_sl3_words(rng, n).astype(float) for _ in range(3))


@pytest.fixture(scope="module")
def congruence_ball_14():
    t0 = time.monotonic()
    ball = enumerate_ball(sanov_generators(), 14)
    # charge the Cartan pass to the build as well
    distance_table(ball, build_root_system(ball.spec))
    return ball, time.monotonic() - t0


def _chamber(mats):
    return log_singular_values(np.asarray(mats))


def test_criterion_1_metric_axioms(sl3_samples):
    t0 = time.monotonic()
    rs = build_root_system(GroupSpec.sl(3))
    xs, ys, zs = sl3_samples

    def dprime(a, b):
        return _chamber(np.linalg.solve(b, a)) @ rs.rho / rs.rho_norm

    sym_gap = np.abs(dprime(xs, ys) - dprime(ys, xs)).max()
    tri_gap = (dprime(xs, zs) - dprime(xs, ys) - dprime(ys, zs)).max()
    hx, hy = _chamber(xs), _chamber(ys)
    hxy = _chamber(np.einsum("nij,njk->nik", xs, ys))
    co_gap = max((hxy @ lam - hx @ lam - hy @ lam).max()
                 for lam in rs.fundamental_weights)
    _report(1, "polyhedral distance is a metric and the Cartan projection "
               "is subadditive on 10^4 SL(3) samples",
            [(sym_gap <= 1e-9, f"symmetry gap {sym_gap:.2e} <= 1e-9"),
             (tri_gap <= 1e-9, f"triangle gap {tri_gap:.2e} <= 1e-9"),
             (co_gap <= 1e-9, f"subadditivity gap {co_gap:.2e} <= 1e-9 "
                              f"for both fundamental weights")],
            time.monotonic() - t0, 30.0)


def test_criterion_2_sandwich_inequalities(sl3_samples):
    t0 = time.monotonic()
    rs = build_root_system(GroupSpec.sl(3))
    ratio = rs.rho_min / rs.rho_norm
    xs, ys, _ = sl3_samples
    h = _chamber(np.linalg.solve(ys, xs))
    dd = np.linalg.norm(h, axis=1)
    dp = h @ rs.rho / rs.rho_norm
    lower_gap = (ratio * dd - dp).max()
    upper_gap = (dp - dd).max()
    mixed_ok = True
    for s in (0.3, rs.rho_norm, 1.7, 2 * rs.rho_norm):
        dm = np.minimum(s, rs.rho_norm) * dp + np.maximum(s - rs.rho_norm, 0.0) * dd
        mixed_ok &= bool(np.all(s * dp <= dm + 1e-9) and np.all(dm <= s * dd + 1e-9))
    _report(2, "distance comparison sandwiches on the criterion-1 samples",
            [(abs(ratio - 0.86603) < 1e-5, f"constant rho_min/||rho|| = {ratio:.6f} "
                                           f"matches sqrt(6)/2/sqrt(2)"),
             (lower_gap <= 1e-9, f"lower sandwich gap {lower_gap:.2e} <= 1e-9"),
             (upper_gap <= 1e-9, f"upper sandwich gap {upper_gap:.2e} <= 1e-9"),
             (mixed_ok, "mixed-distance sandwich holds for s in "
                        "{0.3, ||rho||, 1.7, 2||rho||}")],
            time.monotonic() - t0, 30.0)


def test_criterion_3_lattice_endpoint(congruence_ball_14):
    ball, build_time = congruence_ball_14
    t0 = time.monotonic()
    rs = build_root_system(GroupSpec.sl(2))
    triple = exponent_triple(ball, rs)
    delta = triple.delta.value
    lam = lambda0_characterization(rs.rho_norm, triple.delta_second.value)
    _report(3, "level-2 congruence subgroup at word length 14: lattice endpoint",
            [(len(ball) == 9_565_937, f"ball size {len(ball)} (free rank 2 to depth 14)"),
             (abs(delta - SQRT2) <= 0.15 * SQRT2,
              f"delta {delta:.4f} within 15% of sqrt(2) = {SQRT2:.4f}"),
             (lam <= 0.1, f"lambda0 {lam:.4f} <= 0.1 from the clipped estimate")],
            build_time + (time.monotonic() - t0), 30.0)


def test_criterion_4_polynomial_growth_endpoint():
    t0 = time.monotonic()
    spec = GroupSpec.sl(2, "float")
    rs = build_root_system(spec)
    e = math.e
    gens = GeneratorSet.from_elements(
        [GroupElement(spec, (((e, 0.0), (0.0, 1.0 / e)),))])
    ball = enumerate_ball(gens, 24)
    triple = exponent_triple(ball, rs)
    lam = lambda0_characterization(rs.rho_norm, triple.delta_second.value)
    # closed form N_R = 2 floor(R/sqrt(2)) + 1 against the enumerated counts
    d = np.sort(distance_table(ball, rs).d)
    radii = np.arange(0.25, trust_radius(ball, rs), 0.25)
    counts = np.searchsorted(d, radii, side="right")
    closed = 2 * np.floor(radii / SQRT2) + 1
    _report(4, "cyclic diagonal subgroup: zero exponent, full spectral bottom",
            [(bool(np.all(counts == closed)), "N_R matches 2*floor(R/sqrt(2)) + 1 "
                                              "below the trust radius"),
             (triple.delta.value <= 0.1, f"delta {triple.delta.value:.4f} <= 0.1"),
             (lam == rs.rho_norm**2 and abs(lam - 0.5) < 1e-12,
              f"lambda0 = ||rho||^2 = {lam} exactly")],
            time.monotonic() - t0, 1.0)


def test_criterion_5_product_separation():
    t0 = time.monotonic()
    spec = GroupSpec.product((2, 2))
    rs = build_root_system(spec)
    eye = ((1, 0), (0, 1))
    a = GroupElement(spec, (((1, 2), (0, 1)), eye))
    b = GroupElement(spec, (((1, 0), (2, 1)), eye))
    ball = enumerate_ball(GeneratorSet.from_elements([a, b]), 14)
    triple = exponent_triple(ball, rs)
    d, ds, dp = triple.values
    lam = lambda0_characterization(rs.rho_norm, ds)
    lo2, hi2 = lambda0_two_sided_bounds(rs.rho_norm, rs.rho_min, d)
    rep = consistency_check(rs.rho_norm, rs.rho_min, d, dp, ds)
    target_ds = 1.0 + 1.0 / SQRT2
    _report(5, "congruence factor times a point in SL(2)^2: strict exponent "
               "separation and the pinned spectral value",
            [(abs(d - SQRT2) <= 0.2, f"delta {d:.4f} = sqrt(2) +- 0.2"),
             (abs(dp - 2.0) <= 0.2, f"delta_polyhedral {dp:.4f} = 2 +- 0.2"),
             (abs(ds - target_ds) <= 0.2,
              f"delta_mixed {ds:.4f} = 1 + 1/sqrt(2) = {target_ds:.5f} +- 0.2"),
             (ds - d >= 0.1 and dp - ds >= 0.1,
              f"strict ordering with gaps {ds - d:.3f}, {dp - ds:.3f} >= 0.1"),
             (abs(lam - 0.5) <= 0.25, f"lambda0 {lam:.4f} = 0.5 +- 0.25 "
                                      f"(product value 0 + rho_2^2)"),
             (rep.consistent and hi2 - lo2 >= 0.25,
              f"pinned value sits inside the tolerance-widened two-sided "
              f"interval [{lo2:.3f}, {hi2:.3f}] of width {hi2 - lo2:.3f} >= "
              f"0.25: the characterization improves on it")],
            time.monotonic() - t0, 60.0)


def test_pressure_zeros_match_known_exponents():
    """Word-length pressure zeros beside criteria 3 and 5, for every kind:
    within 0.03 of the truth at L = 8 for Gamma(2), the criterion-5 group
    Gamma(2) x {e} (sqrt(2), 1 + 1/sqrt(2) and 2) and the orthonormal sym2
    (sqrt(2)/2); within 0.05 for Gamma(2) x Gamma(2) (2) at L = 8; within
    0.03 on Gamma(2) at L = 11 based at x = [[1,2],[0,1]], y = [[1,0],[2,1]].
    All of them together take under 2 s."""
    t0 = time.monotonic()
    spec2, spec22 = GroupSpec.sl(2), GroupSpec.product((2, 2))
    eye, a, b = ((1, 0), (0, 1)), ((1, 2), (0, 1)), ((1, 0), (2, 1))

    def gens22(*blocks):
        return GeneratorSet.from_elements([GroupElement(spec22, bl) for bl in blocks])

    cases = [
        ("Gamma(2)", sanov_generators(), 8, (SQRT2,) * 3, 0.03, ()),
        ("Gamma(2) x {e}", gens22((a, eye), (b, eye)), 8, (SQRT2, 1 + 1 / SQRT2, 2.0), 0.03, ()),
        ("orthonormal sym2", orthonormal_sym2_generators(), 8, (1 / SQRT2,) * 3, 0.03, ()),
        ("Gamma(2) x Gamma(2)", gens22((a, eye), (b, eye), (eye, a), (eye, b)), 8,
         (2.0,) * 3, 0.05, ()),
        ("Gamma(2) at (x, y)", sanov_generators(), 11, (SQRT2,) * 3, 0.03,
         (GroupElement(spec2, (a,)), GroupElement(spec2, (b,)))),
    ]
    bad = []
    for name, gens, depth, truths, tol, base in cases:
        ball = enumerate_ball(gens, depth)
        rs = build_root_system(ball.spec)
        for kind, truth in zip((KIND_RIEMANNIAN, KIND_MIXED, KIND_POLYHEDRAL), truths):
            value = pressure_exponent(ball, rs, kind, *base).value
            if abs(value - truth) > tol:
                bad.append(f"{name} {kind}: {value:.4f} != {truth:.4f} +- {tol}")
    elapsed = time.monotonic() - t0
    assert not bad, bad
    assert elapsed < 2.0, f"runtime {elapsed:.2f}s >= 2s"


def test_criterion_6_volume_asymptotics():
    t0 = time.monotonic()
    rs3 = build_root_system(GroupSpec.sl(3, "float"))
    poly = fit_ball_volume(rs3, "polyhedral", "large")
    clas = fit_ball_volume(rs3, "classical", "large")
    rs2 = build_root_system(GroupSpec.sl(2, "float"))
    rel_errs = []
    for r in (0.5, 2.0, 6.0, 10.0):
        want = (math.cosh(SQRT2 * r) - 1.0) / SQRT2
        rel_errs.append(abs(polyhedral_ball_volume(rs2, r) - want) / want)
        rel_errs.append(abs(classical_ball_volume(rs2, r) - want) / want)
    _report(6, "ball-volume growth: common exponential rate, distinct "
               "polynomial prefactors, rank-one closed form",
            [(abs(poly.fitted_exponential_rate - 2 * SQRT2) <= 0.05,
              f"polyhedral rate {poly.fitted_exponential_rate:.4f} = 2sqrt(2) +- 0.05"),
             (abs(clas.fitted_exponential_rate - 2 * SQRT2) <= 0.05,
              f"classical rate {clas.fitted_exponential_rate:.4f} = 2sqrt(2) +- 0.05"),
             (abs(poly.fitted_polynomial_degree - 1.0) <= 0.3,
              f"polyhedral degree {poly.fitted_polynomial_degree:.3f} = 1 +- 0.3"),
             (abs(clas.fitted_polynomial_degree - 0.5) <= 0.3,
              f"classical degree {clas.fitted_polynomial_degree:.3f} = 0.5 +- 0.3"),
             (max(rel_errs) <= 1e-6,
              f"rank-one quadrature matches the closed form to {max(rel_errs):.2e}")],
            time.monotonic() - t0, 120.0)


def test_criterion_7_green_dichotomy(congruence_ball_14):
    ball, build_time = congruence_ball_14
    t0 = time.monotonic()
    rs = build_root_system(GroupSpec.sl(2))
    crossing = 1.0 / SQRT2  # delta_mixed - ||rho|| for the lattice endpoint
    offsets = np.arange(-0.3, 0.301, 0.05)
    verdicts = {}
    for off in offsets:
        zeta = crossing + off
        verdicts[round(off, 2)] = green_series_diagnostic(ball, rs, zeta).verdict
    below = [verdicts[round(o, 2)] for o in offsets if o <= -0.1 + 1e-9]
    above = [verdicts[round(o, 2)] for o in offsets if o >= 0.1 - 1e-9]
    _report(7, "periodized Green series flips from diverging to converging "
               "across zeta = delta_mixed - ||rho|| = 1/sqrt(2)",
            [(all(v == "diverging" for v in below),
              f"diverging for zeta <= crossing - 0.1 ({below})"),
             (all(v == "converging" for v in above),
              f"converging for zeta >= crossing + 0.1 ({above})")],
            build_time + (time.monotonic() - t0), 40.0)


def test_criterion_8_formula_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2718)

    def oracle_char(rho, ds):
        return rho * rho if ds <= rho else rho * rho - (ds - rho) ** 2

    def oracle_bounds(rho, rmin, d):
        lower = rho * rho if d <= rmin else max(0.0, rho * rho - (d - rmin) ** 2)
        upper = rho * rho if d <= rho else rho * rho - (d - rho) ** 2
        return lower, upper

    def oracle_lower3(rho, dp):
        return rho * rho if dp <= rho else rho * rho - (dp - rho) ** 2

    worst = 0.0
    inside = True
    count = 0
    while count < 50:
        rho = rng.uniform(0.5, 2.0)
        rmin = rng.uniform(0.2, 1.0) * rho
        d = rng.uniform(0.0, 2.0 * rho)
        ds_hi = min(2.0 * rho, rho + max(d - rmin, 0.0))
        if ds_hi < d:
            continue
        ds = rng.uniform(d, ds_hi)
        dp = rng.uniform(ds, 2.0 * rho)
        count += 1
        lam = lambda0_characterization(rho, ds)
        lo2, hi2 = lambda0_two_sided_bounds(rho, rmin, d)
        lo3 = lambda0_lower_polyhedral(rho, dp)
        worst = max(worst,
                    abs(lam - oracle_char(rho, ds)),
                    abs(lo2 - oracle_bounds(rho, rmin, d)[0]),
                    abs(hi2 - oracle_bounds(rho, rmin, d)[1]),
                    abs(lo3 - oracle_lower3(rho, dp)))
        inside &= max(lo2, lo3) - 1e-9 <= lam <= min(hi2, rho * rho) + 1e-9
    _report(8, "closed-form suite agrees with hand oracles on a 50-point "
               "admissible grid",
            [(worst <= 1e-12, f"worst oracle deviation {worst:.2e} <= 1e-12"),
             (inside, "characterization value lies in the intersection of the "
                      "two-sided interval and the polyhedral half-line at "
                      "every grid point")],
            time.monotonic() - t0, 1.0)
