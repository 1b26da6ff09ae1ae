"""Spectral-bottom formulas against plug-in oracles and admissible grids."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbispec import (consistency_check, lambda0_characterization,
                      lambda0_lower_polyhedral, lambda0_two_sided_bounds)

SQRT2 = math.sqrt(2.0)


def oracle_characterization(rho, ds):
    # independent piecewise plug-in
    if ds <= rho:
        return rho * rho
    return rho * rho - (ds - rho) ** 2


def oracle_bounds(rho, rmin, d):
    if d <= rmin:
        lower = rho * rho
    else:
        lower = max(0.0, rho * rho - (d - rmin) ** 2)
    if d <= rho:
        upper = rho * rho
    else:
        upper = rho * rho - (d - rho) ** 2
    return lower, upper


def admissible_tuples(rng, count):
    """Exponent tuples consistent with all three statements at once.

    Joint consistency of the exact value with the classical lower bound
    forces delta_second <= ||rho|| + max(delta - rho_min, 0), on top of the
    ordering delta <= delta_second <= delta_prime <= 2 ||rho||.
    """
    out = []
    while len(out) < count:
        rho = rng.uniform(0.5, 2.0)
        rmin = rng.uniform(0.2, 1.0) * rho
        d = rng.uniform(0.0, 2.0 * rho)
        ds_hi = min(2.0 * rho, rho + max(d - rmin, 0.0))
        if ds_hi < d:
            continue
        ds = rng.uniform(d, ds_hi)
        dp = rng.uniform(ds, 2.0 * rho)
        out.append((rho, rmin, d, dp, ds))
    return out


def test_characterization_examples():
    assert lambda0_characterization(math.sqrt(0.5), 0.0) == pytest.approx(0.5)
    assert lambda0_characterization(1.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert lambda0_characterization(1.0, 1 + 1 / SQRT2) == pytest.approx(0.5)


def test_characterization_clips_with_warning():
    with pytest.warns(UserWarning, match="clipping"):
        v = lambda0_characterization(1.0, 2.3)
    assert v == pytest.approx(0.0, abs=1e-14)
    with pytest.warns(UserWarning):
        v = lambda0_characterization(1.0, -0.2)
    assert v == pytest.approx(1.0)


def test_two_sided_bounds_examples():
    rho = 1.0
    rmin = 1 / SQRT2
    assert lambda0_two_sided_bounds(rho, rmin, 0.5) == (1.0, 1.0)
    lo, hi = lambda0_two_sided_bounds(rho, rmin, SQRT2)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(1 - (SQRT2 - 1) ** 2)
    assert lambda0_two_sided_bounds(rho, rmin, 2.0) == pytest.approx((0.0, 0.0))
    with pytest.raises(ValueError):
        lambda0_two_sided_bounds(1.0, 0.0, 1.0)


def test_lower_polyhedral_examples():
    assert lambda0_lower_polyhedral(1.0, 0.7) == pytest.approx(1.0)
    assert lambda0_lower_polyhedral(1.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert lambda0_lower_polyhedral(1.0, 1.5) == pytest.approx(0.75)


@settings(max_examples=300)
@given(st.floats(0.3, 3.0), st.floats(0.0, 1.0))
def test_characterization_matches_oracle(rho, frac):
    ds = 2.0 * rho * frac
    assert lambda0_characterization(rho, ds) == pytest.approx(
        oracle_characterization(rho, ds), abs=1e-12)


@settings(max_examples=300)
@given(st.floats(0.3, 3.0), st.floats(0.05, 1.0), st.floats(0.0, 1.0))
def test_bounds_match_oracle(rho, rmin_frac, dfrac):
    rmin = rmin_frac * rho
    d = 2.0 * rho * dfrac
    got = lambda0_two_sided_bounds(rho, rmin, d)
    want = oracle_bounds(rho, rmin, d)
    assert got[0] == pytest.approx(want[0], abs=1e-12)
    assert got[1] == pytest.approx(want[1], abs=1e-12)
    assert 0.0 <= got[0] <= got[1] <= rho * rho + 1e-12


def test_characterization_continuous_monotone():
    rho = SQRT2
    vals = np.array([lambda0_characterization(rho, t)
                     for t in np.linspace(0.0, 2.0 * rho, 2001)])
    assert np.all(np.diff(vals) <= 1e-12)          # non-increasing
    assert abs(vals.max() - rho * rho) < 1e-12     # range top
    assert abs(vals.min()) < 1e-12                 # lattice endpoint
    steps = np.abs(np.diff(vals))
    assert steps.max() < 0.01                      # no jump at the branch point


def test_rank_one_reduction():
    """With rho_min = ||rho|| and one exponent, all statements coincide."""
    rho = 1 / SQRT2
    for d in np.linspace(0.0, 2 * rho, 9):
        lam = lambda0_characterization(rho, d)
        lo, hi = lambda0_two_sided_bounds(rho, rho, d)
        assert lo == pytest.approx(lam, abs=1e-12)
        assert hi == pytest.approx(lam, abs=1e-12)
        assert lambda0_lower_polyhedral(rho, d) == pytest.approx(lam, abs=1e-12)


def test_consistency_product_example():
    rep = consistency_check(1.0, 1 / SQRT2, SQRT2, 2.0, 1 + 1 / SQRT2)
    assert rep.consistent
    assert rep.lambda0_exact == pytest.approx(0.5)
    lo, hi = rep.lambda0_interval
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == pytest.approx(0.8284271247, abs=1e-6)
    # the polyhedral lower bound is weaker than the classical one here
    assert lambda0_lower_polyhedral(1.0, 2.0) < lo


def test_consistency_lattice_endpoint():
    rho = 1 / SQRT2
    rep = consistency_check(rho, rho, 2 * rho, 2 * rho, 2 * rho)
    assert rep.consistent
    assert rep.lambda0_exact == pytest.approx(0.0, abs=1e-12)
    assert rep.lambda0_interval[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.lambda0_interval[1] == pytest.approx(0.0, abs=1e-12)


def test_consistency_flags_violations():
    # delta_second far above what the classical lower bound tolerates
    rep = consistency_check(1.0, 0.9, 1.0, 2.0, 1.9)
    assert not rep.consistent
    assert rep.lambda0_exact is None
    assert rep.notes


def test_consistency_statements_equal_public_formulas():
    rng = np.random.default_rng(7)
    tuples = admissible_tuples(rng, 200) + [
        (1.0, 0.8, -0.3, -0.1, -0.02), (1.0, 0.8, 2.4, 2.01, 2.6),
        (1 / SQRT2, 1 / SQRT2, 2.341, 2.341, 2.341), (SQRT2, 1.0, -0.04, 3.0, 2.9),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rho, rmin, d, dp, ds in tuples:
            got = consistency_check(rho, rmin, d, dp, ds).statements
            assert got["characterization"] == lambda0_characterization(rho, ds)
            assert tuple(got["two_sided_interval"]) == lambda0_two_sided_bounds(rho, rmin, d)
            assert got["polyhedral_lower"] == lambda0_lower_polyhedral(rho, dp)


def test_consistency_clips_each_exponent_once():
    rho = 1 / SQRT2  # 2 ||rho|| = 1.414
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        consistency_check(rho, rho, 2.341, 2.341, 2.341)
    assert [str(w.message).split()[0] for w in caught] == ["delta", "delta_prime",
                                                           "delta_second"]


def test_consistency_notes_each_clipped_exponent():
    rho = 1 / SQRT2  # 2 ||rho|| = 1.414
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = consistency_check(rho, rho, 2.341, -0.02, 1.2)
    assert rep.notes[:2] == ("delta estimate 2.341 clipped into [0, 1.41421]",
                             "delta_prime estimate -0.02 clipped into [0, 1.41421]")
    assert not any("delta_second" in note for note in rep.notes)


def test_characterization_inside_intersection_on_grid():
    rng = np.random.default_rng(42)
    for rho, rmin, d, dp, ds in admissible_tuples(rng, 200):
        lam = lambda0_characterization(rho, ds)
        lo2, hi2 = lambda0_two_sided_bounds(rho, rmin, d)
        lo3 = lambda0_lower_polyhedral(rho, dp)
        assert max(lo2, lo3) - 1e-9 <= lam <= min(hi2, rho * rho) + 1e-9
        rep = consistency_check(rho, rmin, d, dp, ds)
        assert rep.consistent
        assert rep.lambda0_interval[0] <= lam + 1e-12
        assert lam - 1e-12 <= rep.lambda0_interval[1]
