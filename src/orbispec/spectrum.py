"""Bottom of the L2 spectrum of the Laplacian from critical exponents.

All three relations share the quadratic shape ||rho||^2 - (exponent -
offset)^2 and differ in which exponent and offset enter:

* exact value   lambda0 = ||rho||^2 - (max(delta_mixed - ||rho||, 0))^2,
* two-sided bounds from the Riemannian exponent with offsets rho_min
  (lower) and ||rho|| (upper),
* an improved lower bound with the polyhedral exponent and offset ||rho||.

The functions evaluate those closed forms; no PDE is solved anywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

# estimate noise per exponent that consistency_check allows for
EST_TOL = 0.05


@dataclass(frozen=True)
class SpectrumReport:
    """Combined spectral-bottom report with the inputs that produced it and
    the three statements evaluated on them."""

    lambda0_exact: float | None
    lambda0_interval: tuple[float, float]
    inputs: dict
    statements: dict
    theorem_tags: tuple[str, ...]
    consistent: bool
    notes: tuple[str, ...]


def clip_exponent(value: float, rho_norm: float, name: str = "exponent") -> float:
    """Clip a fitted exponent into [0, 2*||rho||], warning when it falls
    outside.  Endpoints are meaningful (trivial group, lattice), so slightly
    out-of-range fits are snapped rather than rejected."""
    hi = 2.0 * rho_norm
    if value < 0.0 or value > hi:
        warnings.warn(
            f"{name} estimate {value:.6g} outside [0, {hi:.6g}]; clipping",
            stacklevel=2,
        )
        return min(max(value, 0.0), hi)
    return float(value)


def _quadratic(rho_norm: float, exponent: float, offset: float) -> float:
    """||rho||^2 - (exponent - offset)^2 once the exponent exceeds the
    offset, ||rho||^2 up to it."""
    return rho_norm**2 - max(exponent - offset, 0.0) ** 2


def _check_rho_min(rho_norm: float, rho_min: float) -> None:
    if not 0 < rho_min <= rho_norm + 1e-12:
        raise ValueError(f"rho_min must lie in (0, ||rho||], got {rho_min}")


def _two_sided(rho_norm: float, rho_min: float, delta: float) -> tuple[float, float]:
    return (float(max(0.0, _quadratic(rho_norm, delta, rho_min))),
            float(_quadratic(rho_norm, delta, rho_norm)))


def lambda0_characterization(rho_norm: float, delta_second: float) -> float:
    """Exact spectral bottom from the mixed exponent.

    Continuous at delta_second = ||rho||, equal to ||rho||^2 below it and to
    0 at the lattice endpoint 2*||rho||.  In rank one the mixed exponent
    coincides with the Riemannian one, recovering the classical rank-one
    formula.
    """
    return _quadratic(rho_norm, clip_exponent(delta_second, rho_norm, "delta_second"), rho_norm)


def lambda0_two_sided_bounds(rho_norm: float, rho_min: float, delta: float) -> tuple[float, float]:
    """Two-sided bounds from the Riemannian exponent.

    Lower bound max(0, ||rho||^2 - (delta - rho_min)^2) once delta exceeds
    rho_min, upper bound ||rho||^2 - (delta - ||rho||)^2 once delta exceeds
    ||rho||; the four-case interval follows.
    """
    _check_rho_min(rho_norm, rho_min)
    return _two_sided(rho_norm, rho_min, clip_exponent(delta, rho_norm, "delta"))


def lambda0_lower_polyhedral(rho_norm: float, delta_prime: float) -> float:
    """Improved lower bound from the polyhedral exponent."""
    return _quadratic(rho_norm, clip_exponent(delta_prime, rho_norm, "delta_prime"), rho_norm)


def consistency_check(rho_norm: float, rho_min: float, delta: float,
                      delta_prime: float, delta_second: float) -> SpectrumReport:
    """Cross-check the three spectral statements on one exponent triple.

    The exact value must land in the intersection of the two-sided interval
    with the polyhedral lower half-line; the bounds are not mutually nested
    (the polyhedral lower bound can be weaker than the Riemannian one when
    delta_prime far exceeds delta), hence intersection rather than nesting.
    Estimate noise of EST_TOL per exponent is propagated exactly through the
    monotone closed forms by loosening each bound at a shifted exponent.
    Each estimate is clipped once, so an out-of-range one warns once and
    leaves one note with its name, raw value and range.
    """
    _check_rho_min(rho_norm, rho_min)
    notes = []

    def clipped(value, name):
        if value < 0.0 or value > 2.0 * rho_norm:
            notes.append(f"{name} estimate {value:.6g} clipped into [0, {2.0 * rho_norm:.6g}]")
        return clip_exponent(value, rho_norm, name)

    d = clipped(delta, "delta")
    dp = clipped(delta_prime, "delta_prime")
    ds = clipped(delta_second, "delta_second")
    lam_exact = _quadratic(rho_norm, ds, rho_norm)
    lower2, upper2 = _two_sided(rho_norm, rho_min, d)
    lower3 = _quadratic(rho_norm, dp, rho_norm)
    tight_lo = max(lower2, lower3)

    # every exponent is an estimate; loosen each formula at the raw estimate
    # +- EST_TOL, back in range (all are non-increasing, so this is exact)
    def shifted(value, sign):
        return min(max(value + sign * EST_TOL, 0.0), 2 * rho_norm)

    loose_lo = max(_two_sided(rho_norm, rho_min, shifted(delta, 1))[0],
                   _quadratic(rho_norm, shifted(delta_prime, 1), rho_norm))
    loose_hi = _two_sided(rho_norm, rho_min, shifted(delta, -1))[1]
    lam_lo = _quadratic(rho_norm, shifted(delta_second, 1), rho_norm)
    lam_hi = _quadratic(rho_norm, shifted(delta_second, -1), rho_norm)

    consistent = lam_hi >= loose_lo - 1e-12 and lam_lo <= loose_hi + 1e-12
    if not consistent:
        notes.append(
            f"characterization range [{lam_lo:.6g}, {lam_hi:.6g}] misses the "
            f"loosened interval [{loose_lo:.6g}, {loose_hi:.6g}]"
        )

    if consistent:
        interval = (min(tight_lo, lam_exact), max(upper2, lam_exact))
        exact: float | None = lam_exact
    else:
        interval = (tight_lo, max(upper2, tight_lo))
        exact = None
        notes.append("exact value withheld; bounds interval reported alone")

    return SpectrumReport(
        lambda0_exact=exact,
        lambda0_interval=(float(interval[0]), float(interval[1])),
        inputs={
            "rho_norm": float(rho_norm),
            "rho_min": float(rho_min),
            "delta": float(delta),
            "delta_prime": float(delta_prime),
            "delta_second": float(delta_second),
        },
        statements={
            "characterization": lam_exact,
            "two_sided_interval": [lower2, upper2],
            "polyhedral_lower": lower3,
        },
        theorem_tags=(
            "characterization-from-mixed-exponent",
            "two-sided-bounds-from-riemannian-exponent",
            "lower-bound-from-polyhedral-exponent",
        ),
        consistent=consistent,
        notes=tuple(notes),
    )
