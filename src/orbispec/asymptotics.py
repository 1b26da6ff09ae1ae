"""Volume growth, Green-function envelopes, and heat-bound evaluators.

Every asymptotic relation here is two-sided with unspecified constants, so
representative expressions are evaluated with constant 1 and all tests and
fits assert growth rates and polynomial degrees, never absolute values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
# relative_chamber_matrix stays bound here, unused, because perfbench/spans.py
# wraps it by module name to count distance-table builds
from .exponents import (DistanceTable, _least_squares, distance_table,  # noqa: F401
                        relative_chamber_matrix)
from .liecore import ChamberVector, RootSystemData
from .orbit import OrbitBall

# Green-function branch point between the small-argument singularity and the
# exponential large-argument envelope
GREEN_BRANCH_NORM = 0.5

QUAD_EVAL_CAP = 10_000_000
QUAD_EPSREL = 1e-7

# thresholds of the verdict in green_series_diagnostic
GREEN_STRONG_REL_TOL = 1e-3
GREEN_TREND_TOL = 0.02
GREEN_TREND_LEVELS = 5

# the Green series skips the terms at distance at most this, where the
# envelope is singular
ZERO_DISTANCE = 1e-12

SMALL_RADII_DEFAULT = np.geomspace(0.05, 0.2, 10)
LARGE_RADII_DEFAULT = np.linspace(10.0, 30.0, 21)


@dataclass(frozen=True)
class VolumeFit:
    """Fitted growth of a ball-volume curve in one radius regime."""

    radii: np.ndarray
    log_volumes: np.ndarray
    fitted_exponential_rate: float
    fitted_polynomial_degree: float
    regime: str


@dataclass(frozen=True)
class GreenSeriesDiagnostic:
    """Per-level partial sums of the periodized Green series at one zeta."""

    zeta: float
    partial_sums: np.ndarray
    verdict: str
    trend_slope: float


def _coords(rs: RootSystemData, H) -> np.ndarray:
    if isinstance(H, ChamberVector):
        return H.coords
    return ChamberVector(rs.spec, np.asarray(H, dtype=float)).coords


def cartan_density(rs: RootSystemData, H) -> float:
    """Density of the Cartan integration formula: the product of
    sinh<alpha, H> over the positive roots (all of multiplicity 1)."""
    h = _coords(rs, H)
    val = 1.0
    for alpha in rs.positive_roots:
        val *= math.sinh(float(alpha @ h))
    return val


def _chamber_integral(rs: RootSystemData, r: float, upper) -> float:
    """Nested adaptive quadrature of the Cartan density over the closed
    chamber in extreme-ray coordinates H = sum c_i u_i, c >= 0 (unit
    fundamental-weight rays), cut at radius r.  upper(prefix) bounds the
    next coordinate given the outer ones, outermost first."""
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be finite and positive, got {r}")
    if rs.rank > 3:
        raise ValueError(f"quadrature supports rank <= 3, got rank {rs.rank}")
    # scipy is imported here, by the quadrature alone, so importing the
    # package and every other analysis never loads it
    from scipy.integrate import nquad

    root_coeffs = np.array([
        [float(alpha @ u) for u in rs.chamber_rays]
        for alpha in rs.positive_roots
    ])                                                  # (nroots, ell)
    evals = 0

    # nquad passes the coordinates innermost first; both functions reverse
    # them, so the sums run in the same order as the nesting
    def density(*c) -> float:
        nonlocal evals
        evals += 1
        if evals > QUAD_EVAL_CAP:
            raise ResourceLimitError(
                f"quadrature exceeded {QUAD_EVAL_CAP} density evaluations"
            )
        return float(np.prod(np.sinh(root_coeffs @ np.asarray(c[::-1]))))

    def limits(*outer) -> tuple[float, float]:
        return 0.0, max(0.0, upper(outer[::-1]))

    # inner integrals run tighter so nesting errors do not compound
    opts = [{"epsrel": QUAD_EPSREL * 0.01**i, "limit": 200} for i in range(rs.rank)]
    return nquad(density, [limits] * rs.rank, opts=opts)[0]


def polyhedral_ball_volume(rs: RootSystemData, r: float) -> float:
    """Volume (constant-1 normalization) of the polyhedral ball of radius r,
    i.e. the density integral over the chamber cut by <rho, H> <= ||rho|| r."""
    budget = rs.rho_norm * r
    rho_coeffs = np.array([float(rs.rho @ u) for u in rs.chamber_rays])

    def upper(prefix):
        used = float(rho_coeffs[: len(prefix)] @ np.asarray(prefix)) if prefix else 0.0
        return (budget - used) / rho_coeffs[len(prefix)]

    return _chamber_integral(rs, r, upper)


def classical_ball_volume(rs: RootSystemData, r: float) -> float:
    """Volume (constant-1 normalization) of the Riemannian ball of radius r,
    i.e. the density integral over the chamber cut by ||H|| <= r."""
    rays = np.vstack(rs.chamber_rays)                   # (ell, dim)
    gram = rays @ rays.T                                # (ell, ell)
    r2 = r * r

    def upper(prefix):
        k = len(prefix)
        p = np.asarray(prefix)
        a = gram[k, k]
        b = 2.0 * float(gram[:k, k] @ p) if k else 0.0
        c0 = float(p @ gram[:k, :k] @ p) - r2 if k else -r2
        disc = b * b - 4.0 * a * c0
        if disc <= 0:
            return 0.0
        return (-b + math.sqrt(disc)) / (2.0 * a)

    return _chamber_integral(rs, r, upper)


def fit_ball_volume(rs: RootSystemData, which: str = "polyhedral",
                    regime: str = "large", radii: np.ndarray | None = None) -> VolumeFit:
    """Fit the growth of a ball-volume curve.

    Small regime: log V against log r, slope estimating the dimension n.
    Large regime: log V against (r, log r) jointly, estimating the
    exponential rate (expected 2*||rho||) and the polynomial prefactor
    degree, which separates the polyhedral (rank - 1) and classical
    ((rank - 1)/2) ball families.  Raises ValueError when fewer distinct
    radii than the fit's two or three coefficients cannot determine it.
    """
    volume = {"polyhedral": polyhedral_ball_volume, "classical": classical_ball_volume}.get(which)
    if volume is None:
        raise ValueError(f"unknown volume family {which!r}")
    if regime not in ("small", "large"):
        raise ValueError(f"regime must be 'small' or 'large', got {regime!r}")
    if radii is None:
        radii = SMALL_RADII_DEFAULT if regime == "small" else LARGE_RADII_DEFAULT
    radii = np.asarray(radii, dtype=float)
    logv = np.log([volume(rs, r) for r in radii])
    small = regime == "small"
    coef, _ = _least_squares(logv, *([] if small else [radii]), np.log(radii))
    return VolumeFit(radii, logv, 0.0 if small else float(coef[1]), float(coef[-1]), regime)


def green_asymptotic(rs: RootSystemData, zeta: float, H) -> float:
    """Representative (constant-1) Green-function envelope at exp(H).

    Beyond the branch norm the envelope is the product of (1 + <alpha, H>)
    over reduced positive roots times ||H||^(-(rank-1)/2 - #reduced) times
    exp(-<rho, H> - zeta ||H||); below it the flat singularity
    ||H||^-(n-2), or log(1/||H||) when n = 2.
    """
    if not 0 < zeta < math.inf:
        raise ValueError(f"zeta must be finite and positive, got {zeta}")
    h = _coords(rs, H)
    norm = float(np.linalg.norm(h))
    if norm <= 0:
        raise ValueError("Green envelope undefined at H = 0")
    if norm < GREEN_BRANCH_NORM:
        if rs.dim_x == 2:
            return math.log(1.0 / norm)
        return norm ** (-(rs.dim_x - 2))
    prefactor = 1.0
    for alpha in rs.positive_roots:
        prefactor *= 1.0 + float(alpha @ h)
    power = -(rs.rank - 1) / 2.0 - len(rs.positive_roots)
    return prefactor * norm**power * math.exp(-float(rs.rho @ h) - zeta * norm)


def _green_factors(table: DistanceTable, rs: RootSystemData) -> tuple[np.ndarray, np.ndarray]:
    """The zeta-free factors of the Green envelope terms over a distance
    table, built on first use and kept with the table: the weight
    prefactor * d**power, zero for a skipped term at distance zero, and the
    exponent -||rho|| d'.  A term is weight * exp(-||rho|| d' - zeta d), the
    envelope's own operations on the same operands, and a zero weight adds
    exactly nothing to its level's sum."""
    factors = table.derived.get("green")
    if factors is None:
        kept = table.d > ZERO_DISTANCE
        keep = slice(None) if kept.all() else kept  # a view, not a copy, when all are kept
        # each root's factor over the whole table: no copy of the kept chamber rows
        prefactor = np.ones(np.count_nonzero(kept))
        for alpha in rs.positive_roots:
            factor = table.chamber @ alpha
            factor += 1.0
            prefactor *= factor[keep]
            del factor
        power = -(rs.rank - 1) / 2.0 - len(rs.positive_roots)
        prefactor *= table.d[keep] ** power
        weight = np.zeros_like(table.d)
        weight[keep] = prefactor
        log_base = -rs.rho_norm * table.dprime
        for a in (weight, log_base):
            a.flags.writeable = False
        factors = table.derived["green"] = (weight, log_base)
    return factors


def green_series_diagnostic(ball: OrbitBall, rs: RootSystemData, zeta: float,
                            x=None, y=None) -> GreenSeriesDiagnostic:
    """Partial sums per word-length level of the periodized Green series.

    Terms follow the large-argument envelope; any orbit point at distance
    zero (the identity, or stabilizer torsion) is skipped.  The verdict is
    'converging' when the last relative increment is below GREEN_STRONG_REL_TOL
    or the recent level increments decay at a trend steeper than GREEN_TREND_TOL,
    'diverging' when they grow at that trend, and 'inconclusive' otherwise.
    """
    if not 0 < zeta < math.inf:
        raise ValueError(f"zeta must be finite and positive, got {zeta}")
    table = distance_table(ball, rs, x, y)
    weight, log_base = _green_factors(table, rs)
    # weight * exp(log_base - zeta d), in one scratch array
    terms = zeta * table.d
    np.subtract(log_base, terms, out=terms)
    np.exp(terms, out=terms)
    terms *= weight
    increments = ball.level_sums(terms)
    partial = np.cumsum(increments)

    positive = increments > 0
    if partial[-1] <= 0 or positive.sum() < 3:
        return GreenSeriesDiagnostic(zeta, partial, "converging", -math.inf)
    rel_last = increments[-1] / partial[-1]
    recent = np.flatnonzero(positive)[-GREEN_TREND_LEVELS:]
    slope = float(_least_squares(np.log(increments[recent]), recent.astype(float))[0][1])
    if rel_last < GREEN_STRONG_REL_TOL or slope < -GREEN_TREND_TOL:
        verdict = "converging"
    elif slope > GREEN_TREND_TOL:
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return GreenSeriesDiagnostic(zeta, partial, verdict, slope)


def heat_bound(rs: RootSystemData, case: str, *, t: float, delta_second: float,
               s: float | None = None, s1: float | None = None,
               s2: float | None = None, eps: float | None = None,
               psecond: float | None = None, psecond_x: float | None = None,
               psecond_y: float | None = None) -> float:
    """Evaluate one of the three heat-kernel bound expressions on the
    diagonal (distance zero, where each Gaussian factor exp(-d^2/...) is 1).

    The Poincare factors are supplied as (truncated) partial sums, so the
    result under-estimates the true bound and is reported as such.  Case
    'i' needs delta_second < s < ||rho|| and takes the pseudo-dimension
    D = rank + 2 * #reduced roots, the long-time heat decay exponent; case
    'ii' needs ||rho|| <= delta_second < 2||rho|| and
    delta_second - ||rho|| < s1 < s2 < ||rho||; case 'iii' needs
    s > delta_second, eps > 0, and the two diagonal partial sums.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"time must be finite and positive, got {t}")
    n = rs.dim_x
    rho = rs.rho_norm
    base = t ** (-n / 2.0)
    if case == "i":
        if s is None or psecond is None:
            raise ValueError("case 'i' needs s and psecond")
        if not delta_second < s < rho:
            raise ValueError(
                f"case 'i' needs delta_second < s < ||rho||, got {delta_second}, {s}, {rho}"
            )
        D = rs.rank + 2 * len(rs.positive_roots)
        return base * (1.0 + t) ** ((n - D) / 2.0) * math.exp(-rho**2 * t) * psecond
    if case == "ii":
        if s1 is None or s2 is None or psecond is None:
            raise ValueError("case 'ii' needs s1, s2 and psecond")
        if not rho <= delta_second < 2.0 * rho:
            raise ValueError(
                f"case 'ii' needs ||rho|| <= delta_second < 2||rho||, got {delta_second}"
            )
        if not delta_second - rho < s1 < s2 < rho:
            raise ValueError(
                f"case 'ii' needs delta_second - ||rho|| < s1 < s2 < ||rho||, "
                f"got s1={s1}, s2={s2}"
            )
        return base * math.exp(-(rho**2 - s2**2) * t) * psecond
    if case == "iii":
        if eps is None or psecond_x is None or psecond_y is None:
            raise ValueError("case 'iii' needs eps, psecond_x and psecond_y")
        if not delta_second < 2.0 * rho:
            raise ValueError(f"case 'iii' needs delta_second < 2||rho||, got {delta_second}")
        if s is None or not 0 < s < math.inf or s <= delta_second:
            raise ValueError(f"case 'iii' needs finite s > max(delta_second, 0), got s={s}")
        if not 0 < eps < math.inf:
            raise ValueError(f"case 'iii' needs finite eps > 0, got {eps}")
        rate = rho**2 - (delta_second - rho) ** 2 - 2.0 * eps
        return base * math.exp(-rate * t) * math.sqrt(psecond_x) * math.sqrt(psecond_y)
    raise ValueError(f"unknown heat-bound case {case!r}")
