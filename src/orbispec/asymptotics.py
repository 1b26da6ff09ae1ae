"""Volume growth, Green-function envelopes, and heat-bound evaluators.

Every asymptotic relation here is two-sided with unspecified constants, so
representative expressions are evaluated with constant 1 and all tests and
fits assert growth rates and polynomial degrees, never absolute values.
Ball volumes integrate the Cartan density by Gauss-Legendre rules in numpy
alone, and a volume past float64's range is refused, not returned as inf.
The Green series sweeps all its zetas in one call over a distance table,
zeroing its terms at distance zero, where the envelope is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
# relative_chamber_matrix stays bound here, unused, because perfbench/spans.py
# wraps it by module name to count distance-table builds
from .exponents import _least_squares, distance_table, relative_chamber_matrix  # noqa: F401
from .liecore import ChamberVector, RootSystemData
from .orbit import OrbitBall

# Green-function branch point between the small-argument singularity and the
# exponential large-argument envelope
GREEN_BRANCH_NORM = 0.5

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


def _chamber_volume(rs: RootSystemData, r: float, gauge) -> float:
    """Integral of the Cartan density over the closed chamber cut at
    gauge(H) <= r, for a gauge of degree one, in extreme-ray coordinates
    H = sum c_i u_i, c >= 0 (unit fundamental-weight rays).

    With c = t w, w on the standard simplex and dc = t^(rank-1) dt dw, a
    direction w reaches the rim at t = r / gauge(H(w)).  Gauss-Legendre
    integrates t, and collapsed Gauss-Legendre (w_1 = u_1, w_2 = (1-u_1) u_2,
    ...) integrates w.  The density grows like exp(2 ||rho|| r) towards the
    rim and peaks over an angle of order (2 ||rho|| r)^(-1/2), so both
    rules take 24 + ceil(4 sqrt(2 ||rho|| r)) nodes.  The radial nodes run
    one at a time, so no array is larger than the angular nodes times the
    roots.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be finite and positive, got {r}")
    if rs.rank > 3:
        raise ValueError(f"quadrature supports rank <= 3, got rank {rs.rank}")
    # refused before any node is made, because the node count grows with r
    overflow = f"ball volume at radius {r} overflows float64"
    rate = 2.0 * rs.rho_norm * r
    if rate > math.log(np.finfo(float).max):
        raise NumericalError(overflow)
    # imported here, so that importing the package and every other
    # analysis never loads numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    x, g = leggauss(24 + math.ceil(4.0 * math.sqrt(rate)))
    u, g = (x + 1.0) / 2.0, g / 2.0
    w, w_weight = np.ones((1, 1)), np.ones(1)
    for _ in range(rs.rank - 1):
        # split each point's last coordinate m into m u and m (1 - u)
        m = w[:, -1:]
        w = np.hstack([np.repeat(w[:, :-1], len(u), axis=0),
                       (m * u).reshape(-1, 1), (m * (1.0 - u)).reshape(-1, 1)])
        w_weight = (w_weight[:, None] * m * g).ravel()
    h = w @ np.vstack(rs.chamber_rays)                  # (points, dim)
    rim = r / gauge(h)
    rim_roots = np.array(rs.positive_roots) @ h.T * rim  # (nroots, points)
    radial = np.zeros(len(rim))
    for s, gs in zip(u, g * u ** (rs.rank - 1)):
        radial += gs * np.prod(np.sinh(s * rim_roots), axis=0)
    with np.errstate(over="ignore"):  # a volume past float64 is refused below
        volume = float((w_weight * rim**rs.rank) @ radial)
    if not math.isfinite(volume):
        raise NumericalError(overflow)
    return volume


def polyhedral_ball_volume(rs: RootSystemData, r: float) -> float:
    """Volume (constant-1 normalization) of the polyhedral ball of radius r,
    i.e. the density integral over the chamber cut by <rho, H> <= ||rho|| r."""
    return _chamber_volume(rs, r, rs.polyhedral)


def classical_ball_volume(rs: RootSystemData, r: float) -> float:
    """Volume (constant-1 normalization) of the Riemannian ball of radius r,
    i.e. the density integral over the chamber cut by ||H|| <= r."""
    return _chamber_volume(rs, r, lambda h: np.linalg.norm(h, axis=1))


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


def green_series_diagnostic(ball: OrbitBall, rs: RootSystemData, zetas,
                            x=None, y=None) -> list[GreenSeriesDiagnostic]:
    """Partial sums per word-length level of the periodized Green series,
    one diagnostic for each zeta of the sequence `zetas`, in order.

    A term is weight * exp(-||rho|| d' - zeta d), the large-argument
    envelope, with weight d**power times the table's root_product, zero at
    distance zero (the identity, or stabilizer torsion); the two zeta-free
    factors are formed once per sweep.  The verdict is 'converging' when the
    last relative increment is below GREEN_STRONG_REL_TOL or the recent
    level increments decay at a trend steeper than GREEN_TREND_TOL,
    'diverging' when they grow at that trend, and 'inconclusive' otherwise.
    """
    for zeta in zetas:
        if not 0 < zeta < math.inf:
            raise ValueError(f"zeta must be finite and positive, got {zeta}")
    table = distance_table(ball, rs, x, y)
    power = -(rs.rank - 1) / 2.0 - len(rs.positive_roots)
    with np.errstate(divide="ignore"):  # d = 0 gives inf, zeroed below
        weight = table.d ** power
    weight *= table.root_product
    weight[table.d <= ZERO_DISTANCE] = 0.0
    log_base = -rs.rho_norm * table.dprime
    terms = np.empty(len(ball))
    diagnostics = []
    for zeta in zetas:
        # weight * exp(log_base - zeta d), in the one scratch array
        np.subtract(log_base, np.multiply(zeta, table.d, out=terms), out=terms)
        np.exp(terms, out=terms)
        terms *= weight
        diagnostics.append(_green_verdict(zeta, ball.level_sums(terms)))
    return diagnostics


def _green_verdict(zeta: float, increments: np.ndarray) -> GreenSeriesDiagnostic:
    """The diagnostic of one zeta, from its increments per level."""
    partial = np.cumsum(increments)
    positive = increments > 0
    if partial[-1] <= 0 or positive.sum() < 3:
        return GreenSeriesDiagnostic(zeta, partial, "converging", -math.inf)
    recent = np.flatnonzero(positive)[-GREEN_TREND_LEVELS:]
    slope = float(_least_squares(np.log(increments[recent]), recent.astype(float))[0][1])
    if increments[-1] / partial[-1] < GREEN_STRONG_REL_TOL or slope < -GREEN_TREND_TOL:
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
