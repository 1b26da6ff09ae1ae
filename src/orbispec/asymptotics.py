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
from .exponents import (ZERO_DISTANCE, DistanceTable, distance_table,  # noqa: F401
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


class _ChamberIntegrator:
    """Nested adaptive quadrature over the closed chamber in extreme-ray
    coordinates H = sum c_i u_i, c >= 0 (unit fundamental-weight rays)."""

    def __init__(self, rs: RootSystemData):
        if rs.rank > 3:
            raise ValueError(f"quadrature supports rank <= 3, got rank {rs.rank}")
        self.rs = rs
        self.rays = np.vstack(rs.chamber_rays)          # (ell, dim)
        self.gram = self.rays @ self.rays.T             # (ell, ell)
        self.root_coeffs = np.array([
            [float(alpha @ u) for u in rs.chamber_rays]
            for alpha in rs.positive_roots
        ])                                              # (nroots, ell)
        self.rho_coeffs = np.array([float(rs.rho @ u) for u in rs.chamber_rays])
        self._evals = 0

    def _density(self, c: tuple[float, ...]) -> float:
        self._evals += 1
        if self._evals > QUAD_EVAL_CAP:
            raise ResourceLimitError(
                f"quadrature exceeded {QUAD_EVAL_CAP} density evaluations"
            )
        pairings = self.root_coeffs @ np.asarray(c)
        return float(np.prod(np.sinh(pairings)))

    def polyhedral(self, r: float) -> float:
        """Integral of the density over {<rho, H> <= ||rho|| r}."""
        budget = self.rs.rho_norm * r

        def limit(prefix):
            used = float(self.rho_coeffs[: len(prefix)] @ np.asarray(prefix)) if prefix else 0.0
            return (budget - used) / self.rho_coeffs[len(prefix)]

        return self._nested(limit, ())

    def classical(self, r: float) -> float:
        """Integral of the density over {||H|| <= r}."""
        r2 = r * r

        def limit(prefix):
            k = len(prefix)
            p = np.asarray(prefix)
            a = self.gram[k, k]
            b = 2.0 * float(self.gram[:k, k] @ p) if k else 0.0
            c0 = float(p @ self.gram[:k, :k] @ p) - r2 if k else -r2
            disc = b * b - 4.0 * a * c0
            if disc <= 0:
                return 0.0
            return (-b + math.sqrt(disc)) / (2.0 * a)

        return self._nested(limit, ())

    def _nested(self, limit, prefix):
        # scipy is imported here, by the quadrature alone, so importing the
        # package and every other analysis never loads it
        from scipy.integrate import quad

        hi = limit(prefix)
        if hi <= 0:
            return 0.0
        last = len(prefix) == self.rs.rank - 1
        if last:
            f = lambda c: self._density(prefix + (c,))
        else:
            f = lambda c: self._nested(limit, prefix + (c,))
        # inner integrals run tighter so nesting errors do not compound
        eps = QUAD_EPSREL * 0.01 ** (self.rs.rank - 1 - len(prefix))
        val, _ = quad(f, 0.0, hi, epsrel=eps, limit=200)
        return val


def polyhedral_ball_volume(rs: RootSystemData, r: float) -> float:
    """Volume (constant-1 normalization) of the polyhedral ball of radius r,
    i.e. the density integral over the chamber cut by <rho, H> <= ||rho|| r."""
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    return _ChamberIntegrator(rs).polyhedral(r)


def classical_ball_volume(rs: RootSystemData, r: float) -> float:
    """Volume (constant-1 normalization) of the Riemannian ball of radius r,
    i.e. the density integral over the chamber cut by ||H|| <= r."""
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    return _ChamberIntegrator(rs).classical(r)


def fit_ball_volume(rs: RootSystemData, which: str = "polyhedral",
                    regime: str = "large", radii: np.ndarray | None = None) -> VolumeFit:
    """Fit the growth of a ball-volume curve.

    Small regime: log V against log r, slope estimating the dimension n.
    Large regime: log V against (r, log r) jointly, estimating the
    exponential rate (expected 2*||rho||) and the polynomial prefactor
    degree, which separates the polyhedral (rank - 1) and classical
    ((rank - 1)/2) ball families.
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
    columns = [np.ones_like(radii)] + ([] if small else [radii]) + [np.log(radii)]
    coef, *_ = np.linalg.lstsq(np.vstack(columns).T, logv, rcond=None)
    return VolumeFit(radii, logv, 0.0 if small else float(coef[1]), float(coef[-1]), regime)


def green_asymptotic(rs: RootSystemData, zeta: float, H) -> float:
    """Representative (constant-1) Green-function envelope at exp(H).

    Beyond the branch norm the envelope is the product of (1 + <alpha, H>)
    over reduced positive roots times ||H||^(-(rank-1)/2 - #reduced) times
    exp(-<rho, H> - zeta ||H||); below it the flat singularity
    ||H||^-(n-2), or log(1/||H||) when n = 2.
    """
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
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
        keep = table.d > ZERO_DISTANCE
        keep = slice(None) if keep.all() else keep  # a view, not a copy, when all are kept
        d, chamber = table.d[keep], table.chamber[keep]
        prefactor = np.ones_like(d)
        for alpha in rs.positive_roots:
            prefactor *= 1.0 + chamber @ alpha
        power = -(rs.rank - 1) / 2.0 - len(rs.positive_roots)
        weight = np.zeros_like(table.d)
        weight[keep] = prefactor * d**power
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
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    table = distance_table(ball, rs, x, y)
    weight, log_base = _green_factors(table, rs)
    # weight * exp(log_base - zeta d), in one scratch array
    terms = zeta * table.d
    np.subtract(log_base, terms, out=terms)
    np.exp(terms, out=terms)
    terms *= weight
    increments = np.bincount(ball.word_lengths, weights=terms,
                             minlength=len(ball.growth_per_level))
    partial = np.cumsum(increments)

    positive = increments > 0
    if partial[-1] <= 0 or positive.sum() < 3:
        return GreenSeriesDiagnostic(zeta, partial, "converging", -math.inf)
    rel_last = increments[-1] / partial[-1]
    k = min(GREEN_TREND_LEVELS, int(positive.sum()))
    recent = np.flatnonzero(positive)[-k:]
    slope = float(np.polyfit(recent.astype(float), np.log(increments[recent]), 1)[0])
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
               psecond_y: float | None = None,
               pseudo_dim: float | None = None) -> float:
    """Evaluate one of the three heat-kernel bound expressions on the
    diagonal (distance zero, where each Gaussian factor exp(-d^2/...) is 1).

    The Poincare factors are supplied as (truncated) partial sums, so the
    result under-estimates the true bound and is reported as such.  Case
    'i' needs delta_second < s < ||rho|| and a pseudo-dimension D
    (defaulting to rank + 2 * #reduced roots, the long-time heat decay
    exponent); case 'ii' needs ||rho|| <= delta_second < 2||rho|| and
    delta_second - ||rho|| < s1 < s2 < ||rho||; case 'iii' needs
    s > delta_second, eps > 0, and the two diagonal partial sums.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
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
        D = pseudo_dim if pseudo_dim is not None else rs.rank + 2 * len(rs.positive_roots)
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
        if s is None or s <= delta_second:
            raise ValueError(f"case 'iii' needs s > delta_second, got s={s}")
        if eps <= 0:
            raise ValueError(f"case 'iii' needs eps > 0, got {eps}")
        rate = rho**2 - (delta_second - rho) ** 2 - 2.0 * eps
        return base * math.exp(-rate * t) * math.sqrt(psecond_x) * math.sqrt(psecond_y)
    raise ValueError(f"unknown heat-bound case {case!r}")
