"""Orbital counting, partial Poincare sums, and critical-exponent fits.

The counting function N_R for a distance kind is evaluated exactly over an
enumerated orbit ball; its log-slope over the trusted radius window
estimates the critical exponent of the matching Poincare series.  Exponents
for the three distance kinds are reported together: the Riemannian and
polyhedral ones come from plain counting slopes, the mixed one from the
slope of the e^{-||rho|| d_polyhedral}-weighted counting sum (the two agree
for series convergence by summation by parts, and the weighted slope stays
stable at truncated range where tail-convergence heuristics do not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cartan import cartan_projection, known_det, log_singular_values, mixed_from_parts
from .errors import ResourceLimitError
from .liecore import RootSystemData
from .orbit import OrbitBall

KIND_RIEMANNIAN = "riemannian"
KIND_POLYHEDRAL = "polyhedral"
KIND_MIXED = "mixed"
KINDS = (KIND_RIEMANNIAN, KIND_POLYHEDRAL, KIND_MIXED)

DEFAULT_RADII_STEP = 0.25
DEFAULT_WINDOW_FRACTION = 0.5
MIN_WINDOW_POINTS = 6

# cap on the radii a counting curve samples, checked before allocating them
MAX_RADII = 1_000_000

# slack applied on top of the 2*||rho|| range bound when flagging estimates
EXPONENT_RANGE_SLACK = 0.2

ZERO_DISTANCE = 1e-12

# slack in the ordering check delta <= delta'' <= delta'
ORDER_TOL = 0.05

# delta_second_bisection: relative tail increment counted as convergent, halvings
BISECTION_REL_TOL = 1e-3
BISECTION_STEPS = 50


@dataclass(frozen=True)
class CountingCurve:
    """Sampled orbital counting function for one distance kind (or, in
    `exponent_triple`, a weighted count at the Riemannian radii)."""

    kind: str
    s: float | None
    radii: np.ndarray
    counts: np.ndarray
    completeness_radius: float
    complete: bool


@dataclass(frozen=True)
class ExponentEstimate:
    """Fitted critical exponent with its window and fit diagnostics."""

    value: float
    window: tuple[float, float]
    residual: float
    complete: bool
    in_range: bool = True


@dataclass(frozen=True)
class ExponentTriple:
    delta: ExponentEstimate
    delta_second: ExponentEstimate
    delta_prime: ExponentEstimate

    @property
    def values(self) -> tuple[float, float, float]:
        return (self.delta.value, self.delta_second.value, self.delta_prime.value)

    def ordered(self) -> bool:
        d, ds, dp = self.values
        return d <= ds + ORDER_TOL and ds <= dp + ORDER_TOL


def relative_chamber_matrix(ball: OrbitBall, x=None, y=None) -> np.ndarray:
    """Cartan projections of x^-1 gamma y over the ball (equivalently of
    y^-1 gamma^-1 x up to -w0, under which both distances are invariant)."""
    pieces = []
    for k, m in enumerate(ball.block_stacks()):
        if x is not None:
            a = np.linalg.inv(x.float_blocks()[k])
            # np.einsum("ij,njk->nik", a, m) bit for bit, in a third of its
            # time: each entry adds its products over j = 0, 1, ... to +0.0,
            # so products that are all -0.0 sum to +0.0 as in einsum
            m = sum(a[:, j, None] * m[:, None, j, :] for j in range(len(a)))
        if y is not None:
            # einsum is faster on this stack-first form than a sum of products
            m = np.einsum("nij,jk->nik", m, y.float_blocks()[k])
        pieces.append(log_singular_values(m, det=known_det(ball.spec)))
    return np.concatenate(pieces, axis=1)


@dataclass(frozen=True)
class DistanceTable:
    """Read-only chamber matrix of x^-1 gamma y over a ball, with each
    element's distances d and d' and the trust-radius shift d(x,e) + d(y,e).
    `derived` holds what other layers compute once from the table, such as
    the zeta-free factors of the Green series."""

    chamber: np.ndarray
    d: np.ndarray
    dprime: np.ndarray
    shift: float
    rho_norm: float
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    def of_kind(self, kind: str, s: float | None = None) -> np.ndarray:
        return _of_kind(kind, s, self.rho_norm, self.dprime, self.d)


def _of_kind(kind: str, s: float | None, rho_norm: float, dprime, d):
    """The distance of one kind, from the polyhedral and Riemannian ones."""
    if kind == KIND_RIEMANNIAN:
        return d
    if kind == KIND_POLYHEDRAL:
        return dprime
    if kind == KIND_MIXED:
        return mixed_from_parts(rho_norm, s, dprime, d)
    raise ValueError(f"unknown distance kind {kind!r}")


def distance_table(ball: OrbitBall, rs: RootSystemData, x=None, y=None) -> DistanceTable:
    """The distance table of the ball based at (x, y), built on first use and
    kept in `ball.tables` for the ball's lifetime."""
    if rs.spec.sizes != ball.spec.sizes:
        raise ValueError(f"root system of blocks {rs.spec.sizes} does not fit a ball "
                         f"of blocks {ball.spec.sizes}")
    table = ball.tables.get((x, y))
    if table is None:
        chamber = relative_chamber_matrix(ball, x, y)
        d = np.linalg.norm(chamber, axis=1)
        dprime = chamber @ rs.rho / rs.rho_norm
        shift = sum((cartan_projection(g).norm for g in (x, y) if g is not None), 0.0)
        for a in (chamber, d, dprime):
            a.flags.writeable = False
        table = ball.tables[(x, y)] = DistanceTable(chamber, d, dprime, shift, rs.rho_norm)
    return table


def trust_radius(ball: OrbitBall, rs: RootSystemData) -> float:
    """Largest radius at which metric counting over the ball is heuristically
    complete: the minimum frontier distance (infinite for a fully enumerated
    group).  Elements of longer word length may in principle lie closer, so
    downstream fits treat this as a diagnostic, not a guarantee."""
    if ball.max_word_length < 1:
        raise ValueError("empty frontier: enumerate with max_word_length >= 1")
    if ball.exhausted:
        return math.inf
    # a ball that is not exhausted ends with its level at max_word_length
    return float(distance_table(ball, rs).d[-ball.growth_per_level[-1]:].min())


def completeness_radius(ball: OrbitBall, rs: RootSystemData, kind: str,
                        s: float | None = None, x=None, y=None) -> float:
    """Radius up to which counting in the given kind is heuristically
    complete: the kind's distance at the nearest (d', d) that an element
    beyond word length L can have.  Such an element has d > t, the trust
    radius less the base-point shift d(x,e) + d(y,e), hence
    d_polyhedral > (rho_min/||rho||) * t."""
    t = trust_radius(ball, rs)
    if math.isinf(t):
        _of_kind(kind, s, rs.rho_norm, 0.0, 0.0)  # raises on a bad kind or s
        return math.inf
    t = max(t - distance_table(ball, rs, x, y).shift, 0.0)
    return float(_of_kind(kind, s, rs.rho_norm, rs.rho_min / rs.rho_norm * t, t))


def _torsion_mask(ball: OrbitBall, rs: RootSystemData,
                  include_torsion: bool) -> np.ndarray | None:
    """Mask selecting elements kept for counting; drops non-identity
    elements whose own Cartan projection vanishes (the stabilizer of the
    base point) when include_torsion is False.  Computed once per ball and
    kept with its base-point-free distance table."""
    if include_torsion:
        return None
    table = distance_table(ball, rs)
    if "torsion" not in table.derived:
        drop = (table.d < ZERO_DISTANCE) & (ball.word_lengths > 0)
        keep = ~drop
        keep.flags.writeable = False
        table.derived["torsion"] = keep if drop.any() else None
    return table.derived["torsion"]


def counting_curve(ball: OrbitBall, rs: RootSystemData, kind: str,
                   s: float | None = None, x=None, y=None,
                   radii: np.ndarray | None = None,
                   radii_step: float = DEFAULT_RADII_STEP,
                   include_torsion: bool = True) -> CountingCurve:
    """Exact counts N_R = |{gamma : dist(xK, gamma yK) <= R}| over the ball."""
    dist = distance_table(ball, rs, x, y).of_kind(kind, s)
    mask = _torsion_mask(ball, rs, include_torsion)
    if mask is not None:
        dist = dist[mask]
    comp = completeness_radius(ball, rs, kind, s, x, y)
    if radii is None:
        top = comp if math.isfinite(comp) else float(dist.max(initial=0.0)) + radii_step
        if top / radii_step > MAX_RADII:
            raise ResourceLimitError(f"counting to radius {top:.6g} in steps of "
                                     f"{radii_step:g} needs over {MAX_RADII} radii")
        radii = np.arange(radii_step, top + 1e-12, radii_step)
        if radii.size == 0:
            radii = np.array([radii_step])
    else:
        radii = np.asarray(radii, dtype=float)
        if np.any(np.diff(radii) < 0):
            raise ValueError("radii must be sorted ascending")
    counts = np.searchsorted(np.sort(dist), radii, side="right")
    complete = bool(radii.size == 0 or radii[-1] <= comp)
    return CountingCurve(kind, s, radii, counts.astype(np.int64), comp, complete)


def _series_terms(ball, rs, kind, s, x, y) -> np.ndarray:
    if s <= 0:
        raise ValueError(f"series parameter must be positive, got {s}")
    rate = 1.0 if kind == KIND_MIXED else s
    return np.exp(-rate * distance_table(ball, rs, x, y).of_kind(kind, s))


def poincare_partial_sum(ball: OrbitBall, rs: RootSystemData, kind: str,
                         s: float, x=None, y=None) -> float:
    """Partial Poincare sum over the ball.

    For the Riemannian and polyhedral kinds this is sum exp(-s * dist); for
    the mixed kind the parameter enters through the distance itself, so the
    sum is sum exp(-dist_mixed_s) with no outer factor.
    """
    return float(_series_terms(ball, rs, kind, s, x, y).sum())


def level_partial_sums(ball: OrbitBall, rs: RootSystemData, kind: str,
                       s: float, x=None, y=None) -> np.ndarray:
    """Cumulative partial sums of the Poincare series by word-length level."""
    terms = _series_terms(ball, rs, kind, s, x, y)
    per_level = np.bincount(ball.word_lengths, weights=terms,
                            minlength=len(ball.growth_per_level))
    return np.cumsum(per_level)


def _fit_window(r: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Least-squares line through (r, log values) over a fit window: its
    slope and RMS residual."""
    if r.size < MIN_WINDOW_POINTS:
        raise ValueError(
            f"need at least {MIN_WINDOW_POINTS} samples in the fit window, got {r.size}"
        )
    if np.any(values <= 0):
        raise ValueError("zero counts inside the fit window")
    logv = np.log(values)
    design = np.vstack([np.ones_like(r), r]).T
    coef, *_ = np.linalg.lstsq(design, logv, rcond=None)
    return float(coef[1]), float(np.sqrt(np.mean((design @ coef - logv) ** 2)))


def estimate_exponent(curve: CountingCurve,
                      window_fraction: float = DEFAULT_WINDOW_FRACTION,
                      rho_norm: float | None = None) -> ExponentEstimate:
    """Least-squares slope of log N_R against R over the upper window
    [window_fraction * R_max, R_max] of the trusted radius range."""
    if not 0 < window_fraction <= 1:
        raise ValueError("window_fraction must lie in (0, 1]")
    r_max = float(curve.radii.max(initial=0.0))
    if math.isfinite(curve.completeness_radius):
        r_max = min(r_max, curve.completeness_radius)
    lo = window_fraction * r_max
    sel = (curve.radii >= lo - 1e-12) & (curve.radii <= r_max + 1e-12)
    value, resid = _fit_window(curve.radii[sel], curve.counts[sel].astype(float))
    return ExponentEstimate(value, (float(lo), float(r_max)), resid,
                            complete=curve.complete,
                            in_range=rho_norm is None or _in_range(value, rho_norm))


def _in_range(value: float, rho_norm: float) -> bool:
    """Whether an exponent lies in [0, 2||rho||] up to EXPONENT_RANGE_SLACK."""
    return -EXPONENT_RANGE_SLACK <= value <= 2 * rho_norm + EXPONENT_RANGE_SLACK


def exponent_triple(ball: OrbitBall, rs: RootSystemData, x=None, y=None,
                    radii_step: float = DEFAULT_RADII_STEP,
                    window_fraction: float = DEFAULT_WINDOW_FRACTION,
                    include_torsion: bool = True) -> ExponentTriple:
    """Estimate the Riemannian, mixed, and polyhedral critical exponents.

    A fully enumerated (finite) group has bounded counting functions, so all
    three exponents vanish identically and no fit is attempted.  Otherwise
    the Riemannian and polyhedral exponents are counting slopes, and the
    mixed exponent is delta_prime when the polyhedral estimate is at most
    ||rho||, else ||rho|| plus the slope of

        M_R = sum_{d(gamma) <= R} exp(-||rho|| d_polyhedral(gamma)),

    fitted like a counting curve at delta's radii and clipped into the
    bracket of the other two fits.
    """
    if ball.exhausted:
        zero = ExponentEstimate(0.0, (0.0, 0.0), 0.0, complete=True)
        return ExponentTriple(zero, zero, zero)

    curve_d = counting_curve(ball, rs, KIND_RIEMANNIAN, x=x, y=y,
                             radii_step=radii_step, include_torsion=include_torsion)
    curve_p = counting_curve(ball, rs, KIND_POLYHEDRAL, x=x, y=y,
                             radii_step=radii_step, include_torsion=include_torsion)
    delta = estimate_exponent(curve_d, window_fraction, rs.rho_norm)
    delta_prime = estimate_exponent(curve_p, window_fraction, rs.rho_norm)

    if delta_prime.value <= rs.rho_norm:
        delta_second = replace(delta_prime)
    else:
        table = distance_table(ball, rs, x, y)
        d, dprime = table.d, table.dprime
        mask = _torsion_mask(ball, rs, include_torsion)
        if mask is not None:
            d, dprime = d[mask], dprime[mask]
        order = np.argsort(d, kind="stable")
        cum = np.zeros(len(d) + 1)  # M_R is 0 below the nearest orbit point
        np.cumsum(np.exp(-rs.rho_norm * dprime[order]), out=cum[1:])
        sums = cum[np.searchsorted(d[order], curve_d.radii, side="right")]
        fit = estimate_exponent(replace(curve_d, counts=sums), window_fraction)
        lo, hi = sorted((delta.value, delta_prime.value))
        value = min(max(rs.rho_norm + fit.value, lo), hi)
        delta_second = replace(fit, value=value, in_range=_in_range(value, rs.rho_norm))
    return ExponentTriple(delta, delta_second, delta_prime)


def delta_second_bisection(ball: OrbitBall, rs: RootSystemData) -> float:
    """Series-convergence bisection for the mixed exponent (diagnostic).

    Declares the mixed partial sum convergent at s when the relative tail
    increments of the last two word-length levels fall below
    BISECTION_REL_TOL, and returns the infimum of apparent convergence after
    BISECTION_STEPS halvings of the bracket.  At truncated range this
    systematically overshoots near the critical parameter, so callers should
    prefer the slope-based estimate and clip this value to its bracket.
    """
    if ball.exhausted:
        return 0.0

    def apparently_convergent(s: float) -> bool:
        sums = level_partial_sums(ball, rs, KIND_MIXED, s)
        if len(sums) < 3:
            return True
        inc = np.diff(sums)
        rel = inc[-2:] / sums[-2:].clip(min=np.finfo(float).tiny)
        return bool(np.all(rel < BISECTION_REL_TOL))

    lo, hi = 1e-9, 2 * rs.rho_norm + 1.0
    if not apparently_convergent(hi):
        return hi
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if apparently_convergent(mid):
            hi = mid
        else:
            lo = mid
    return hi
