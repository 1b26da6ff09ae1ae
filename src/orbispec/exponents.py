"""Orbital counting, partial Poincare sums, and critical-exponent fits.

The counting function N_R for a distance kind is evaluated exactly over an
enumerated orbit ball; its log-slope over the trusted radius window
estimates the critical exponent of the matching Poincare series.  Exponents
for the three distance kinds are reported together: the Riemannian and
polyhedral ones come from plain counting slopes, the mixed one from the
slope of the e^{-||rho|| d_polyhedral}-weighted counting sum (the two agree
for series convergence by summation by parts).

`pressure_exponent` reads each exponent from every element instead: it
groups the Poincare series by word length and returns the zero of the
pressure, the growth rate in w of the level sums S_w(s), fitted over the
last levels of the ball.  `delta_second_bisection`, the report's mixed
diagnostic, is its mixed-kind value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .cartan import cartan_projection, log_singular_values, mixed_from_parts, stack_product
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

# slack in the ordering check delta <= delta'' <= delta'
ORDER_TOL = 0.05

# pressure_exponent: levels of the (1, w) slope fit and of the (1, w, log w)
# fit, the relative half-width of the latter's bracket around the slope zero,
# the low end of the slope's bracket, the width the final root search stops
# at and the relative width enough for the slope zero that centres the bracket
SLOPE_LEVELS = 4
PRESSURE_LEVELS = 5
PRESSURE_BRACKET = 0.3
PRESSURE_LOW = 1e-9
PRESSURE_XTOL = 1e-12
SLOPE_RTOL = 1e-2


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


# the estimate of a group whose series converges at every s > 0
_ZERO = ExponentEstimate(0.0, (0.0, 0.0), 0.0, complete=True)


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
    y^-1 gamma^-1 x up to -w0, under which both distances are invariant).
    The rows are projected one float row block of the ball at a time into
    the one result array; every step is row-wise, so the blocks change no
    bit of the result."""
    spec = ball.spec
    x_inv = None if x is None else x.inverse().float_blocks()  # exact for exact data
    y_blocks = None if y is None else y.float_blocks()
    chamber = np.empty((len(ball), spec.ambient_dim))
    start = 0
    for rows in ball.float_row_blocks():
        stop = start + len(rows)
        for k, (n, sl, cols) in enumerate(zip(spec.sizes, spec.entry_slices,
                                              spec.block_slices)):
            m = rows[:, sl].reshape(-1, n, n)
            if x_inv is not None:
                m = stack_product(x_inv[k], m)
            if y_blocks is not None:
                # einsum is faster on this stack-first form than a sum of products
                m = np.einsum("nij,jk->nik", m, y_blocks[k])
            chamber[start:stop, cols] = log_singular_values(m)
        start = stop
    return chamber


@dataclass(frozen=True)
class DistanceTable:
    """Read-only chamber matrix of x^-1 gamma y over a ball, with each
    element's distances d and d' and the trust-radius shift d(x,e) + d(y,e).
    `derived` holds what other layers compute once from the table: the
    zeta-free factors of the Green series."""

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
    for g in (x, y):
        if g is not None and g.spec.sizes != ball.spec.sizes:
            raise ValueError(f"base point of blocks {g.spec.sizes} does not fit a ball "
                             f"of blocks {ball.spec.sizes}")
    table = ball.tables.get((x, y))
    if table is None:
        chamber = relative_chamber_matrix(ball, x, y)
        # d = sqrt(c0^2 + c1^2 + ...) folded left to right in one accumulator:
        # np.linalg.norm(axis=1) bit for bit below 8 columns, where numpy's
        # row sum is sequential, without its (N, k) temporary
        d = np.square(chamber[:, 0])
        for col in chamber.T[1:]:
            d += col * col
        np.sqrt(d, out=d)
        dprime = chamber @ rs.rho
        dprime /= rs.rho_norm
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


def counting_curve(ball: OrbitBall, rs: RootSystemData, kind: str,
                   s: float | None = None, x=None, y=None,
                   radii: np.ndarray | None = None,
                   radii_step: float = DEFAULT_RADII_STEP) -> CountingCurve:
    """Exact counts N_R = |{gamma : dist(xK, gamma yK) <= R}| over the ball,
    every element counted, those that fix a base point too.

    Only the elements within the largest radius are sorted: on a ball far
    past its trust radius that is a small share of it."""
    if not 0 < radii_step < math.inf:
        raise ValueError(f"radii_step must be finite and positive, got {radii_step}")
    dist = distance_table(ball, rs, x, y).of_kind(kind, s)
    comp = completeness_radius(ball, rs, kind, s, x, y)
    if radii is None:
        top = comp
        if math.isinf(comp):  # a finite group: count past its farthest element
            top = float(dist.max(initial=0.0)) + radii_step
        if top / radii_step > MAX_RADII:
            raise ResourceLimitError(f"counting to radius {top:.6g} in steps of "
                                     f"{radii_step:g} needs over {MAX_RADII} radii")
        radii = np.arange(radii_step, top + 1e-12, radii_step)
        if radii.size == 0:
            radii = np.array([radii_step])
    else:
        radii = np.asarray(radii, dtype=float)
        if not np.all(np.isfinite(radii)):
            raise ValueError("radii must be finite")
        if np.any(np.diff(radii) < 0):
            raise ValueError("radii must be sorted ascending")
    counts = np.searchsorted(np.sort(dist[_within(dist, radii)]), radii, side="right")
    complete = bool(radii.size == 0 or radii[-1] <= comp)
    return CountingCurve(kind, s, radii, counts.astype(np.int64), comp, complete)


def _within(dist: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Mask of the elements whose distance is at most the largest radius:
    the only ones a count reads."""
    return dist <= (radii[-1] if radii.size else -math.inf)


def _series_terms(ball, rs, kind, s, x, y) -> np.ndarray:
    """exp(-s dist), or exp(-dist) for the mixed kind, in one fresh array."""
    if not 0 < s < math.inf:
        raise ValueError(f"series parameter must be finite and positive, got {s}")
    rate = 1.0 if kind == KIND_MIXED else s
    dist = distance_table(ball, rs, x, y).of_kind(kind, s)
    # the mixed distance is already a fresh array; the others are the table's
    terms = np.multiply(-rate, dist, out=dist if kind == KIND_MIXED else None)
    return np.exp(terms, out=terms)


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
    """Cumulative partial sums of the Poincare series by word-length level,
    each level summed in element order by `OrbitBall.level_sums`."""
    return np.cumsum(ball.level_sums(_series_terms(ball, rs, kind, s, x, y)))


def _least_squares(samples: np.ndarray, *columns) -> tuple[np.ndarray, float]:
    """The one least-squares fit behind every estimate: coefficients of the
    samples on a constant and the given columns, by np.linalg.lstsq, and
    the fit's RMS residual.  Raises ValueError when the design's rank is
    below its column count, so that the samples cannot determine them."""
    design = np.vstack([np.ones_like(samples), *columns]).T
    coef, _, rank, _ = np.linalg.lstsq(design, samples, rcond=None)
    if rank < design.shape[1]:
        raise ValueError(f"a design of rank {rank} cannot determine {design.shape[1]} "
                         "fit coefficients")
    return coef, float(np.sqrt(np.mean((design @ coef - samples) ** 2)))


def estimate_exponent(curve: CountingCurve,
                      window_fraction: float = DEFAULT_WINDOW_FRACTION,
                      rho_norm: float | None = None) -> ExponentEstimate:
    """Least-squares slope of log N_R against R over the upper window
    [window_fraction * R_max, R_max] of the trusted radius range.

    Raises ValueError when the count at R_max is no higher than at the
    curve's first radius, as for zero counts: the curve then counted no
    orbit point past its first radius up to the window's top (on default
    radii, starting at radii_step, none at positive distance unless one
    lies within the first step), and its slope 0 says nothing.  A flat
    window above counted points still fits."""
    if not 0 < window_fraction <= 1:
        raise ValueError("window_fraction must lie in (0, 1]")
    r_max = float(curve.radii.max(initial=0.0))
    if math.isfinite(curve.completeness_radius):
        r_max = min(r_max, curve.completeness_radius)
    lo = window_fraction * r_max
    sel = (curve.radii >= lo - 1e-12) & (curve.radii <= r_max + 1e-12)
    r, counts = curve.radii[sel], curve.counts[sel].astype(float)
    if r.size < MIN_WINDOW_POINTS:
        raise ValueError(
            f"need at least {MIN_WINDOW_POINTS} samples in the fit window, got {r.size}"
        )
    if np.any(counts <= 0):
        raise ValueError("zero counts inside the fit window")
    coef, resid = _least_squares(np.log(counts), r)
    value = float(coef[1])
    if counts[-1] <= curve.counts[0]:
        raise ValueError(f"no orbit point counted between radius {curve.radii[0]:.6g} "
                         f"and the window's top {r_max:.6g}")
    return ExponentEstimate(value, (float(lo), float(r_max)), resid,
                            complete=curve.complete,
                            in_range=rho_norm is None or _in_range(value, rho_norm))


def _in_range(value: float, rho_norm: float) -> bool:
    """Whether an exponent lies in [0, 2||rho||] up to EXPONENT_RANGE_SLACK."""
    return -EXPONENT_RANGE_SLACK <= value <= 2 * rho_norm + EXPONENT_RANGE_SLACK


def exponent_triple(ball: OrbitBall, rs: RootSystemData, x=None, y=None,
                    radii_step: float = DEFAULT_RADII_STEP,
                    window_fraction: float = DEFAULT_WINDOW_FRACTION) -> ExponentTriple:
    """Estimate the Riemannian, mixed, and polyhedral critical exponents.

    A fully enumerated (finite) group has bounded counting functions, so all
    three exponents vanish identically and no fit is attempted.  Otherwise
    the Riemannian and polyhedral exponents are counting slopes, and the
    mixed exponent is delta_prime when the polyhedral estimate is at most
    ||rho||, else ||rho|| plus the slope of

        M_R = sum_{d(gamma) <= R} exp(-||rho|| d_polyhedral(gamma)),

    fitted like a counting curve at delta's radii and clipped into the
    bracket of the other two fits.  Counts and sums read only the elements
    within the last radius, whose sort is cheap on a large ball.
    """
    if ball.exhausted:
        return ExponentTriple(_ZERO, _ZERO, _ZERO)

    curve_d = counting_curve(ball, rs, KIND_RIEMANNIAN, x=x, y=y, radii_step=radii_step)
    curve_p = counting_curve(ball, rs, KIND_POLYHEDRAL, x=x, y=y, radii_step=radii_step)
    delta = estimate_exponent(curve_d, window_fraction, rs.rho_norm)
    delta_prime = estimate_exponent(curve_p, window_fraction, rs.rho_norm)

    if delta_prime.value <= rs.rho_norm:
        delta_second = delta_prime
    else:
        # the stable order of the elements within the last radius is the
        # prefix of the whole ball's, so each sum is the whole ball's cumsum
        table = distance_table(ball, rs, x, y)
        keep = _within(table.d, curve_d.radii)
        d, dprime = table.d[keep], table.dprime[keep]
        order = np.argsort(d, kind="stable")
        cum = np.zeros(len(d) + 1)  # M_R is 0 below the nearest orbit point
        np.cumsum(np.exp(-rs.rho_norm * dprime[order]), out=cum[1:])
        sums = cum[np.searchsorted(d[order], curve_d.radii, side="right")]
        fit = estimate_exponent(replace(curve_d, counts=sums), window_fraction)
        lo, hi = sorted((delta.value, delta_prime.value))
        value = min(max(rs.rho_norm + fit.value, lo), hi)
        delta_second = replace(fit, value=value, in_range=_in_range(value, rs.rho_norm))
    return ExponentTriple(delta, delta_second, delta_prime)


def _bracketed_zero(f, a: float, fa: float, b: float, fb: float, rtol: float = 0.0) -> float:
    """Zero of f between 0 < a and b, where fa and fb differ in sign, by
    Illinois regula falsi.  The bracket shrinks to PRESSURE_XTOL plus rtol
    times its lower end, and the last point evaluated is returned."""
    x = a if abs(fa) < abs(fb) else b
    side = 0
    while abs(b - a) > PRESSURE_XTOL + rtol * min(a, b):
        x = (a * fb - b * fa) / (fb - fa)
        fx = f(x)
        if fx == 0:
            break
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
            if side < 0:
                fb /= 2
            side = -1
        else:
            b, fb = x, fx
            if side > 0:
                fa /= 2
            side = 1
    return x


def pressure_exponent(ball: OrbitBall, rs: RootSystemData, kind: str,
                      x=None, y=None) -> ExponentEstimate:
    """Critical exponent of one distance kind as the zero of the word-length
    pressure P(s) = lim (1/w) log S_w(s), where S_w(s) sums exp(-D_s) over
    the elements of word length w and D_s is s d, s d' or the mixed
    distance at s (Bowen's formula: the Poincare series converges where
    P < 0 and diverges where P > 0).

    A first stage finds the zero z of the slope of log S_w on (1, w) over
    the last SLOPE_LEVELS levels, within [PRESSURE_LOW, 2||rho|| + 1].  The
    estimate is the zero of the w-coefficient of a (1, w, log w) fit over
    the last PRESSURE_LEVELS levels within z (1 -+ PRESSURE_BRACKET): the
    log w term takes up the power-law decay that cusps give S_w.  Its window
    is those word lengths and its residual that fit's RMS.  Edge rules,
    none of which raises: an exhausted ball or one with fewer than two
    levels past the identity gives 0, and so does a slope <= 0 at
    PRESSURE_LOW; a slope >= 0 at 2||rho|| + 1 gives that end; a ball of two
    to four levels gives the (1, w) zero over the levels it has, and so does
    a (1, w, log w) coefficient of one sign on the bracket.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown distance kind {kind!r}")
    levels = len(ball.growth_per_level) - 1
    if ball.exhausted or levels < 2:
        return _ZERO
    table = distance_table(ball, rs, x, y)
    rho_norm = table.rho_norm
    dist = table.d if kind == KIND_RIEMANNIAN else table.dprime
    # the mixed terms exp(-rho d' - (s - rho) d) for s > rho, exp(-s d') otherwise
    neg_rho_dprime = -rho_norm * table.dprime if kind == KIND_MIXED else None
    log_sums: dict[float, np.ndarray] = {}

    def log_level_sums(s: float) -> np.ndarray:
        if s not in log_sums:
            if neg_rho_dprime is not None and s > rho_norm:
                terms = np.multiply(s - rho_norm, table.d)
                np.subtract(neg_rho_dprime, terms, out=terms)
            else:
                terms = np.multiply(-s, dist)
            log_sums[s] = np.log(ball.level_sums(np.exp(terms, out=terms)))
        return log_sums[s]

    w = np.arange(1.0, levels + 1.0)
    # the columns past the constant of the (1, w) and (1, w, log w) fits
    fits = [[w[-SLOPE_LEVELS:]]]
    if levels >= PRESSURE_LEVELS:
        fits.append([w[-PRESSURE_LEVELS:], np.log(w[-PRESSURE_LEVELS:])])

    def level_fit(fit, s: float) -> tuple[np.ndarray, float]:
        return _least_squares(log_level_sums(s)[-len(fit[0]):], *fit)

    def w_coefficient(fit, s: float) -> float:
        return float(level_fit(fit, s)[0][1])

    def estimate(fit, s: float) -> ExponentEstimate:
        window = (float(fit[0][0]), float(fit[0][-1]))
        return ExponentEstimate(s, window, level_fit(fit, s)[1], complete=True,
                                in_range=_in_range(s, rho_norm))

    slope = fits[0]
    lo, hi = PRESSURE_LOW, 2 * rho_norm + 1.0
    f_lo = w_coefficient(slope, lo)
    if not f_lo > 0:
        return _ZERO
    f_hi = w_coefficient(slope, hi)
    if f_hi >= 0:
        return estimate(slope, hi)
    z = _bracketed_zero(partial(w_coefficient, slope), lo, f_lo, hi, f_hi, SLOPE_RTOL)
    a, b = (1 - PRESSURE_BRACKET) * z, (1 + PRESSURE_BRACKET) * z
    # the (1, w, log w) fit where the ball has its levels, else the slope's
    # own zero to the final width, from log sums cached at a and b
    for fit in reversed(fits):
        f_a, f_b = w_coefficient(fit, a), w_coefficient(fit, b)
        if (f_a > 0) != (f_b > 0):
            s = _bracketed_zero(partial(w_coefficient, fit), a, f_a, b, f_b)
            return estimate(fit, s)
    return estimate(slope, z)


def delta_second_bisection(ball: OrbitBall, rs: RootSystemData) -> float:
    """The mixed exponent as the word-length pressure zero of the
    base-point-free table (`pressure_exponent`), a diagnostic beside the
    counting fit of `exponent_triple`."""
    return pressure_exponent(ball, rs, KIND_MIXED).value
