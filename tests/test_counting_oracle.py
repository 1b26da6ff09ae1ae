"""Orbit counts pinned to an arithmetic count that uses no group words.

An element g of SL(2,R) with singular values e^h, e^-h sits at Riemannian
distance d = sqrt(2) h, and its squared Frobenius norm is 2 cosh(2h).  So
N(R) over an arithmetic group is the number of its integer matrices with
q = a^2 + b^2 + c^2 + d^2 <= 2 cosh(sqrt(2) R), which the oracle counts by
solving ad - bc = 1 with the extended gcd for each coprime column (a, c)
and walking the line of solutions while q stays in bound.  The Sanov group
<[[1,2],[0,1]], [[1,0],[2,1]]> is exactly the set with b, c even and
a = d = 1 mod 4.
"""

import math

import numpy as np
import pytest

from orbispec import (GeneratorSet, GroupElement, GroupSpec, KIND_MIXED, KIND_POLYHEDRAL,
                      KIND_RIEMANNIAN, build_root_system, counting_curve, enumerate_ball,
                      exponents)
from orbispec.exponents import completeness_radius, trust_radius

from conftest import orthonormal_sym2_generators, sanov_generators


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with a u + b v = g = gcd(a, b) >= 0."""
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, u, v = _ext_gcd(b, a % b)
    return g, v, u - (a // b) * v


def oracle_norms(bound: float, keep) -> np.ndarray:
    """The sorted norms q = a^2 + b^2 + c^2 + d^2 <= bound of the det-1
    integer matrices (a, b, c, d) for which keep(a, b, c, d) holds, in exact
    integer arithmetic."""
    m = math.isqrt(int(bound))
    norms = []
    for a in range(-m, m + 1):
        for c in range(-m, m + 1):
            n = a * a + c * c
            g, u, v = _ext_gcd(a, c)
            if n > bound or g != 1:
                continue
            b0, d0 = -v, u  # a u + c v = 1, so a d0 - b0 c = 1
            # the solutions are (b0 + k a, d0 + k c); q is convex in k with
            # its integer minimum at the nearest integer to its vertex
            k0 = (-2 * (a * b0 + c * d0) + n) // (2 * n)
            for k, step in ((k0, 1), (k0 - 1, -1)):
                while (q := n + (b0 + k * a) ** 2 + (d0 + k * c) ** 2) <= bound:
                    if keep(a, b0 + k * a, c, d0 + k * c):
                        norms.append(q)
                    k += step
    return np.sort(np.array(norms))


def oracle_counts(radii, keep) -> np.ndarray:
    """N(R) at each radius over the det-1 integer matrices for which
    keep(a, b, c, d) holds."""
    bounds = 2.0 * np.cosh(math.sqrt(2.0) * np.asarray(radii, dtype=float))
    return np.searchsorted(oracle_norms(float(bounds.max()), keep), bounds, side="right")


def _sanov(a, b, c, d):
    return b % 2 == 0 and c % 2 == 0 and a % 4 == 1 and d % 4 == 1


def _pin_below_trust_radius(ball, keep, scale=1.0, kind=KIND_RIEMANNIAN, s=None):
    """Counts at every 0.25 step from 0 up to the trust radius equal the
    oracle's at radius R / scale, for a group whose distances of the given
    kind are `scale` times the Riemannian ones of its SL(2,Z) preimage; the
    step at 0 holds the elements at distance exactly zero."""
    rs = build_root_system(ball.spec)
    radii = np.arange(0.0, trust_radius(ball, rs), 0.25)
    curve = counting_curve(ball, rs, kind, s=s, radii=radii)
    np.testing.assert_array_equal(curve.counts, oracle_counts(radii / scale, keep))
    return radii, curve.counts


def test_oracle_counts_of_the_sanov_group():
    got = oracle_counts(np.arange(1.0, 4.51, 0.5), _sanov)
    np.testing.assert_array_equal(got, [1, 5, 5, 17, 33, 65, 133, 277])


@pytest.mark.parametrize("depth", [8, 10, 12])
def test_sanov_counts_match_the_oracle(depth):
    ball = enumerate_ball(sanov_generators(), depth)
    radii, _ = _pin_below_trust_radius(ball, _sanov)
    assert radii[-1] >= 3.75
    if depth == 12:  # its trust radius 4.4969 stops just short of 4.5
        curve = counting_curve(ball, build_root_system(ball.spec), KIND_RIEMANNIAN,
                               radii=np.arange(1.0, 4.51, 0.5))
        np.testing.assert_array_equal(curve.counts, [1, 5, 5, 17, 33, 65, 133, 277])


@pytest.mark.parametrize("depth", [8, 10, 12])
def test_product_with_a_point_counts_match_the_oracle(depth):
    """The SL(2)^2 group of acceptance criterion 5, the Sanov generators
    times the identity, has the Sanov group's distances."""
    spec = GroupSpec.product((2, 2))
    eye = ((1, 0), (0, 1))
    gens = GeneratorSet.from_elements([GroupElement(spec, (((1, 2), (0, 1)), eye)),
                                       GroupElement(spec, (((1, 0), (2, 1)), eye))])
    _pin_below_trust_radius(enumerate_ball(gens, depth), _sanov)


def test_modular_group_counts_match_the_oracle():
    """SL(2,Z) from S and T, counted where its word-length ball is complete;
    +-I and +-S sit at distance zero."""
    spec = GroupSpec.sl(2)
    s = GroupElement(spec, (((0, -1), (1, 0)),))
    t = GroupElement(spec, (((1, 1), (0, 1)),))
    radii, counts = _pin_below_trust_radius(
        enumerate_ball(GeneratorSet.from_elements([s, t]), 12), lambda *g: True)
    assert radii[-1] >= 3.0 and counts[0] == 4


@pytest.mark.parametrize("kind, s", [(KIND_RIEMANNIAN, None), (KIND_POLYHEDRAL, None),
                                     (KIND_MIXED, 1.0)])
def test_orthonormal_sym2_counts_match_the_oracle(kind, s):
    """The float orthonormal sym2 image of Gamma(2) in SL(3,R) doubles every
    Gamma(2) distance, so its counts at R are the Sanov counts at R / 2, on
    all 33 steps of its L=9 trust radius.  Its Cartan projections (2h, 0, -2h)
    lie along rho, so d' equals d, and so does the mixed distance at
    s = 1 < ||rho|| = sqrt(2), which is d'."""
    radii, counts = _pin_below_trust_radius(enumerate_ball(orthonormal_sym2_generators(), 9),
                                            _sanov, scale=2.0, kind=kind, s=s)
    assert len(radii) == 33 and radii[-1] == 8.0
    assert counts[0] == 1 and counts[-1] == 133


def _sanov_pairs(top, of_parts) -> tuple[np.ndarray, np.ndarray]:
    """The Sanov distances d1 (a column) and d2 (a row) whose pairs can lie
    within `top` at distance of_parts(d1, d2), each d_i = arccosh(q_i / 2) /
    sqrt(2) from the oracle's norms.  Every kind below grows with each d_i
    and is at least d_i / sqrt(2), so a pair within R is made of elements
    with d_i <= sqrt(2) R, that is q_i <= 2 cosh(2 R), each of whose pairs
    with the identity lies within R."""
    d = np.arccosh(oracle_norms(2.0 * math.cosh(2.0 * top), _sanov) / 2.0) / math.sqrt(2.0)
    d = d[of_parts(d, 0.0) <= top]
    return d[:, None], d[None, :]


def _sanov_pair_counts(radii, of_parts) -> np.ndarray:
    """N(R) at each radius over pairs of Sanov elements at distance
    of_parts(d1, d2)."""
    pairs = of_parts(*_sanov_pairs(radii[-1], of_parts)).ravel()
    return np.searchsorted(np.sort(pairs), radii, side="right")


def _sanov_pair_sums(radii) -> np.ndarray:
    """M_R at each radius: the sum of exp(-||rho|| d') = exp(-(d1 + d2) /
    sqrt(2)) over pairs of Sanov elements at Riemannian distance at most
    R."""
    d1, d2 = _sanov_pairs(radii[-1], _riemannian_parts)
    dist = _riemannian_parts(d1, d2).ravel()
    order = np.argsort(dist)
    sums = np.zeros(dist.size + 1)
    np.cumsum(np.exp(-_polyhedral_parts(d1, d2)).ravel()[order], out=sums[1:])
    return sums[np.searchsorted(dist[order], radii, side="right")]


def _riemannian_parts(d1, d2):
    return np.sqrt(d1 * d1 + d2 * d2)


def _polyhedral_parts(d1, d2):
    return (d1 + d2) / math.sqrt(2.0)


def _mixed_parts(d1, d2):
    return _polyhedral_parts(d1, d2) + 0.5 * _riemannian_parts(d1, d2)


def _product_lattice(depth):
    """The ball of Gamma(2) x Gamma(2) in SL(2) x SL(2) to the given word
    length, generated by (a, e), (b, e), (e, a) and (e, b)."""
    spec = GroupSpec.product((2, 2))
    eye, a, b = ((1, 0), (0, 1)), ((1, 2), (0, 1)), ((1, 0), (2, 1))
    return enumerate_ball(GeneratorSet.from_elements(
        [GroupElement(spec, blocks) for blocks in ((a, eye), (b, eye), (eye, a), (eye, b))]),
        depth)


@pytest.mark.parametrize("depth, size, steps", [(8, 139_969, [16, 12, 16]),
                                                (9, 472_393, [17, 12, 17])],
                         ids=["L8", "L9"])
def test_product_lattice_counts_match_sanov_pair_counts(depth, size, steps):
    """On Gamma(2) x Gamma(2), an element (g1, g2) lies at Riemannian distance
    d = sqrt(d1^2 + d2^2) and polyhedral distance d' = (d1 + d2) / sqrt(2),
    d_i the Sanov distance of g_i, and at mixed distance d' + d / 2 for
    s = 1.5 > ||rho|| = 1.  Each kind's counts are the oracle's pair counts
    on every 0.25 step from 0 up to its own completeness radius, capped at
    the trust radius.  A polyhedral ball of radius R reaches d up to
    sqrt(2) R, so its counts part from the pair counts beyond that radius
    (past 2.78 at L = 8) and are not pinned up to the trust radius."""
    ball = _product_lattice(depth)
    assert len(ball) == size
    rs = build_root_system(ball.spec)
    assert rs.rho_norm == pytest.approx(1.0)
    t = trust_radius(ball, rs)
    for (kind, s, of_parts), count in zip(((KIND_RIEMANNIAN, None, _riemannian_parts),
                                           (KIND_POLYHEDRAL, None, _polyhedral_parts),
                                           (KIND_MIXED, 1.5, _mixed_parts)), steps):
        radii = np.arange(0.0, min(completeness_radius(ball, rs, kind, s), t), 0.25)
        assert len(radii) == count
        curve = counting_curve(ball, rs, kind, s=s, radii=radii)
        np.testing.assert_array_equal(curve.counts, _sanov_pair_counts(radii, of_parts))


@pytest.mark.parametrize("depth, steps", [(8, 15), (9, 16)], ids=["L8", "L9"])
def test_product_lattice_mixed_sums_match_sanov_pair_sums(depth, steps, monkeypatch):
    """delta' (2.40 at L = 8) exceeds ||rho|| = 1 on Gamma(2) x Gamma(2), so
    exponent_triple fits delta'' to the weighted sums M_R of exp(-||rho||
    d') over the elements with d <= R, at delta's radii up to the trust
    radius.  Those sums are the oracle's pair sums to 1e-12 relative."""
    ball = _product_lattice(depth)
    rs = build_root_system(ball.spec)
    curves = []
    estimate = exponents.estimate_exponent
    monkeypatch.setattr(exponents, "estimate_exponent",
                        lambda curve, *args: curves.append(curve) or estimate(curve, *args))
    triple = exponents.exponent_triple(ball, rs)
    assert triple.delta_prime.value > rs.rho_norm and len(curves) == 3
    sums = curves[-1]
    assert sums.radii[-1] <= trust_radius(ball, rs) and len(sums.radii) == steps
    np.testing.assert_allclose(sums.counts, _sanov_pair_sums(sums.radii), rtol=1e-12, atol=0)
