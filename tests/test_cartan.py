"""Cartan projection and distance comparisons on random bounded words."""

import math

import numpy as np
import pytest

from orbispec import (GroupElement, GroupSpec, NumericalError, build_root_system,
                      cartan_projection, distance_mixed, distance_polyhedral,
                      distance_riemannian, log_singular_values, relative_position)
from orbispec.cartan import stack_product

from conftest import random_sl3_words

SQRT2 = np.sqrt(2.0)


def oracle_log_sv(mat):
    """Independent oracle: eigenvalues of M^T M via a symmetric solver."""
    w = np.linalg.eigvalsh(np.asarray(mat, float).T @ np.asarray(mat, float))
    logs = 0.5 * np.log(np.sort(w)[::-1])
    return logs - logs.mean()


def test_projection_identity_is_zero():
    g = GroupElement.identity(GroupSpec.sl(3))
    np.testing.assert_allclose(cartan_projection(g).coords, 0.0, atol=1e-14)


def test_projection_diagonal_float():
    spec = GroupSpec.sl(2, "float")
    g = GroupElement(spec, (((math.e, 0.0), (0.0, 1.0 / math.e)),))
    np.testing.assert_allclose(cartan_projection(g).coords, [1.0, -1.0], atol=1e-12)


def test_projection_symmetric_integer_matrix():
    g = GroupElement(GroupSpec.sl(2), (((2, 1), (1, 1)),))
    want = math.log((3 + math.sqrt(5)) / 2)
    np.testing.assert_allclose(cartan_projection(g).coords, [want, -want], atol=1e-12)
    np.testing.assert_allclose(cartan_projection(g).coords,
                               oracle_log_sv(g.float_blocks()[0]), atol=1e-10)


def test_projection_of_large_exact_element():
    """[[3,8],[1,3]]^11 has entries near 3.7e8, where ad - bc in float64
    cancels; an exact element is projected with determinant 1."""
    g = h = GroupElement(GroupSpec.sl(2), (((3, 8), (1, 3)),))
    for _ in range(10):
        h = h @ g
    want = math.log(np.linalg.svd(h.float_blocks()[0], compute_uv=False)[0])
    assert want == pytest.approx(19.85457554, abs=1e-8)
    assert cartan_projection(h).coords[0] == pytest.approx(want, rel=1e-12)


def test_projection_matches_svd_oracle_on_random_words():
    rng = np.random.default_rng(11)
    words = random_sl3_words(rng, 200, length=6)
    spec = GroupSpec.sl(3)
    for mat in words[:50]:
        g = GroupElement(spec, (tuple(tuple(int(x) for x in row) for row in mat),))
        np.testing.assert_allclose(cartan_projection(g).coords,
                                   oracle_log_sv(mat), atol=1e-9)


def test_distances_diag_examples():
    spec = GroupSpec.sl(2, "float")
    g = GroupElement(spec, (((math.e, 0.0), (0.0, 1.0 / math.e)),))
    assert distance_riemannian(g) == pytest.approx(SQRT2, abs=1e-12)
    assert distance_riemannian(g, g) == pytest.approx(0.0, abs=1e-9)

    spec3 = GroupSpec.sl(3, "float")
    rs3 = build_root_system(spec3)
    x = GroupElement(spec3, (((math.e**2, 0, 0), (0, math.e, 0), (0, 0, math.e**-3)),))
    assert distance_riemannian(x) == pytest.approx(math.sqrt(14), abs=1e-12)
    # polyhedral pairing <(1,0,-1), (2,1,-3)> / sqrt(2)
    assert distance_polyhedral(rs3, x) == pytest.approx(5 / SQRT2, abs=1e-12)
    # rank one: polyhedral = riemannian
    rs2 = build_root_system(spec)
    assert distance_polyhedral(rs2, g) == pytest.approx(distance_riemannian(g), abs=1e-12)


def test_distance_mixed_branches():
    spec3 = GroupSpec.sl(3, "float")
    rs3 = build_root_system(spec3)
    x = GroupElement(spec3, (((math.e**2, 0, 0), (0, math.e, 0), (0, 0, math.e**-3)),))
    dp, dd = 5 / SQRT2, math.sqrt(14)
    assert distance_mixed(rs3, 1.0, x) == pytest.approx(1.0 * dp, abs=1e-12)
    assert distance_mixed(rs3, 2.0, x) == pytest.approx(SQRT2 * dp + (2 - SQRT2) * dd, abs=1e-12)
    # continuity at s = ||rho||: both branches agree
    assert distance_mixed(rs3, rs3.rho_norm, x) == pytest.approx(rs3.rho_norm * dp, abs=1e-12)
    with pytest.raises(ValueError):
        distance_mixed(rs3, 0.0, x)
    with pytest.raises(ValueError):
        distance_mixed(rs3, -1.0, x)


def test_polyhedral_symmetry_under_inverse():
    spec = GroupSpec.sl(3)
    rs = build_root_system(spec)
    rng = np.random.default_rng(3)
    for mat in random_sl3_words(rng, 20, length=7):
        g = GroupElement(spec, (tuple(tuple(int(v) for v in row) for row in mat),))
        assert distance_polyhedral(rs, g) == pytest.approx(
            distance_polyhedral(rs, g.inverse()), abs=1e-9)


def _chamber_batch(mats):
    return log_singular_values(np.asarray(mats, dtype=float))


def test_triangle_inequality_polyhedral_sl3():
    """d'(x,z) <= d'(x,y) + d'(y,z) on 10^4 random triples."""
    rng = np.random.default_rng(2024)
    n = 10_000
    rs = build_root_system(GroupSpec.sl(3))
    xs = random_sl3_words(rng, n).astype(float)
    ys = random_sl3_words(rng, n).astype(float)
    zs = random_sl3_words(rng, n).astype(float)

    def dprime(a, b):
        rel = np.linalg.solve(b, a)
        return _chamber_batch(rel) @ rs.rho / rs.rho_norm

    dxz = dprime(xs, zs)
    dxy = dprime(xs, ys)
    dyz = dprime(ys, zs)
    assert np.all(dxz <= dxy + dyz + 1e-9)


def test_cartan_subadditivity_fundamental_weights():
    """<lambda, (xy)^+> <= <lambda, x^+> + <lambda, y^+> for both weights."""
    rng = np.random.default_rng(5)
    n = 10_000
    rs = build_root_system(GroupSpec.sl(3))
    xs = random_sl3_words(rng, n).astype(float)
    ys = random_sl3_words(rng, n).astype(float)
    hx = _chamber_batch(xs)
    hy = _chamber_batch(ys)
    hxy = _chamber_batch(np.einsum("nij,njk->nik", xs, ys))
    for lam in rs.fundamental_weights:
        assert np.all(hxy @ lam <= hx @ lam + hy @ lam + 1e-9)


def test_cartan_defect_in_positive_root_cone():
    """x^+ + y^+ - (xy)^+ expands non-negatively in the simple roots,
    i.e. its partial sums within each block are non-negative."""
    rng = np.random.default_rng(6)
    n = 5_000
    xs = random_sl3_words(rng, n).astype(float)
    ys = random_sl3_words(rng, n).astype(float)
    defect = (_chamber_batch(xs) + _chamber_batch(ys)
              - _chamber_batch(np.einsum("nij,njk->nik", xs, ys)))
    partial = np.cumsum(defect, axis=1)
    assert np.all(partial[:, :-1] >= -1e-9)
    np.testing.assert_allclose(partial[:, -1], 0.0, atol=1e-9)


def test_sandwich_polyhedral_vs_riemannian():
    """(rho_min/||rho||) d <= d' <= d, and s d' <= d''_s <= s d."""
    rng = np.random.default_rng(8)
    n = 10_000
    rs = build_root_system(GroupSpec.sl(3))
    ratio = rs.rho_min / rs.rho_norm
    assert ratio == pytest.approx(np.sqrt(6) / 2 / SQRT2, abs=1e-12)
    h = _chamber_batch(random_sl3_words(rng, n).astype(float))
    dd = np.linalg.norm(h, axis=1)
    dp = h @ rs.rho / rs.rho_norm
    assert np.all(ratio * dd <= dp + 1e-9)
    assert np.all(dp <= dd + 1e-9)
    for s in (0.3, rs.rho_norm, 1.7, 2 * rs.rho_norm):
        dm = np.minimum(s, rs.rho_norm) * dp + np.maximum(s - rs.rho_norm, 0.0) * dd
        assert np.all(s * dp <= dm + 1e-9)
        assert np.all(dm <= s * dd + 1e-9)


def test_invariance_under_left_translation():
    rng = np.random.default_rng(9)
    n = 2_000
    rs = build_root_system(GroupSpec.sl(3))
    xs = random_sl3_words(rng, n).astype(float)
    ys = random_sl3_words(rng, n).astype(float)
    g = random_sl3_words(rng, 1).astype(float)[0]
    rel = np.linalg.solve(ys, xs)
    rel_g = np.linalg.solve(np.einsum("ij,njk->nik", g, ys),
                            np.einsum("ij,njk->nik", g, xs))
    h, hg = _chamber_batch(rel), _chamber_batch(rel_g)
    dd, ddg = np.linalg.norm(h, axis=1), np.linalg.norm(hg, axis=1)
    np.testing.assert_allclose(dd, ddg, atol=1e-9)
    np.testing.assert_allclose(h @ rs.rho, hg @ rs.rho, atol=1e-9)
    for s in (0.7, 2.1):
        dm = np.minimum(s, rs.rho_norm) * (h @ rs.rho / rs.rho_norm) \
            + np.maximum(s - rs.rho_norm, 0.0) * dd
        dmg = np.minimum(s, rs.rho_norm) * (hg @ rs.rho / rs.rho_norm) \
            + np.maximum(s - rs.rho_norm, 0.0) * ddg
        np.testing.assert_allclose(dm, dmg, atol=1e-9)


def test_element_validation_and_arithmetic():
    spec = GroupSpec.sl(2)
    with pytest.raises(ValueError, match="determinant"):
        GroupElement(spec, (((2, 0), (0, 2)),))
    with pytest.raises(ValueError, match="integer"):
        GroupElement(spec, (((1.5, 0), (0, 1.5)),))
    a = GroupElement(spec, (((1, 2), (0, 1)),))
    assert (a @ a.inverse()).is_identity
    assert a.inverse().blocks[0] == ((1, -2), (0, 1))
    with pytest.raises(ValueError, match="different groups"):
        a @ GroupElement.identity(GroupSpec.sl(3))
    # rational mode round-trips p/q strings
    specq = GroupSpec.sl(2, "exact-rational")
    q = GroupElement(specq, ((("3/2", "1/2"), ("1", "1")),))
    assert (q @ q.inverse()).is_identity


@pytest.mark.parametrize("arithmetic", ["exact-int", "exact-rational", "float"])
def test_boolean_entries_rejected_in_every_mode(arithmetic):
    with pytest.raises(ValueError, match="must be numbers"):
        GroupElement(GroupSpec.sl(2, arithmetic), (((True, 2), (False, True)),))


def test_equality_ignores_word_length():
    """Two elements with one matrix are equal and hash alike, whatever word
    length an orbit ball recorded for either."""
    spec = GroupSpec.sl(2)
    identity = GroupElement.identity(spec)
    assert identity.word_length == 0
    assert identity == GroupElement(spec, (((1, 0), (0, 1)),))
    g = GroupElement(spec, (((1, 2), (0, 1)),), word_length=1)
    h = GroupElement(spec, (((1, 2), (0, 1)),))
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1


def test_relative_position_mismatched_specs():
    with pytest.raises(ValueError):
        relative_position(GroupElement.identity(GroupSpec.sl(2)),
                          GroupElement.identity(GroupSpec.sl(3)))


def test_entry_cap_rejected():
    big = np.array([[[1e16, 0.0], [0.0, 1e-16]]])
    with pytest.raises(NumericalError, match="exceed"):
        log_singular_values(big)
    with pytest.raises(NumericalError):
        log_singular_values(np.array([[[np.nan, 0.0], [0.0, 1.0]]]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"), (np.inf, "non-finite"),
                                          (-np.inf, "non-finite"), (-2e15, "exceed")],
                         ids=["nan", "+inf", "-inf", "-2e15"])
def test_entry_checks_on_either_sign(n, bad, message):
    """The checks see one bad entry anywhere in the stack, negative ones
    included, and an empty stack passes them."""
    stack = np.broadcast_to(np.eye(n), (4, n, n)).copy()
    stack[2, n - 1, 0] = bad
    with pytest.raises(NumericalError, match=message):
        log_singular_values(stack)
    assert log_singular_values(np.empty((0, n, n))).shape == (0, n)


def _broadcast_sum_product(a, b):
    """The broadcast sum stack_product replaced: each entry adds its n
    products over j to the integer 0, so it starts at +0.0."""
    return sum(a[..., j, None] * b[..., None, j, :] for j in range(a.shape[-1]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("form", ["fixed-left", "walk"])
def test_stack_product_matches_the_broadcast_sum_bit_for_bit(n, form):
    """Both call forms: a fixed left factor (the base-point table's x^-1
    gamma) and the walk's (nf, 1, n, n) frontier times (ng, n, n) generators.
    Entries are non-integral, from 1e-3 to 1e9 of either sign, with rows of
    +0.0 and -0.0, so that some entries are sums of -0.0 products only and
    must come out +0.0."""
    rng = np.random.default_rng(13 + n)

    def entries(*lead):
        x = 10.0 ** rng.uniform(-3, 9, size=lead + (n, n))
        return x * rng.choice([-1.0, 1.0], size=x.shape)

    if form == "fixed-left":
        a, b = entries(), entries(600)
        a[0] = -0.0
        a[1] = 0.0
    else:
        a, b = entries(80, 1), entries(7)
        a[:20, :, 0] = -0.0
        a[20:40, :, n - 1] = 0.0
    want = _broadcast_sum_product(a, b)
    assert ((want == 0) & ~np.signbit(want)).any()  # +0.0 sums of -0.0 products
    got = stack_product(a, b)
    assert got.shape == want.shape
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()
