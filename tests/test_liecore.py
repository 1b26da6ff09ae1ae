"""Root-system data, chamber vectors, and rho_min against independent oracles."""

import itertools

import numpy as np
import pytest

from orbispec import ChamberVector, GroupSpec, UnsupportedGroupError, build_root_system

SQRT2 = np.sqrt(2.0)


def oracle_positive_roots(ns):
    """Independent block-diagonal enumeration of e_i - e_j, i < j."""
    dim = sum(ns)
    roots, off = [], 0
    for n in ns:
        for i, j in itertools.combinations(range(n), 2):
            v = np.zeros(dim)
            v[off + i], v[off + j] = 1.0, -1.0
            roots.append(v)
        off += n
    return roots


@pytest.mark.parametrize("ns,rank,dim_x,rho,rho_norm", [
    ((2,), 1, 2, (0.5, -0.5), 1 / SQRT2),
    ((3,), 2, 5, (1.0, 0.0, -1.0), SQRT2),
    ((2, 2), 2, 4, (0.5, -0.5, 0.5, -0.5), 1.0),
])
def test_root_system_examples(ns, rank, dim_x, rho, rho_norm):
    rs = build_root_system(GroupSpec.product(ns))
    assert rs.rank == rank
    assert rs.dim_x == dim_x
    assert rs.ambient_dim == sum(ns)
    np.testing.assert_allclose(rs.rho, rho, atol=1e-15)
    assert rs.rho_norm == pytest.approx(rho_norm, abs=1e-14)
    # half sum of the independently enumerated roots
    want = 0.5 * np.sum(oracle_positive_roots(ns), axis=0)
    np.testing.assert_allclose(rs.rho, want, atol=1e-15)


@pytest.mark.parametrize("ns", [(2,), (3,), (4,), (2, 2), (2, 3)])
def test_rho_recomputed_from_stored_roots(ns):
    rs = build_root_system(GroupSpec.product(ns))
    recomputed = 0.5 * sum(rs.positive_roots)
    np.testing.assert_allclose(recomputed, rs.rho, atol=1e-12)
    # type A is reduced with every multiplicity 1: a root is a bare vector
    assert all(a.shape == (rs.ambient_dim,) for a in rs.positive_roots)
    assert rs.dim_x == rs.rank + len(rs.positive_roots)


@pytest.mark.parametrize("ns,value", [
    ((2,), 1 / SQRT2),        # rank one: rho_min = ||rho||
    ((3,), np.sqrt(6) / 2),
    ((2, 2), 1 / SQRT2),
])
def test_rho_min_values(ns, value):
    rs = build_root_system(GroupSpec.product(ns))
    assert rs.rho_min == pytest.approx(value, abs=1e-12)
    assert 0 < rs.rho_min <= rs.rho_norm + 1e-15


@pytest.mark.parametrize("ns", [(2,), (3,), (4,), (2, 2), (2, 3)])
def test_rho_min_grid_oracle(ns):
    """rho_min lower-bounds <rho, H>/||H|| over random chamber vectors and is
    attained on the extreme rays."""
    rs = build_root_system(GroupSpec.product(ns))
    rng = np.random.default_rng(7)
    rays = np.vstack(rs.chamber_rays)
    coeffs = rng.random((10_000, len(rays)))
    hs = coeffs @ rays
    norms = np.linalg.norm(hs, axis=1)
    vals = hs @ rs.rho / norms
    assert np.all(vals >= rs.rho_min - 1e-9)
    ray_vals = rays @ rs.rho
    assert abs(ray_vals.min() - rs.rho_min) < 1e-6


def test_rho_min_rank_one_equals_norm():
    rs = build_root_system(GroupSpec.sl(2))
    assert rs.rho_min == pytest.approx(rs.rho_norm, abs=1e-15)


@pytest.mark.parametrize("ns", [(2,), (3,), (4,), (2, 2), (2, 3)])
def test_longest_element_fixes_rho(ns):
    """-w0 reverses and negates each block, and fixes rho on every block."""
    rs = build_root_system(GroupSpec.product(ns))
    for sl in rs.spec.block_slices:
        np.testing.assert_array_equal(-rs.rho[sl][::-1], rs.rho[sl])


def test_chamber_vector_validation():
    spec = GroupSpec.sl(3)
    with pytest.raises(ValueError, match="non-increasing"):
        ChamberVector(spec, np.array([0.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        ChamberVector(spec, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="not trace-free"):
        ChamberVector(GroupSpec.sl(2), [1.0, 0.5])
    cv = ChamberVector(spec, np.array([1.0, 0.0, -1.0]))
    assert cv.norm == pytest.approx(SQRT2)
    assert not cv.coords.flags.writeable


def test_group_spec_validation():
    with pytest.raises(UnsupportedGroupError):
        GroupSpec.product(())
    with pytest.raises(UnsupportedGroupError):
        GroupSpec.product((1,))
    with pytest.raises(UnsupportedGroupError):
        GroupSpec.sl(2, "interval")
    spec = GroupSpec.product((2, 3))
    assert spec.ambient_dim == 5
    assert spec.block_slices == (slice(0, 2), slice(2, 5))
    assert spec.entry_slices == (slice(0, 4), slice(4, 13))
    assert spec.entry_count == 13
