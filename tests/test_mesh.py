import numpy as np
import pytest

import cylspectra as cs
from cylspectra.errors import ConfigurationError, DimensionMismatchError
from cylspectra.mesh import slab_count


def spec(shape, ell, bc, cpu=4, nx2=4):
    return cs.DomainSpec(shape, ell, bc, cpu, nx2)


def test_mixed_mesh_counts():
    mesh = cs.build_mesh(spec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED))
    assert mesh.x1.size == 17 and mesh.x2.size == 5
    assert mesh.n_free == 17 * 3 == 51


def test_dirichlet_mesh_counts():
    mesh = cs.build_mesh(spec(cs.Shape.FULL_CYLINDER, 2, cs.BC.DIRICHLET_ALL))
    assert mesh.n_free == 15 * 3 == 45


def test_half_plus_mesh_counts():
    mesh = cs.build_mesh(spec(cs.Shape.HALF_PLUS, 2, cs.BC.HALF_CYLINDER))
    assert mesh.x1.size == 9 and mesh.x2.size == 5
    assert mesh.n_free == 8 * 3 == 24


def test_mask_enumeration_mixed():
    mesh = cs.build_mesh(spec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED))
    lateral = np.zeros_like(mesh.dirichlet_mask)
    lateral[:, 0] = lateral[:, -1] = True
    assert np.array_equal(mesh.dirichlet_mask, lateral)


def test_mask_enumeration_half_minus():
    mesh = cs.build_mesh(spec(cs.Shape.HALF_MINUS, 2, cs.BC.HALF_CYLINDER))
    expected = np.zeros_like(mesh.dirichlet_mask)
    expected[:, 0] = expected[:, -1] = True
    expected[0, :] = True  # far end at x1 = -ell
    assert np.array_equal(mesh.dirichlet_mask, expected)
    assert mesh.dirichlet_mask[-1, 1:-1].sum() == 0  # natural end free


def test_invalid_combinations_rejected():
    with pytest.raises(ConfigurationError):
        spec(cs.Shape.FULL_CYLINDER, 2, cs.BC.HALF_CYLINDER)
    with pytest.raises(ConfigurationError):
        spec(cs.Shape.HALF_PLUS, 2, cs.BC.MIXED)
    with pytest.raises(ConfigurationError):
        spec(cs.Shape.FULL_CYLINDER, -1, cs.BC.MIXED)
    with pytest.raises(ConfigurationError):
        spec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, cpu=1)
    with pytest.raises(ConfigurationError):
        spec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, nx2=3)
    with pytest.raises(ConfigurationError):
        cs.build_mesh(spec(cs.Shape.CROSS_SECTION, 1, cs.BC.DIRICHLET_ALL))
    # the spec checks whole cells: 2.125 is 17 cells of a full cylinder at
    # 4 per unit but 8.5 of a half one, 2.1 is 16.8 of a full one; the
    # cross section has no axis to cut
    spec(cs.Shape.FULL_CYLINDER, 2.125, cs.BC.MIXED)
    spec(cs.Shape.CROSS_SECTION, 2.1, cs.BC.DIRICHLET_ALL)
    with pytest.raises(ConfigurationError, match="whole number of cells"):
        spec(cs.Shape.HALF_PLUS, 2.125, cs.BC.HALF_CYLINDER)
    with pytest.raises(ConfigurationError, match="whole number of cells"):
        spec(cs.Shape.FULL_CYLINDER, 2.1, cs.BC.DIRICHLET_ALL)


def test_slab_edges_unit_spacing():
    mesh = cs.build_mesh(spec(cs.Shape.FULL_CYLINDER, 3, cs.BC.MIXED))
    assert np.allclose(mesh.slab_edges, np.arange(-3, 4))
    half = cs.build_mesh(spec(cs.Shape.HALF_PLUS, 2, cs.BC.HALF_CYLINDER))
    assert np.allclose(half.slab_edges, [0, 1, 2])


def test_expand_restrict_roundtrip():
    mesh = cs.build_mesh(spec(cs.Shape.FULL_CYLINDER, 1, cs.BC.MIXED))
    values = np.arange(mesh.n_free, dtype=float)
    grid = mesh.expand(values)
    assert np.all(grid[:, 0] == 0) and np.all(grid[:, -1] == 0)
    assert np.array_equal(mesh.restrict(grid), values)
    for shape in ((mesh.n_free - 1,), (mesh.n_free + 1,), (mesh.n_free, 1)):
        with pytest.raises(DimensionMismatchError, match="free values"):
            mesh.expand(np.zeros(shape))
    n1, n2 = grid.shape
    for shape in ((n1, n2 + 1), (n1 - 1, n2), (n1 * n2,)):
        with pytest.raises(DimensionMismatchError, match="grid of shape"):
            mesh.restrict(np.zeros(shape))


def test_refinement_keeps_boundary_semantics():
    coarse = cs.build_mesh(spec(cs.Shape.HALF_PLUS, 2, cs.BC.HALF_CYLINDER, 4, 4))
    fine = cs.build_mesh(spec(cs.Shape.HALF_PLUS, 2, cs.BC.HALF_CYLINDER, 8, 8))
    for mesh in (coarse, fine):
        assert np.all(mesh.dirichlet_mask[:, 0])
        assert np.all(mesh.dirichlet_mask[:, -1])
        assert np.all(mesh.dirichlet_mask[-1, :])
        assert not np.any(mesh.dirichlet_mask[0, 1:-1])


# ell 2.25: 4.5 units long, so the last of the 5 slabs is half wide
@pytest.mark.parametrize("ell, n_slabs", [(2, 4), (2.25, 5)])
def test_slab_sums_match_totals(identity_field, ell, n_slabs):
    mesh = cs.build_mesh(spec(cs.Shape.FULL_CYLINDER, ell, cs.BC.MIXED, 4, 8))
    assert slab_count(2 * ell) == len(mesh.slab_edges) - 1
    assert mesh.slab_edges[-1] == ell
    rng = np.random.default_rng(3)
    u = cs.DiscreteField(rng.standard_normal(mesh.n_free), mesh)
    for p in (2.0, 3.0):
        prof = cs.slab_integrals(mesh, identity_field, u, p)
        assert len(prof) == n_slabs
        total_mass = cs.p_mass(mesh, u, p)[0]
        total_grad = cs.grad_p_norm(mesh, u, p)
        assert prof.p_mass.sum() == pytest.approx(total_mass, rel=1e-12)
        assert prof.grad_energy.sum() == pytest.approx(total_grad, rel=1e-12)


def test_slab_profile_constant_field(identity_field):
    # test mode: a raw grid bypasses the Dirichlet mask
    mesh = cs.build_mesh(spec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 8))
    c = 1.7
    grid = np.full((mesh.x1.size, mesh.x2.size), c)
    prof = cs.slab_integrals(mesh, identity_field, grid, 3.0)
    slab_area = 1.0 * 1.0
    assert np.allclose(prof.p_mass, abs(c) ** 3 * slab_area, rtol=1e-12)
    assert np.allclose(prof.grad_energy, 0.0, atol=1e-14)


def test_slab_profile_lifted_state_uniform(identity_field):
    mesh = cs.build_mesh(spec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
    cross = cs.cross_section_ground_state(16, identity_field, 2)
    lift = cs.lift_cross_section(cross, mesh)
    prof = cs.slab_integrals(mesh, identity_field, lift, 2.0)
    assert np.allclose(prof.grad_energy, prof.grad_energy[0], rtol=1e-12)
    assert np.allclose(prof.p_mass, prof.p_mass[0], rtol=1e-12)
