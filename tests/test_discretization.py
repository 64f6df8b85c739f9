import numpy as np
import pytest
import scipy.sparse as sp

import cylspectra as cs
from cylspectra import discretization as disc
from cylspectra.errors import (AdmissibilityError, DimensionMismatchError,
                               QuotientUndefinedError,
                               UnsupportedExponentError)

from conftest import dense_from_band, random_field


def fd_gradient(func, values, step=1e-6):
    out = np.zeros_like(values)
    for i in range(values.size):
        up = values.copy()
        up[i] += step
        dn = values.copy()
        dn[i] -= step
        out[i] = (func(up) - func(dn)) / (2 * step)
    return out


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_energy_gradient_matches_fd(p, small_mixed_mesh, offdiag_field):
    mesh = small_mixed_mesh
    for seed in range(5):
        u = random_field(mesh, seed)
        grad = cs.energy_gradient(mesh, offdiag_field, u, p)
        fd = fd_gradient(
            lambda v: cs.energy(mesh, offdiag_field,
                                cs.DiscreteField(v, mesh), p), u.values)
        rel = np.max(np.abs(fd - grad)) / np.max(np.abs(grad))
        assert rel < 1e-6


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_mass_gradient_matches_fd(p, small_mixed_mesh):
    mesh = small_mixed_mesh
    for seed in range(5):
        u = random_field(mesh, 100 + seed)
        _, grad = cs.p_mass(mesh, u, p)
        fd = fd_gradient(
            lambda v: cs.p_mass(mesh, cs.DiscreteField(v, mesh), p)[0],
            u.values)
        rel = np.max(np.abs(fd - grad)) / np.max(np.abs(grad))
        assert rel < 1e-6


def test_zero_field(small_mixed_mesh, identity_field):
    mesh = small_mixed_mesh
    zero = cs.DiscreteField(np.zeros(mesh.n_free), mesh)
    assert cs.energy(mesh, identity_field, zero, 3.0) == 0.0
    assert np.all(cs.energy_gradient(mesh, identity_field, zero, 3.0) == 0.0)
    value, grad = cs.p_mass(mesh, zero, 3.0)
    assert value == 0.0 and np.all(grad == 0.0)
    with pytest.raises(QuotientUndefinedError):
        cs.rayleigh(mesh, identity_field, zero, 3.0)


def test_p_below_two_rejected(small_mixed_mesh, identity_field):
    u = random_field(small_mixed_mesh, 0)
    with pytest.raises(UnsupportedExponentError):
        cs.energy(small_mixed_mesh, identity_field, u, 1.5)
    with pytest.raises(UnsupportedExponentError):
        cs.p_mass(small_mixed_mesh, u, 1.9)


def test_homogeneity_exact_for_dyadic_scaling(small_mixed_mesh, offdiag_field):
    mesh = small_mixed_mesh
    u = random_field(mesh, 11)
    doubled = cs.DiscreteField(2.0 * u.values, mesh)
    for p in (2.0, 3.0, 4.0):
        assert cs.energy(mesh, offdiag_field, doubled, p) == \
            2.0 ** p * cs.energy(mesh, offdiag_field, u, p)
        assert cs.p_mass(mesh, doubled, p)[0] == 2.0 ** p * cs.p_mass(mesh, u, p)[0]
    # non-dyadic exponent: near machine precision
    e1 = cs.energy(mesh, offdiag_field, doubled, 2.5)
    e0 = cs.energy(mesh, offdiag_field, u, 2.5)
    assert e1 == pytest.approx(2.0 ** 2.5 * e0, rel=1e-13)


def test_rayleigh_scale_invariance(small_mixed_mesh, offdiag_field):
    mesh = small_mixed_mesh
    u = random_field(mesh, 5)
    scaled = cs.DiscreteField(-3.7 * u.values, mesh)
    r0 = cs.rayleigh(mesh, offdiag_field, u, 3.0)
    r1 = cs.rayleigh(mesh, offdiag_field, scaled, 3.0)
    assert r1 == pytest.approx(r0, rel=1e-12)


def test_p2_duality(small_mixed_mesh, offdiag_field):
    mesh = small_mixed_mesh
    pair = cs.assemble_p2(mesh, offdiag_field)
    K, M = pair.stiffness, pair.mass
    assert abs(K - K.T).max() < 1e-14
    assert abs(M - M.T).max() < 1e-14
    for seed in range(3):
        u = random_field(mesh, 40 + seed)
        uKu = float(u.values @ (K @ u.values))
        uMu = float(u.values @ (M @ u.values))
        assert uKu == pytest.approx(
            cs.energy(mesh, offdiag_field, u, 2.0), rel=1e-12)
        assert uMu == pytest.approx(cs.p_mass(mesh, u, 2.0)[0], rel=1e-12)
        grad = cs.energy_gradient(mesh, offdiag_field, u, 2.0)
        assert np.allclose(grad, 2.0 * (K @ u.values), rtol=1e-12, atol=1e-14)


def test_quadrature_matches_pointwise_loop(linear_field):
    # reference: textbook bilinear shape functions, summed point by point;
    # a12 = 0.8 x2 varies across the section, so coefficient placement shows
    mesh = cs.build_mesh(
        cs.DomainSpec(cs.Shape.HALF_PLUS, 1, cs.BC.HALF_CYLINDER, 3, 4))
    u = random_field(mesh, 7)
    grid, rule = u.grid(), cs.QuadratureRule()
    h1, h2 = mesh.h1, mesh.h2
    for p in (2.5, 3.0):
        E = m = 0.0
        for i in range(mesh.n_cells1):
            for j in range(mesh.n_cells2):
                c = grid[i:i + 2, j:j + 2]  # c[a, b] at (x1[i + a], x2[j + b])
                for xi, wx in zip(rule.nodes, rule.weights):
                    for eta, wy in zip(rule.nodes, rule.weights):
                        s = np.array([1 - xi, 1 + xi]) / 2
                        t = np.array([1 - eta, 1 + eta]) / 2
                        d1 = np.array([-1.0, 1.0]) / h1 @ c @ t
                        d2 = s @ c @ np.array([-1.0, 1.0]) / h2
                        a11, a12, a22 = linear_field.entries(
                            mesh.x2[j] + (eta + 1) * h2 / 2)
                        q = a11 * d1 ** 2 + 2 * a12 * d1 * d2 + a22 * d2 ** 2
                        w = wx * wy * h1 * h2 / 4
                        E += w * abs(q) ** (p / 2)
                        m += w * abs(s @ c @ t) ** p
        assert cs.energy(mesh, linear_field, u, p) == pytest.approx(E, rel=1e-13)
        assert cs.p_mass(mesh, u, p)[0] == pytest.approx(m, rel=1e-13)


def q1_matrices_1d(n_cells, h):
    """Textbook 1D Q1 stiffness, mass and cross matrix C[i, k] = int phi_i' phi_k."""
    S, M, C = (np.zeros((n_cells + 1, n_cells + 1)) for _ in range(3))
    for c in range(n_cells):
        cell = np.ix_([c, c + 1], [c, c + 1])
        S[cell] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        M[cell] += (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        C[cell] += 0.5 * np.array([[-1.0, -1.0], [1.0, 1.0]])
    return S, M, C


@pytest.mark.parametrize("shape,bc", [
    (cs.Shape.FULL_CYLINDER, cs.BC.MIXED),
    (cs.Shape.FULL_CYLINDER, cs.BC.DIRICHLET_ALL),
    (cs.Shape.HALF_PLUS, cs.BC.HALF_CYLINDER),
    (cs.Shape.HALF_MINUS, cs.BC.HALF_CYLINDER)])
@pytest.mark.parametrize("c", [0.0, 0.3])
def test_p2_matrices_closed_form(shape, bc, c):
    # independent oracle: Kronecker products of the closed-form 1D matrices
    # for constant A = [[1, c], [c, 1]] (identity and constant_offdiag)
    family = (cs.CoefficientFamily(cs.FamilyKind.IDENTITY) if c == 0.0 else
              cs.CoefficientFamily(cs.FamilyKind.CONSTANT_OFFDIAG, c))
    mesh = cs.build_mesh(cs.DomainSpec(shape, 1, bc, 3, 4))
    S1, M1, C1 = q1_matrices_1d(mesh.n_cells1, mesh.h1)
    S2, M2, C2 = q1_matrices_1d(mesh.n_cells2, mesh.h2)
    K = (np.kron(S1, M2) + np.kron(M1, S2)
         + c * (np.kron(C1, C2.T) + np.kron(C1.T, C2)))
    M = np.kron(M1, M2)
    free = ~mesh.dirichlet_mask.ravel()
    coeffs = cs.make_coefficients(family)
    pair = cs.assemble_p2(mesh, coeffs)
    # the lower band storage of cholesky_banded: (j + o, j) at ab[o, j]
    ab = disc.lapack_band(disc._p2_diagonals(mesh, coeffs)[0],
                          mesh.n_cells2, 0)
    n = ab.shape[1]
    lower = sum(np.diag(ab[o, :n - o], -o) for o in range(ab.shape[0]))
    band = lower + np.tril(lower, -1).T
    for mine, oracle in ((pair.stiffness.toarray(), K),
                         (pair.mass.toarray(), M), (band, K)):
        oracle = oracle[np.ix_(free, free)]
        np.testing.assert_allclose(mine, oracle, rtol=1e-13,
                                   atol=1e-13 * np.abs(oracle).max())


@pytest.mark.parametrize("shape,bc", [
    (cs.Shape.FULL_CYLINDER, cs.BC.MIXED),
    (cs.Shape.FULL_CYLINDER, cs.BC.DIRICHLET_ALL),
    (cs.Shape.HALF_PLUS, cs.BC.HALF_CYLINDER),
    (cs.Shape.HALF_MINUS, cs.BC.HALF_CYLINDER)])
@pytest.mark.parametrize("nx2", [4, 32])
@pytest.mark.parametrize("family", ["offdiag_field", "linear_field"])
def test_diagonal_product_is_csr_product(shape, bc, nx2, family, request):
    # the p = 2 solves apply K and M as DIA arrays; each row sums from zero
    # in ascending offset order, the column order of a CSR product, so the
    # results agree bit for bit
    coeffs = request.getfixturevalue(family)
    mesh = cs.build_mesh(cs.DomainSpec(shape, 2, bc, 4, nx2))
    u = np.random.default_rng(nx2).standard_normal(mesh.n_free)
    for A in disc._p2_diagonals(mesh, coeffs):
        assert isinstance(A, sp.dia_array)
        np.testing.assert_array_equal(A @ u, sp.csr_array(A.toarray()) @ u)


@pytest.mark.parametrize("shape,bc", [
    (cs.Shape.FULL_CYLINDER, cs.BC.MIXED),
    (cs.Shape.FULL_CYLINDER, cs.BC.DIRICHLET_ALL),
    (cs.Shape.HALF_PLUS, cs.BC.HALF_CYLINDER),
    (cs.Shape.HALF_MINUS, cs.BC.HALF_CYLINDER)])
@pytest.mark.parametrize("nx2", [4, 8])
def test_band_is_the_dia_matrix(shape, bc, nx2, linear_field):
    # the bands are copied from the DIA diagonals: every entry of the
    # matrix in its place, in the layouts of gbsv and cholesky_banded, and
    # nothing else (no entry from outside the matrix or across an x2 end)
    mesh = cs.build_mesh(cs.DomainSpec(shape, 2, bc, 4, nx2))
    bw = mesh.n_cells2
    for A in disc._p2_diagonals(mesh, linear_field):
        dense = A.toarray()
        for kl, ku, top, oracle in ((bw, bw, bw, dense),
                                    (bw, 0, 0, np.tril(dense))):
            ab = disc.lapack_band(A, kl, ku, top)
            assert ab.shape == (top + kl + ku + 1, mesh.n_free)
            np.testing.assert_array_equal(
                dense_from_band(ab, kl, ku, top), oracle)
            assert np.count_nonzero(ab) == np.count_nonzero(oracle)


SHAPES_BCS = [(cs.Shape.FULL_CYLINDER, cs.BC.MIXED),
              (cs.Shape.FULL_CYLINDER, cs.BC.DIRICHLET_ALL),
              (cs.Shape.HALF_PLUS, cs.BC.HALF_CYLINDER),
              (cs.Shape.HALF_MINUS, cs.BC.HALF_CYLINDER)]


def per_mesh_p2(mesh, coeffs):
    """The p = 2 stiffness and mass assembled from the mesh's own cell
    matrices, one column of them, into its own band, as the Newton Hessian
    is: the reference that the tiled matrices must equal bit for bit."""
    core = disc._Tensor(mesh.x1, mesh.x2)
    A = coeffs.entries(core.e2.points)
    K = sum(core.cell_matrices(A[i + j] * core.w, *core.pairs(i, j))
            for i, j in disc._GRADIENT_TERMS)
    M = core.cell_matrices(core.w, *core.pairs(None, None))
    return disc._free_diagonals(mesh, K), disc._free_diagonals(mesh, M)


def tiled_meshes(nx2, cpu, coeffs):
    """Every shape and boundary condition from one axial cell to 96 (ell
    12 at 4 cells per unit), the S-even half mesh of each full cylinder
    with a node row at x1 = 0, and the mesh of the section solve.  Among
    them: one-cell meshes, which are all end rows, and the Dirichlet
    cylinder of two cells, which has one free row."""
    from cylspectra import eigensolve as es
    for cells in (1, 2, 3, 5, 8, 13, 24, 48, 96):
        for shape, bc in SHAPES_BCS:
            if bc is cs.BC.DIRICHLET_ALL and cells == 1:
                continue  # no free node
            full = shape is cs.Shape.FULL_CYLINDER
            ell = cells / cpu / (2 if full else 1)
            mesh = cs.build_mesh(cs.DomainSpec(shape, ell, bc, cpu, nx2))
            yield mesh
            if full and cells % 2 == 0:
                yield es._FoldedQuotient(mesh, coeffs, 3.0).mesh
    yield cs.CylinderMesh(cs.DomainSpec(cs.Shape.FULL_CYLINDER, 0.25,
                                        cs.BC.MIXED, 2, nx2))


def tiling_field(name, request):
    if name == "grad_aligned":
        identity = request.getfixturevalue("identity_field")
        return cs.make_coefficients(
            cs.CoefficientFamily(cs.FamilyKind.GRAD_ALIGNED, 0.15),
            cross=cs.cross_section_ground_state(16, identity, 2))
    if name == "tabulated":  # every entry varies, a22 too
        rows = [(x, 1.0 + 0.2 * x, 0.3 - 0.4 * x, 1.0 + 0.5 * (x + 0.5) ** 2)
                for x in np.linspace(-0.5, 0.5, 7)]
        return cs.make_coefficients(cs.CoefficientFamily(
            cs.FamilyKind.TABULATED, samples=tuple(rows)))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("nx2, cpu", [(8, 2), (16, 3), (12, 5), (32, 4)])
@pytest.mark.parametrize("family", ["offdiag_field", "linear_field",
                                    "grad_aligned", "tabulated"])
def test_tiled_p2_matrices_are_the_per_mesh_assembly(nx2, cpu, family,
                                                     request):
    # one field for every mesh, so the rows cached for one mesh serve the
    # next; at 3 and 5 cells per unit the meshes' cell widths differ in the
    # last bit, and rows shared across them would not be these matrices
    coeffs = tiling_field(family, request)
    for mesh in tiled_meshes(nx2, cpu, coeffs):
        for A, B in zip(disc._p2_diagonals(mesh, coeffs),
                        per_mesh_p2(mesh, coeffs)):
            assert A.shape == B.shape
            assert np.array_equal(A.offsets, B.offsets)
            assert np.array_equal(A.data, B.data)  # ==, no tolerance


def test_p2_sweep_builds_the_rows_twice(monkeypatch):
    # twelve cylinder pencils and the six S-even half pencils of the full
    # cylinders on the family's field, and one on the section solve's own
    # field: one row build for each field, since every mesh has cells of
    # width 1/4.  Only the mixed meshes build a `_Tensor`, for the slab
    # profile and the end-mass split, and the section's
    from cylspectra import asymptotics as asy
    coeffs = cs.make_coefficients(
        cs.CoefficientFamily(cs.FamilyKind.CONSTANT_OFFDIAG, 0.3))
    calls, rows, cores = [], disc._p2_rows, []
    core = disc._core

    def counted_rows(field, nx2, h1):
        calls.append((field, rows(field, nx2, h1)))
        return calls[-1][1]

    def counted_core(mesh):
        if "_tensor" not in mesh.__dict__:
            cores.append(mesh.spec.bc)
        return core(mesh)

    monkeypatch.setattr(disc, "_p2_rows", counted_rows)
    monkeypatch.setattr(disc, "_core", counted_core)
    table = asy.sweep_lambda([2, 4, 8], coeffs, 2, (16, 4))
    assert len(table) == 3 and len(calls) == 19
    # a build returns a new array, a cache hit the one built before
    built = {id(r): field for field, r in calls}
    assert len(built) == 2
    assert sum(field is coeffs for field in built.values()) == 1
    assert cores and set(cores) == {cs.BC.MIXED}


def test_p2_rows_cache():
    coeffs = cs.make_coefficients(
        cs.CoefficientFamily(cs.FamilyKind.LINEAR_OFFDIAG, 0.8))
    rows = disc._p2_rows(coeffs, 8, 0.25)
    assert disc._p2_rows(coeffs, 8, 0.25) is rows
    assert rows.shape == (2, 3, 3, 3, 7)
    # the reflected field has rows of its own: its stiffness differs in the
    # cross terms, its mass does not
    reflected = disc._p2_rows(cs.reflect_axis(coeffs), 8, 0.25)
    assert reflected is not rows
    assert not np.array_equal(reflected[0], rows[0])
    assert np.array_equal(reflected[1], rows[1])
    with pytest.raises(ValueError):
        rows[0, 1, 1, 1, 0] = 1.0
    # every tile is a fresh array: writing into one changes no other tile
    # of the mesh and not the cache.  The stiffness and the mass share no
    # memory, so a caller that keeps only the stiffness frees the mass
    mesh = cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 8))
    cached = rows.copy()
    first = disc._p2_diagonals(mesh, coeffs)
    second = disc._p2_diagonals(mesh, coeffs)
    assert not np.shares_memory(first[0].data, first[1].data)
    kept = [A.data.copy() for A in second]
    for A in first:
        A.data[...] = 7.0
    assert all(np.array_equal(A.data, d) for A, d in zip(second, kept))
    assert np.array_equal(disc._p2_rows(coeffs, 8, 0.25), cached)


def s_even_fold(bc, ell, nx2, coeffs):
    """`eigensolve._FoldedQuotient` of a full cylinder at 4 cells per unit
    and p = 3, and its Q as a dense matrix from the k unknowns to the free
    DOFs of the left half, its `mesh`."""
    from cylspectra import eigensolve as es
    mesh = cs.build_mesh(cs.DomainSpec(cs.Shape.FULL_CYLINDER, ell, bc, 4,
                                       nx2))
    fold = es._FoldedQuotient(mesh, coeffs, 3.0)
    Q = np.zeros((fold.mesh.n_free, fold.k))
    Q[np.arange(fold.mesh.n_free), fold.gather] = 1.0
    return mesh, fold, Q


@pytest.mark.parametrize("bc", [cs.BC.MIXED, cs.BC.DIRICHLET_ALL])
@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("nx2", [4, 5, 8])
def test_folded_band_is_q_transpose_a_q(bc, ell, nx2, offdiag_field):
    # the Hessian and the stiffness of the left half, folded into the gbsv
    # band of the k unknowns (an even and an odd count of section nodes)
    from cylspectra import eigensolve as es
    _, fold, Q = s_even_fold(bc, ell, nx2, offdiag_field)
    problem = es._CylinderQuotient(fold.mesh, offdiag_field, 3.0)
    v = 1.0 + np.random.default_rng(nx2).random(fold.k)[fold.gather]
    S = problem.state(v)
    E, _, m, _ = problem.gradient(S)
    z = np.random.default_rng(ell).standard_normal(fold.k)
    bw = nx2
    for H in (problem.hessian(S, E / m), problem.stiffness()):
        A, oracle = disc.FoldedMatrix(H, fold), Q.T @ H.toarray() @ Q
        assert max(A.offsets) == bw and A.shape == (fold.k, fold.k)
        scale = np.abs(oracle).max()
        np.testing.assert_allclose(
            dense_from_band(disc.lapack_band(A, bw, bw, bw), bw, bw, bw),
            oracle, rtol=0, atol=1e-15 * scale)
        np.testing.assert_allclose(A.diagonal(), np.diag(oracle), rtol=0,
                                   atol=1e-15 * scale)
        np.testing.assert_allclose(A @ z, oracle @ z, rtol=0,
                                   atol=1e-14 * scale * np.abs(z).sum())


@pytest.mark.parametrize("bc", [cs.BC.MIXED, cs.BC.DIRICHLET_ALL])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_s_even_energy_is_twice_the_half(bc, p, offdiag_field):
    mesh, fold, _ = s_even_fold(bc, 3, 8, offdiag_field)
    y = 1.0 + np.random.default_rng(3).random(fold.k)
    u = fold.unfold(y)
    assert np.array_equal(u, u[::-1]) and np.array_equal(u[:fold.k], y)
    whole, half = mesh.expand(u), fold.mesh.expand(y[fold.gather])
    assert cs.energy(mesh, offdiag_field, whole, p) == pytest.approx(
        2.0 * cs.energy(fold.mesh, offdiag_field, half, p), rel=1e-14)
    assert disc.p_mass(mesh, whole, p)[0] == pytest.approx(
        2.0 * disc.p_mass(fold.mesh, half, p)[0], rel=1e-14)


def test_mass_matrix_positive_definite(small_mixed_mesh, identity_field):
    pair = cs.assemble_p2(small_mixed_mesh, identity_field)
    import scipy.sparse.linalg as spla
    smallest = spla.eigsh(pair.mass, k=1, which="SA",
                          return_eigenvectors=False)
    assert smallest[0] > 0


def test_lift_rayleigh_is_cross_value(identity_field):
    mesh = cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 32))
    for p in (2.0, 3.0, 4.0):
        cross = cs.cross_section_ground_state(32, identity_field, p)
        lift = cs.lift_cross_section(cross, mesh)
        assert cs.p_mass(mesh, lift, p)[0] == pytest.approx(1.0, abs=1e-12)
        assert cs.rayleigh(mesh, identity_field, lift, p) == \
            pytest.approx(cross.mu1, rel=1e-12)
        grid = lift.grid()
        assert np.allclose(grid, grid[0][None, :])  # x1-independent


def test_lift_requires_mixed(identity_field):
    cross = cs.cross_section_ground_state(16, identity_field, 2)
    mesh = cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.DIRICHLET_ALL, 4, 16))
    with pytest.raises(AdmissibilityError):
        cs.lift_cross_section(cross, mesh)


def test_field_and_section_sizes_checked(identity_field):
    mesh = cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
    with pytest.raises(DimensionMismatchError):
        cs.DiscreteField(np.ones(mesh.n_free + 1), mesh)
    cross = cs.cross_section_ground_state(8, identity_field, 2)
    with pytest.raises(DimensionMismatchError):
        cs.lift_cross_section(cross, mesh)


def test_separated_dirichlet_mode(identity_field):
    # first Dirichlet eigenvalue on (-2,2)x(-1/2,1/2): pi^2 + (pi/4)^2 + O(h^2)
    mesh = cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.DIRICHLET_ALL, 8, 32))
    pair = cs.assemble_p2(mesh, identity_field)
    import scipy.sparse.linalg as spla
    lam = spla.eigsh(pair.stiffness, k=1, M=pair.mass, sigma=0,
                     which="LM", return_eigenvectors=False)[0]
    exact = np.pi ** 2 + (np.pi / 4) ** 2
    assert lam == pytest.approx(exact, rel=2e-3)


def test_ellipticity_transfer(small_mixed_mesh, offdiag_field):
    mesh = small_mixed_mesh
    margin = offdiag_field.lambda_margin
    for p in (2.0, 3.0):
        for seed in range(3):
            u = random_field(mesh, 60 + seed)
            e = cs.energy(mesh, offdiag_field, u, p)
            plain = cs.grad_p_norm(mesh, u, p)
            assert e >= margin ** (p / 2.0) * plain * (1 - 1e-12)


def test_rayleigh_poincare_lower_bound(offdiag_field):
    # quotient >= margin^{p/2} * mu1(plain cross problem) for lateral-zero fields
    mesh = cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, 1, cs.BC.MIXED, 3, 16))
    for p in (2.0, 3.0):
        cross_plain = cs.cross_section_ground_state(
            16, cs.make_coefficients(
                cs.CoefficientFamily(cs.FamilyKind.IDENTITY)), p)
        bound = offdiag_field.lambda_margin ** (p / 2.0) * \
            cross_plain.poincare_cp ** (-p)
        for seed in range(4):
            u = random_field(mesh, 80 + seed)
            assert cs.rayleigh(mesh, offdiag_field, u, p) >= bound * (1 - 1e-10)


def test_quadrature_rule_validation():
    rule = cs.QuadratureRule()
    assert rule.points_per_dir == rule.nodes.size == rule.weights.size == 3
    assert rule.weights.sum() == pytest.approx(2.0)


def test_quadrature_polynomial_exactness():
    # exact up to degree 2n-1 on [-1, 1]
    rule = cs.QuadratureRule()
    n = rule.points_per_dir
    for degree in range(2 * n):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        approx = float(np.sum(rule.weights * rule.nodes ** degree))
        assert approx == pytest.approx(exact, abs=1e-14)
