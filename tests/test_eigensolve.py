import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import cylspectra as cs
from cylspectra import asymptotics as asy
from cylspectra import discretization as disc
from cylspectra import eigensolve as es
from cylspectra.errors import DimensionMismatchError, SolverError


RES = (16, 4)


def one_d_ground_state_oracle(p):
    """First eigenvalue of -( |u'|^{p-2} u' )' = lam |u|^{p-2} u on (0,1),
    Dirichlet ends, by shooting; independent of the element machinery."""

    def endpoint(lam):
        def rhs(x, y):
            u, v = y  # v = |u'|^{p-2} u'
            up = np.sign(v) * np.abs(v) ** (1.0 / (p - 1.0))
            return [up, -lam * np.sign(u) * np.abs(u) ** (p - 1.0)]

        sol = solve_ivp(rhs, [0.0, 1.0], [0.0, 1.0], rtol=1e-11, atol=1e-13)
        return sol.y[0, -1]

    return brentq(endpoint, 2.0, 60.0, xtol=1e-10)


def dense_section_pencil(a22, nx2):
    """The interior-node pencil (K, M) of the 1D problem with coefficient
    a22: piecewise-linear elements on nx2 uniform cells, each integrated by
    the 3-point Gauss rule, assembled densely."""
    g, w = np.polynomial.legendre.leggauss(3)
    h = 1.0 / nx2
    N = np.stack([(1.0 - g) / 2.0, (1.0 + g) / 2.0])
    dN = np.stack([-np.ones(3), np.ones(3)]) / h
    K, M = np.zeros((nx2 + 1, nx2 + 1)), np.zeros((nx2 + 1, nx2 + 1))
    for c in range(nx2):
        x = -0.5 + h * (c + (g + 1.0) / 2.0)
        wc = w * h / 2.0
        K[c:c + 2, c:c + 2] += (dN * (a22(x) * wc)) @ dN.T
        M[c:c + 2, c:c + 2] += (N * wc) @ N.T
    return K[1:-1, 1:-1], M[1:-1, 1:-1]


def closed_form_mu1(p):
    # (p-1) * pi_p^p with pi_p = 2 pi / (p sin(pi/p))
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    return (p - 1.0) * pi_p ** p


class TestCrossSection:
    def test_p2_matches_pi_squared(self, identity_field):
        cross = cs.cross_section_ground_state(64, identity_field, 2)
        assert cross.mu1 == pytest.approx(np.pi ** 2, rel=3e-4)
        assert cross.poincare_cp == pytest.approx(1 / np.pi, rel=3e-4)
        x2 = cross.x2_nodes
        expected = np.sqrt(2) * np.cos(np.pi * x2)
        scale = cross.w_nodes[len(x2) // 2] / expected[len(x2) // 2]
        assert np.allclose(cross.w_nodes, scale * expected, atol=2e-3)

    def test_p3_matches_shooting_oracle(self, identity_field):
        oracle = one_d_ground_state_oracle(3.0)
        assert oracle == pytest.approx(closed_form_mu1(3.0), rel=1e-8)
        cross = cs.cross_section_ground_state(64, identity_field, 3)
        assert cross.mu1 == pytest.approx(oracle, rel=2e-3)
        fine = cs.cross_section_ground_state(128, identity_field, 3)
        assert abs(fine.mu1 - oracle) < 0.3 * abs(cross.mu1 - oracle)

    def test_other_exponents_match_closed_form(self, identity_field):
        # the closed form equals the shooting oracle (checked at p = 3 above);
        # same meshes and bounds as the p = 3 check
        for p in (2.5, 4.0):
            exact = closed_form_mu1(p)
            cross = cs.cross_section_ground_state(64, identity_field, p)
            assert cross.mu1 == pytest.approx(exact, rel=2e-3)
            fine = cs.cross_section_ground_state(128, identity_field, p)
            assert abs(fine.mu1 - exact) < 0.3 * abs(cross.mu1 - exact)

    def test_normalized_positive(self, offdiag_field):
        for p in (2.0, 3.0):
            cross = cs.cross_section_ground_state(32, offdiag_field, p)
            assert cross.mu1 > 0
            assert np.all(cross.w_nodes[1:-1] > 0)
            assert cross.w_nodes[0] == 0 and cross.w_nodes[-1] == 0
            mesh = cs.build_mesh(
                cs.DomainSpec(cs.Shape.FULL_CYLINDER, 1, cs.BC.MIXED, 2, 32))
            lift = cs.lift_cross_section(cross, mesh)
            assert cs.p_mass(mesh, lift, p)[0] == pytest.approx(1.0, abs=1e-10)

    def test_p2_certified_by_the_engine(self):
        # a tabulated a22 that varies, so the sampled cosine start is not
        # the discrete eigenvector: one step does not certify it, and the
        # uncapped descent matches a dense solve of the interior pencil,
        # down to the coarsest section (MIN_NX2 = 4 cells, 3 interior nodes)
        samples = ((-0.5, 1.0, 0.0, 2.0), (0.0, 1.0, 0.0, 1.0),
                   (0.5, 1.0, 0.0, 1.5))
        field = cs.make_coefficients(
            cs.CoefficientFamily(cs.FamilyKind.TABULATED, samples=samples))
        capped = cs.cross_section_ground_state(32, field, 2,
                                               cs.SolveOptions(max_iters=1))
        assert not capped.converged and capped.iterations == 1
        for nx2 in (4, 5, 6, 7, 32):
            cross = cs.cross_section_ground_state(nx2, field, 2)
            assert cross.converged and 1 <= cross.iterations
            assert cross.residual <= 1e-8 * cross.mu1
            lam = scipy.linalg.eigh(*dense_section_pencil(field.a22, nx2),
                                    eigvals_only=True)[0]
            assert cross.mu1 == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_one_cell_rows_agree(self, monkeypatch, p):
        # the section is solved on the mixed cylinder one axial cell long:
        # its first eigenfunction is the section state lifted, the same on
        # both node rows, and w_nodes is their mean scaled to the section
        samples = ((-0.5, 1.0, 0.0, 2.0), (0.0, 1.0, 0.0, 1.0),
                   (0.5, 1.0, 0.0, 1.5))
        field = cs.make_coefficients(
            cs.CoefficientFamily(cs.FamilyKind.TABULATED, samples=samples))
        engine, solved = es._minimize_quotient, []
        monkeypatch.setattr(es, "_minimize_quotient",
                            lambda *a: solved.append(engine(*a)) or solved[-1])
        cross = cs.cross_section_ground_state(16, field, p)
        assert cross.converged and len(solved) == 2  # a22 and a22 = 1
        rows = solved[0].u.reshape(2, 15)
        assert np.max(np.abs(rows[0] - rows[1])) <= 1e-10 * np.max(rows)
        np.testing.assert_allclose(cross.w_nodes[1:-1],
                                   rows.mean(axis=0) * 0.5 ** (1.0 / p),
                                   rtol=1e-14)

    def test_min_resolution_enforced(self, identity_field):
        # one floor, MIN_NX2 = 4, for the section solve, the domain and
        # the CLI config
        from cylspectra import cli
        from cylspectra.errors import ConfigurationError
        from cylspectra.mesh import MIN_NX2
        assert MIN_NX2 == 4
        cfg = {"family": {"kind": "identity"}, "p": 2.0, "ell": 2.0,
               "resolution": {"nx2": 3, "cells_per_unit": 4}}
        for build in (
                lambda: cs.cross_section_ground_state(3, identity_field, 2),
                lambda: cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2,
                                      cs.BC.MIXED, 4, 3),
                lambda: cli.RunPlan(cfg, "solve")):
            with pytest.raises(ConfigurationError, match=">= 4"):
                build()
        cross = cs.cross_section_ground_state(4, identity_field, 2)
        assert cross.converged


# Small meshes for dense-pencil oracles: the two longer mixed ones hold a
# collapsing cluster, the last three drop other x1 rows from the free DOFs.
ORACLE_MESHES = (
    cs.DomainSpec(cs.Shape.FULL_CYLINDER, 3, cs.BC.MIXED, 4, 16),
    cs.DomainSpec(cs.Shape.FULL_CYLINDER, 8, cs.BC.MIXED, 4, 8),
    cs.DomainSpec(cs.Shape.FULL_CYLINDER, 12, cs.BC.MIXED, 2, 8),
    cs.DomainSpec(cs.Shape.FULL_CYLINDER, 3, cs.BC.DIRICHLET_ALL, 4, 16),
    cs.DomainSpec(cs.Shape.HALF_PLUS, 4, cs.BC.HALF_CYLINDER, 4, 16),
    cs.DomainSpec(cs.Shape.HALF_MINUS, 4, cs.BC.HALF_CYLINDER, 4, 16),
)


class TestLinearSpectrum:
    def test_cosine_modes(self, identity_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 8, 32))
        results = cs.linear_spectrum(mesh, identity_field, 3)
        oracle = [np.pi ** 2 + (k * np.pi / 4) ** 2 for k in range(3)]
        for r, o in zip(results, oracle):
            assert r.lam == pytest.approx(o, rel=2e-3)
        lams = [r.lam for r in results]
        assert lams == sorted(lams)

    def test_residual_contract_and_orthonormality(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        results = cs.linear_spectrum(mesh, offdiag_field, 3)
        pair = cs.assemble_p2(mesh, offdiag_field)
        K, M = pair.stiffness, pair.mass
        vecs = []
        for r in results:
            assert r.converged
            v = r.field.values
            lam = r.lam
            res = np.linalg.norm(K @ v - lam * (M @ v)) / np.linalg.norm(v)
            assert res <= 1.01e-8
            # the k = 1 residual: max norm of 2 (K v - lam M v) / v.Mv
            assert r.final_residual == pytest.approx(
                2.0 * np.max(np.abs(K @ v - lam * (M @ v))) / (v @ (M @ v)),
                rel=1e-6, abs=1e-15)
            hist = r.rayleigh_history
            assert np.all(np.diff(hist) <= 1e-10 * np.abs(hist[:-1]))
            vecs.append(v / np.sqrt(v @ (M @ v)))
        for i in range(3):
            for j in range(i):
                assert abs(vecs[i] @ (M @ vecs[j])) < 1e-8

    def test_matches_eigsh(self, offdiag_field):
        # the solver is eigsh itself, shift-inverted about 1e-3 below the
        # engine's lam1 (about 0 where that shift fails); the oracle is
        # the dense pencil.  The two longer mixed meshes hold a collapsing
        # cluster: there an eigsh `tol` of 1e-12 or 1e-10 (ell 8) or 1e-8
        # (ell 12) skipped an eigenvalue about 0, with residuals ~1e-14
        # that cannot see it, so `tol` stays 0.
        import scipy.linalg
        for spec in ORACLE_MESHES:
            mesh = cs.build_mesh(spec)
            pair = cs.assemble_p2(mesh, offdiag_field)
            oracle = scipy.linalg.eigh(pair.stiffness.toarray(),
                                       pair.mass.toarray(),
                                       eigvals_only=True)[:3]
            mine = [r.lam for r in cs.linear_spectrum(mesh, offdiag_field, 3)]
            assert np.allclose(mine, oracle, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("family", ["offdiag_field", "linear_field"])
    def test_first_pair_matches_dense_eigh(self, family, request):
        # the k = 1 path is the descent engine on the pencil; the oracle is
        # the dense pencil
        import scipy.linalg
        coeffs = request.getfixturevalue(family)
        for spec in ORACLE_MESHES:
            mesh = cs.build_mesh(spec)
            pair = cs.assemble_p2(mesh, coeffs)
            oracle = scipy.linalg.eigh(pair.stiffness.toarray(),
                                       pair.mass.toarray(), eigvals_only=True,
                                       subset_by_index=[0, 0])[0]
            r = cs.linear_spectrum(mesh, coeffs, 1)[0]
            assert r.lam == pytest.approx(oracle, rel=1e-10, abs=0.0)
            assert r.stop_reason == "residual" and r.converged
            mass = disc.p_mass(mesh, r.field.grid(), 2.0)[0]
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_long_cylinder_symmetric_and_certified(self, offdiag_field):
        # lam2 - lam1 is tiny at ell = 20; the point symmetry of the
        # constant off-diagonal family forces equal end masses
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 20, cs.BC.MIXED, 4, 32))
        r = cs.linear_spectrum(mesh, offdiag_field, 1)[0]
        split = asy.end_mass_split(r.field, mesh, offdiag_field, 2)
        assert r.converged
        assert abs(split.d_plus - split.d_minus) < 1e-8

    def test_nonconverged_flagged(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 8, cs.BC.MIXED, 4, 16))
        exact = cs.linear_spectrum(mesh, offdiag_field, 3)
        rough = cs.linear_spectrum(mesh, offdiag_field, 3,
                                   cs.SolveOptions(max_iters=1))
        assert len(rough) == 3
        for r, e in zip(rough, exact):
            assert not r.converged
            assert r.final_residual > 1e-8
            assert r.lam >= e.lam * (1 - 1e-12)  # Ritz values bound from above

    def test_full_range_k(self, identity_field, small_mixed_mesh):
        import scipy.linalg
        n = small_mixed_mesh.n_free
        results = cs.linear_spectrum(small_mixed_mesh, identity_field, n)
        pair = cs.assemble_p2(small_mixed_mesh, identity_field)
        oracle = scipy.linalg.eigh(pair.stiffness.toarray(),
                                   pair.mass.toarray(), eigvals_only=True)
        assert np.allclose([r.lam for r in results], oracle, rtol=1e-10)
        assert all(r.converged for r in results)

    def test_matches_descent(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        lin = cs.linear_spectrum(mesh, offdiag_field, 1)[0]
        dsc = cs.minimize_rayleigh(mesh, offdiag_field, 2)
        assert abs(lin.lam - dsc.lam) < 1e-7

    def test_stop_reasons(self, offdiag_field, small_mixed_mesh):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 8, cs.BC.MIXED, 4, 16))
        assert cs.linear_spectrum(mesh, offdiag_field, 1)[0].stop_reason == (
            "residual")
        rough = cs.linear_spectrum(mesh, offdiag_field, 3,
                                   cs.SolveOptions(max_iters=1))
        assert [r.stop_reason for r in rough] == ["max_iters"] * 3
        n = small_mixed_mesh.n_free
        dense = cs.linear_spectrum(small_mixed_mesh, offdiag_field, n)
        assert {r.stop_reason for r in dense} == {"dense"}

    def test_shifted_factorization_fallback(self, monkeypatch, offdiag_field):
        # an engine lam1 above lam2 puts the shift above two eigenvalues: the
        # shifted Cholesky factorization fails, and the Lanczos falls back
        # to the shift 0 and the factor of K
        engine = es._minimize_quotient

        def above_lam2(problem, u0, opts):
            r = engine(problem, u0, opts)
            if isinstance(problem, es._PencilQuotient):
                r = r._replace(lam=1.01 * lam2)
            return r

        monkeypatch.setattr(es, "_minimize_quotient", above_lam2)
        for spec in ORACLE_MESHES:
            mesh = cs.build_mesh(spec)
            pair = cs.assemble_p2(mesh, offdiag_field)
            oracle = scipy.linalg.eigh(pair.stiffness.toarray(),
                                       pair.mass.toarray(),
                                       eigvals_only=True)[:3]
            lam2 = oracle[1]
            one = cs.linear_spectrum(mesh, offdiag_field, 1)[0]
            results = cs.linear_spectrum(mesh, offdiag_field, 3)
            assert np.allclose([r.lam for r in results], oracle, rtol=1e-10,
                               atol=0.0)
            assert all(r.converged for r in results)
            # the failed shifted factorization and the factor of K
            assert all(r.factorizations == one.factorizations + 2
                       for r in results)

    @pytest.mark.parametrize("family", ["offdiag_field", "linear_field"])
    def test_carried_pencil_state_matches_fresh_pass(self, monkeypatch,
                                                     family, request):
        # the pencil state (u, Ku, Mu) reaches each gradient pass after a
        # step through _along and the engine's in-place scaling, with no
        # product of its own; the first pass is a fresh one.  The section,
        # solved on a pencil too, is solved before the recording starts
        coeffs = request.getfixturevalue(family)
        crosses = {spec.nx2: cs.cross_section_ground_state(spec.nx2, coeffs, 2)
                   for spec in ORACLE_MESHES}
        carried = []

        class Recording(es._PencilQuotient):
            def gradient(self, S):
                carried.append((self, S))
                return super().gradient(S)

        monkeypatch.setattr(es, "_PencilQuotient", Recording)
        for spec in ORACLE_MESHES:
            carried.clear()
            r = cs.linear_spectrum(cs.build_mesh(spec), coeffs, 1,
                                   cross=crosses[spec.nx2])[0]
            assert r.iterations >= 1 and len(carried) == r.iterations + 1
            for problem, S in carried[1:]:
                assert len(S) == 3
                fresh = problem.state(S[0])
                for a, b in zip(fresh[1:], S[1:]):
                    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))

    def test_shift_at_nx2_6(self, offdiag_field, small_mixed_mesh):
        # nx2 = 6 gets the lifted start like any mesh: the engine runs and
        # k >= 2 takes the shift, one Cholesky factorization beyond k = 1
        import scipy.linalg
        pair = cs.assemble_p2(small_mixed_mesh, offdiag_field)
        oracle = scipy.linalg.eigh(pair.stiffness.toarray(),
                                   pair.mass.toarray(), eigvals_only=True)
        one = cs.linear_spectrum(small_mixed_mesh, offdiag_field, 1)[0]
        assert one.converged
        for k in (2, 3):
            results = cs.linear_spectrum(small_mixed_mesh, offdiag_field, k)
            assert np.allclose([r.lam for r in results], oracle[:k],
                               rtol=1e-10, atol=0.0)
            assert all(r.converged for r in results)
            assert all(r.factorizations == one.factorizations + 1
                       for r in results)

    def test_shift_invert_solves_in_cluster(self, monkeypatch,
                                            offdiag_field):
        # lam1..lam4 = 9.857, 9.878, 9.990, 10.166: about sigma = 0 the
        # Lanczos rate follows lam3 / lam4, just below the certified lam1 it
        # does not (85 shift-invert solves about 0, 21 below lam1)
        # each shift-invert solve applies L^{-1} once; the back-transform
        # of the Ritz vectors applies only L^{-T}
        cholesky, solves = es._cholesky, []

        def counted(ab):
            factor, solve_l, solve_lt = cholesky(ab)

            def counted_solve(d):
                solves.append(1)
                return solve_l(d)
            return factor, counted_solve, solve_lt

        monkeypatch.setattr(es, "_cholesky", counted)
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 8, cs.BC.MIXED, 4, 32))
        one = cs.linear_spectrum(mesh, offdiag_field, 1)[0]
        results = cs.linear_spectrum(mesh, offdiag_field, 3)
        assert all(r.converged for r in results)
        assert len(solves) <= 30
        # iterations: the engine's steps and the shift-invert solves
        assert all(r.iterations == one.iterations + len(solves)
                   for r in results)

    def test_one_mass_product_per_lanczos_step(self, monkeypatch,
                                               offdiag_field):
        # the Lanczos runs in standard mode on L^{-1} M L^{-T}: each step
        # is one shift-invert solve and one product with M, where ARPACK's
        # generalized mode multiplies by M about three times per solve
        # (59 products for 21 solves on this mesh)
        import scipy.sparse
        eigsh, matmul = es.spla.eigsh, scipy.sparse.dia_array.__matmul__
        inside, products = [False], []

        def watched_eigsh(*args, **kwargs):
            inside[0] = True
            try:
                return eigsh(*args, **kwargs)
            finally:
                inside[0] = False

        def counted_matmul(A, x):
            if inside[0]:
                products.append(1)
            return matmul(A, x)

        monkeypatch.setattr(es.spla, "eigsh", watched_eigsh)
        monkeypatch.setattr(scipy.sparse.dia_array, "__matmul__",
                            counted_matmul)
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 8, cs.BC.MIXED, 4, 32))
        one = cs.linear_spectrum(mesh, offdiag_field, 1)[0]
        results = cs.linear_spectrum(mesh, offdiag_field, 3)
        assert all(r.converged for r in results)
        solves = results[0].iterations - one.iterations
        assert 0 < len(products) == solves

    def test_k_validation(self, identity_field, small_mixed_mesh):
        from cylspectra.errors import ConfigurationError
        # the 35 free nodes of the 6 x 6 mixed mesh bound k
        n = small_mixed_mesh.n_free
        for k in (0, n + 1):
            with pytest.raises(ConfigurationError,
                               match=f"<= the {n} free nodes"):
                cs.linear_spectrum(small_mixed_mesh, identity_field, k)


class TestMinimizeRayleigh:
    def test_decoupled_p2(self, identity_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 3, cs.BC.MIXED, 4, 32))
        cross = cs.cross_section_ground_state(32, identity_field, 2)
        r = cs.minimize_rayleigh(mesh, identity_field, 2)
        assert r.converged
        assert abs(r.lam - cross.mu1) < 1e-8 * cross.mu1

    def test_decoupled_p3(self, identity_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 3, cs.BC.MIXED, 4, 32))
        cross = cs.cross_section_ground_state(32, identity_field, 3)
        r = cs.minimize_rayleigh(mesh, identity_field, 3)
        assert abs(r.lam - cross.mu1) < 1e-8 * cross.mu1

    def test_result_contracts(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        for p in (2.0, 3.0):
            r = cs.minimize_rayleigh(mesh, offdiag_field, p)
            assert r.converged
            assert cs.p_mass(mesh, r.field, p)[0] == pytest.approx(1.0, abs=1e-10)
            assert r.lam == pytest.approx(
                cs.rayleigh(mesh, offdiag_field, r.field, p), rel=1e-12)
            hist = r.rayleigh_history
            assert np.all(np.diff(hist) <= 1e-12 * np.abs(hist[:-1]))
            assert np.min(r.field.values) >= -1e-12 * np.max(r.field.values)

    def test_dirichlet_oracle_p2(self, identity_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.DIRICHLET_ALL, 8, 32))
        r = cs.minimize_rayleigh(mesh, identity_field, 2)
        assert r.lam == pytest.approx(np.pi ** 2 + (np.pi / 4) ** 2, rel=2e-3)

    def test_below_lifted_value(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 4, cs.BC.MIXED, 4, 16))
        cross = cs.cross_section_ground_state(16, offdiag_field, 2)
        r = cs.minimize_rayleigh(mesh, offdiag_field, 2)
        assert r.lam <= cross.mu1 + 1e-10

    def test_ones_init_agrees(self, offdiag_field, monkeypatch):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        base = cs.minimize_rayleigh(mesh, offdiag_field, 2)
        # the ones start ignores the cross section, so none is solved
        calls = []
        solve = es.cross_section_ground_state

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(es, "cross_section_ground_state", counted)
        r = cs.minimize_rayleigh(mesh, offdiag_field, 2,
                                 cs.SolveOptions(init=cs.Init.ONES))
        assert abs(r.lam - base.lam) < 1e-7
        assert calls == []

    def test_bitwise_determinism(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        a = cs.minimize_rayleigh(mesh, offdiag_field, 3)
        b = cs.minimize_rayleigh(mesh, offdiag_field, 3)
        assert a.lam == b.lam
        assert np.array_equal(a.field.values, b.field.values)

    def test_nonconverged_flagged(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 4, cs.BC.MIXED, 4, 16))
        opts = cs.SolveOptions(max_iters=3, tol_residual=1e-14)
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3, opts)
        assert not r.converged
        assert r.iterations == 3


    def test_stop_reasons(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        opts = cs.SolveOptions()
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3, opts)
        assert r.stop_reason == "residual" and r.converged
        assert r.final_residual <= opts.tol_residual * max(1.0, abs(r.lam))
        capped = cs.minimize_rayleigh(mesh, offdiag_field, 3,
                                      cs.SolveOptions(max_iters=3))
        assert capped.stop_reason == "max_iters" and not capped.converged

    def test_rounding_floor_not_converged(self, offdiag_field):
        # a tolerance below rounding: the descent ends where no step can be
        # seen to descend, and that exit is not a certificate; it gets
        # there without a run of rejected steps and refactorizations
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3,
                                 cs.SolveOptions(tol_residual=1e-30,
                                                 max_iters=2000))
        assert r.stop_reason == "no_descent" and not r.converged
        assert r.factorizations <= r.iterations + 3

    def test_non_finite_iterate_stops(self, linear_field):
        # no shift gives a finite step from a non-finite iterate: the
        # descent stops once sigma swamps H instead of growing it forever
        problem = section_problem(varying_a22(linear_field), 3.0, 16)
        w = lift(np.cos(np.pi * np.linspace(-0.5, 0.5, 17)[1:-1]))
        w[3] = np.nan
        r = es._minimize_quotient(problem, w, cs.SolveOptions())
        assert r.stop_reason == "no_descent" and r.iterations == 1

    def test_returns_best_iterate(self, offdiag_field):
        # below rounding the residual wanders after it bottoms out; the
        # exit hands back the iterate with the lowest residual seen.  At
        # ell = 4 the step past the best iterate moves the carried state
        # by more than the rounding of a fresh pass
        residuals, states = [], []

        class Recording(es._CylinderQuotient):
            def gradient(self, S):
                E, gE, m, gM = super().gradient(S)
                lam = E / m
                residuals.append(float(np.max(np.abs((gE - lam * gM) / m))))
                states.append(S)
                return E, gE, m, gM

        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 4, cs.BC.MIXED, 4, 16))
        # the start is the lifted sampled cosine: the subject here is the
        # returned iterate, not the start.  The engine descends the whole
        # cylinder's quotient, with no S-even fold
        opts = cs.SolveOptions(tol_residual=1e-17)
        start = mesh.restrict(np.tile(np.cos(np.pi * mesh.x2),
                                      (mesh.x1.size, 1)))
        r = es._eigen_result(mesh, es._minimize_quotient(
            Recording(mesh, offdiag_field, 3), start, opts))
        assert r.stop_reason in ("no_descent", "max_iters")
        assert residuals[-1] > min(residuals)
        assert r.final_residual == min(residuals)
        # the returned field is the best iterate, not the last: its fresh
        # state is far closer to the best carried state (both sit at the
        # rounding floor, so only the comparison tells them apart)
        fresh = Recording(mesh, offdiag_field, 3).state(r.field.values)

        def distance(S):
            return sum(np.max(np.abs(a - b)) for a, b in zip(fresh, S))
        best = states[int(np.argmin(residuals))]
        assert distance(best) < 0.5 * distance(states[-1])

    def test_newton_counts(self, offdiag_field):
        # every step tried takes at least one factorization, and a rejected
        # step one more at the same iterate
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3)
        assert 1 <= r.iterations <= r.factorizations
        # k >= 2 adds to the k = 1 engine's counts one Cholesky factorization
        # of the shifted pencil and the shift-invert solves
        one = cs.linear_spectrum(mesh, offdiag_field, 1)[0]
        lin = cs.linear_spectrum(mesh, offdiag_field, 2)
        assert all(x.factorizations == one.factorizations + 1 for x in lin)
        assert all(x.iterations > one.iterations for x in lin)

    @pytest.mark.parametrize("bc, ell, builds", [
        (cs.BC.DIRICHLET_ALL, 4, 0), (cs.BC.MIXED, 8, 1)])
    def test_stiffness_built_on_first_shift(self, monkeypatch, offdiag_field,
                                            bc, ell, builds):
        # K is assembled only when sigma first becomes nonzero, at most
        # once a solve; where every step is taken at sigma = 0 (one
        # factorization each) it is never built
        cross = cs.cross_section_ground_state(32, offdiag_field, 3)
        calls, diagonals = [], disc._p2_diagonals
        monkeypatch.setattr(disc, "_p2_diagonals",
                            lambda *a: calls.append(a) or diagonals(*a))
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, ell, bc, 4, 32))
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3, cross=cross)
        assert r.stop_reason == "residual"
        assert len(calls) == builds
        assert (r.factorizations == r.iterations) == (builds == 0)

    def test_retry_reuses_the_hessian(self, monkeypatch, offdiag_field):
        # a rejected step refills the band from the Hessian of its iterate,
        # built once per iterate, and the solve is bit for bit the one that
        # factors a fresh copy of it in a fresh band every time.  Under
        # symmetry S every step is taken on the S-even half, whose Hessian
        # is the fold of the left half's
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 8, cs.BC.MIXED, 4, 32))
        cross = cs.cross_section_ground_state(32, offdiag_field, 3)
        builds, cells = [], disc._hessian_cells

        def counted(core, A, point, state, lam, p):
            builds.append((state[0][:4].copy(), lam))
            return cells(core, A, point, state, lam, p)

        monkeypatch.setattr(disc, "_hessian_cells", counted)
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3, cross=cross)
        assert r.stop_reason == "residual"
        assert r.factorizations > r.iterations == len(builds)
        distinct = {(state.tobytes(), lam) for state, lam in builds}
        assert len(distinct) == len(builds)

        step = es._shifted_step

        def fresh(u, p, g, gM, A, sigma, K, band):
            A = disc.FoldedMatrix(A.H.copy(), A.fold)
            return step(u, p, g, gM, A, sigma, K, None)

        builds.clear()
        monkeypatch.setattr(es, "_shifted_step", fresh)
        again = cs.minimize_rayleigh(mesh, offdiag_field, 3, cross=cross)
        assert len(builds) == again.iterations
        assert again.factorizations == r.factorizations
        assert again.lam == r.lam and again.iterations == r.iterations
        assert np.array_equal(again.field.values, r.field.values)
        assert np.array_equal(again.rayleigh_history, r.rayleigh_history)

    @pytest.mark.parametrize("family, p, ell, kind, bound", [
        ("offdiag_field", 3.0, 12, "mixed", 25),
        ("linear_field", 4.0, 8, "mixed", 25),
        ("offdiag_field", 4.0, 12, "half_plus", 25),
        ("offdiag_field", 2.5, 12, "half_plus", 8)])
    def test_long_cylinders_certified_in_few_steps(self, request, family, p,
                                                   ell, kind, bound):
        # where the gap lam2 - lam1 collapses: a descent whose rate follows
        # it took 74, 601 and 367 iterations on the first three
        coeffs = request.getfixturevalue(family)
        if kind == "mixed":
            mesh = cs.build_mesh(
                cs.DomainSpec(cs.Shape.FULL_CYLINDER, ell, cs.BC.MIXED, 4, 32))
            r = cs.minimize_rayleigh(mesh, coeffs, p)
        else:
            r = cs.half_cylinder_eigen(cs.Side.PLUS, ell, (32, 4), coeffs, p)
        assert r.stop_reason == "residual" and r.iterations <= bound

    def test_linear_offdiag_long_cylinder(self, linear_field):
        # the one-sided family at ell = 8, where the uniform weight of the
        # p = 2 shift K is furthest from the Hessian's q^{1/2}: nonlinear
        # CG alone took 943 iterations here
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 8, cs.BC.MIXED, 4, 32))
        r = cs.minimize_rayleigh(mesh, linear_field, 3)
        assert r.stop_reason == "residual"
        assert r.iterations <= 60

    @staticmethod
    def second_difference(quotient, u, z):
        # central second difference, Richardson-extrapolated over eps, 2 eps
        def diff(eps):
            return (quotient(u + eps * z) - 2.0 * quotient(u)
                    + quotient(u - eps * z)) / eps ** 2
        eps = 5e-4
        return (4.0 * diff(eps) - diff(2.0 * eps)) / 3.0

    @staticmethod
    def newton_curvature(problem, u, z):
        # h = z.(E'' - lam m'').z/m - 2 (d.z)(gM.z)/m from the dense Hessian
        S = problem.state(u)
        E, gE, m, gM = problem.gradient(S)
        lam = E / m
        dz = float((gE - lam * gM) @ z) / m
        H = TestNewton.hessian(problem, u)[0]
        return float(z @ H @ z) / m - 2.0 * dz * float(gM @ z) / m

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_curvature_matches_second_difference(self, linear_field, p):
        # linear_offdiag: a12 varies with x2; u stays positive along the line
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 8))
        problem = es._CylinderQuotient(mesh, linear_field, p)
        rng = np.random.default_rng(4)
        u = 1.0 + rng.random(mesh.n_free)
        z = rng.standard_normal(mesh.n_free)
        reference = self.second_difference(
            lambda v: cs.rayleigh(mesh, linear_field,
                                  cs.DiscreteField(v, mesh), p), u, z)
        assert self.newton_curvature(problem, u, z) == pytest.approx(
            reference, rel=1e-6)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_section_curvature_matches_second_difference(self, linear_field,
                                                         p):
        # along lifted directions the section's one-cell quotient is the
        # quotient of the lift on any mixed cylinder, the nodal reference
        # here as in TestGaussPointStates; linear_offdiag has a22 = 1, so
        # a22 is made to vary with x2 here
        field = varying_a22(linear_field)
        x2 = np.linspace(-0.5, 0.5, 17)
        problem = section_problem(field, p, 16)
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 1, cs.BC.MIXED, 2, 16))
        rng = np.random.default_rng(5)
        w = np.cos(np.pi * x2[1:-1])
        z = rng.standard_normal(w.size)

        def lifted(v):
            grid = np.tile(np.concatenate(([0.0], v, [0.0])),
                           (mesh.x1.size, 1))
            return cs.rayleigh(mesh, field, grid, p)

        reference = self.second_difference(lifted, w, z)
        assert self.newton_curvature(problem, lift(w), lift(z)) == \
            pytest.approx(reference, rel=1e-6)

    def test_p3_solves_certified(self, offdiag_field):
        # the four solves of one sweep row, each certified by the residual
        ell, res, opts = 4, (32, 4), cs.SolveOptions()
        cross = cs.cross_section_ground_state(32, offdiag_field, 3)
        solves = [cs.minimize_rayleigh(
            cs.build_mesh(cs.DomainSpec(cs.Shape.FULL_CYLINDER, ell, bc, 4,
                                        32)),
            offdiag_field, 3, opts, cross=cross)
            for bc in (cs.BC.MIXED, cs.BC.DIRICHLET_ALL)]
        solves += [cs.half_cylinder_eigen(side, ell, res, offdiag_field, 3,
                                          opts, cross=cross)
                   for side in (cs.Side.PLUS, cs.Side.MINUS)]
        for r in solves:
            assert r.stop_reason == "residual" and r.converged
            assert r.final_residual <= opts.tol_residual * max(1.0, abs(r.lam))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_negative_entries_certified_as_returned(self, p):
        # stretched cells with a strong a12: the discrete first eigenvector
        # dips below zero, and the field returned is the one certified
        field = cs.make_coefficients(
            cs.CoefficientFamily(cs.FamilyKind.CONSTANT_OFFDIAG, 0.9))
        mesh = cs.build_mesh(cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2,
                                           cs.BC.MIXED, 4, 16))
        opts = cs.SolveOptions()
        r = asy.first_eigen(mesh, field, p, opts)
        u = r.field.values
        assert r.converged
        assert u.min() < -1e-3 * u.max()
        problem = es._CylinderQuotient(mesh, field, p)
        E, gE, m, gM = problem.gradient(problem.state(u))
        res = float(np.max(np.abs(gE - r.lam * gM))) / m
        assert res == pytest.approx(r.final_residual, rel=1e-6)
        assert res <= opts.tol_residual * max(1.0, r.lam)


def section_problem(field, p, nx2):
    # the quotient that `cross_section_ground_state` descends at p != 2:
    # the mixed cylinder one axial cell long, with a11 = 1, a12 = 0 and the
    # field's a22
    mesh = cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, 0.25, cs.BC.MIXED, 2, nx2))
    section = cs.CoefficientField(np.ones_like, np.zeros_like, field.a22)
    return es._CylinderQuotient(mesh, section, p)


def lift(w):
    # interior section values on both node rows of that one-cell cylinder
    return np.tile(w, 2)


def stiffness_cholesky(mesh, field):
    # the factor K = L L^T that `linear_spectrum` falls back to at k >= 2,
    # with its two triangular solves
    return es._cholesky(disc.lapack_band(
        disc._p2_diagonals(mesh, field)[0], mesh.n_cells2, 0))


def varying_a22(field):
    # linear_offdiag has a22 = 1; the section sees only a22
    return cs.CoefficientField(field.a11, field.a12, lambda x2: 1.0 + x2 * x2)


class TestNewton:
    """The shifted Newton step: its banded Hessian, its step and the banded
    p = 2 stiffness."""

    @staticmethod
    def hessian(problem, u):
        S = problem.state(u)
        E, _, m, _ = problem.gradient(S)
        return problem.hessian(S, E / m).toarray(), E / m

    @staticmethod
    def gradient_difference(problem, u, v, lam):
        # central difference of gE - lam gM, Richardson-extrapolated
        def g(w):
            _, gE, _, gM = problem.gradient(problem.state(w))
            return gE - lam * gM

        def diff(eps):
            return (g(u + eps * v) - g(u - eps * v)) / (2.0 * eps)
        eps = 1e-4
        return (4.0 * diff(eps) - diff(2.0 * eps)) / 3.0

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_cylinder_hessian_matches_gradient_difference(self, linear_field,
                                                          p):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 8))
        problem = es._CylinderQuotient(mesh, linear_field, p)
        rng = np.random.default_rng(6)
        u = 1.0 + rng.random(mesh.n_free)
        v = rng.standard_normal(mesh.n_free)
        H, lam = self.hessian(problem, u)
        reference = self.gradient_difference(problem, u, v, lam)
        assert np.linalg.norm(H @ v - reference) <= 1e-8 * np.linalg.norm(
            reference)
        # a step factors its own band: the shift and the LU factors it
        # leaves there reach neither the Hessian it was given nor a step
        # that reuses the band
        S = problem.state(u)
        _, gE, _, gM = problem.gradient(S)
        A, K, band = problem.hessian(S, lam), problem.stiffness(), None
        for sigma in (0.0, 0.5, 0.5):
            z, _, band = es._shifted_step(u, p, gE - lam * gM, gM, A, sigma,
                                          K, band)
            assert np.array_equal(A.toarray(), H)
            assert np.array_equal(z, es._shifted_step(
                u, p, gE - lam * gM, gM, A, sigma, K, None)[0])

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_section_hessian_matches_gradient_difference(self, linear_field,
                                                         p):
        problem = section_problem(varying_a22(linear_field), p, 16)
        rng = np.random.default_rng(7)
        w = lift(np.cos(np.pi * np.linspace(-0.5, 0.5, 17)[1:-1]))
        v = rng.standard_normal(w.size)
        H, lam = self.hessian(problem, w)
        reference = self.gradient_difference(problem, w, v, lam)
        assert np.linalg.norm(H @ v - reference) <= 1e-8 * np.linalg.norm(
            reference)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("kind", ["mixed", "dirichlet", "half_plus",
                                      "section"])
    def test_newton_length_is_one(self, linear_field, kind, p):
        # the unshifted step z has gM.z = 0 and z.(E'' - lam m'').z = m d.z
        # on the dense Hessian: the exact length d.z/h along z is 1, the
        # full step the ratio test measures
        if kind == "section":
            problem = section_problem(varying_a22(linear_field), p, 16)
            n = problem.mesh.n_free
        else:
            shape, bc = {"mixed": (cs.Shape.FULL_CYLINDER, cs.BC.MIXED),
                         "dirichlet": (cs.Shape.FULL_CYLINDER,
                                       cs.BC.DIRICHLET_ALL),
                         "half_plus": (cs.Shape.HALF_PLUS,
                                       cs.BC.HALF_CYLINDER)}[kind]
            mesh = cs.build_mesh(cs.DomainSpec(shape, 2, bc, 4, 8))
            problem = es._CylinderQuotient(mesh, linear_field, p)
            n = mesh.n_free
        u = 1.0 + np.random.default_rng(10).random(n)
        S = problem.state(u)
        E, gE, m, gM = problem.gradient(S)
        lam = E / m
        H = self.hessian(problem, u)[0]
        z, model, _ = es._shifted_step(u, p, gE - lam * gM, gM,
                                       problem.hessian(S, lam), 0.0, None,
                                       None)
        assert abs(gM @ z) <= 1e-10 * np.linalg.norm(gM) * np.linalg.norm(z)
        dz = float((gE - lam * gM) @ z) / m
        assert float(z @ H @ z) == pytest.approx(m * dz, rel=1e-8)
        assert model == pytest.approx(m * dz, rel=1e-12)

    @pytest.mark.parametrize("kind", ["cylinder", "pencil", "section"])
    def test_step_matches_bordered_system(self, linear_field, kind):
        # 8 cells each: 2 x 4 on the cylinder and its p = 2 pencil, 1 x 8 on
        # the section's one-cell cylinder; the oracle is the dense bordered
        # system of E'' - lam m'' + s K.  At sigma = 0 the step takes
        # y = u / (p - 1) from homogeneity in place of a second solve
        p = 3.0
        if kind == "section":
            problem = section_problem(varying_a22(linear_field), p, 8)
            n = problem.mesh.n_free
        else:
            mesh = cs.build_mesh(
                cs.DomainSpec(cs.Shape.FULL_CYLINDER, 0.5, cs.BC.MIXED, 2, 4))
            n = mesh.n_free
            if kind == "cylinder":
                problem = es._CylinderQuotient(mesh, linear_field, p)
            else:
                problem = es._PencilQuotient(
                    *disc._p2_diagonals(mesh, linear_field))
        rng = np.random.default_rng(8)
        u = 1.0 + rng.random(n)
        S = problem.state(u)
        E, gE, m, gM = problem.gradient(S)
        lam = E / m
        g = gE - lam * gM
        A = self.hessian(problem, u)[0]
        Kd = problem.stiffness()
        K = Kd.toarray()
        if kind == "pencil":
            pair = cs.assemble_p2(mesh, linear_field)
            np.testing.assert_allclose(
                A, 2.0 * (pair.stiffness - lam * pair.mass).toarray(),
                rtol=0, atol=1e-13 * np.abs(A).max())
        for sigma in (0.0, 0.3, 40.0):
            s = sigma * np.abs(np.diag(A)).max() / np.abs(np.diag(K)).max()
            bordered = np.block([[A + s * K, gM[:, None]],
                                 [gM[None, :], np.zeros((1, 1))]])
            z_ref = np.linalg.solve(bordered, np.concatenate([g, [0.0]]))[:n]
            z, model, _ = es._shifted_step(u, problem.p, g, gM,
                                           problem.hessian(S, lam), sigma,
                                           Kd, None)
            assert np.allclose(z, z_ref, rtol=1e-9,
                               atol=1e-12 * np.abs(z_ref).max())
            assert model == pytest.approx(g @ z_ref + s * z_ref @ K @ z_ref,
                                          rel=1e-9)

    @pytest.mark.parametrize("kind, shape, bc", [
        (kind, shape, bc) for kind in ("cylinder", "pencil")
        for shape, bc in ((cs.Shape.FULL_CYLINDER, cs.BC.MIXED),
                          (cs.Shape.FULL_CYLINDER, cs.BC.DIRICHLET_ALL),
                          (cs.Shape.HALF_PLUS, cs.BC.HALF_CYLINDER),
                          (cs.Shape.HALF_MINUS, cs.BC.HALF_CYLINDER))]
        + [("section", None, None)])
    def test_hessian_has_the_stiffness_offsets(self, linear_field, kind,
                                               shape, bc):
        # the step takes its bandwidth from the Hessian, and a band drops
        # the diagonals outside it: a narrower Hessian would cut the shift
        if kind == "section":
            problem = section_problem(varying_a22(linear_field), 3.0, 8)
        else:
            mesh = cs.build_mesh(cs.DomainSpec(shape, 2, bc, 4, 8))
            problem = (es._CylinderQuotient(mesh, linear_field, 3.0)
                       if kind == "cylinder" else es._PencilQuotient(
                           *disc._p2_diagonals(mesh, linear_field)))
        K = problem.stiffness()
        u = 1.0 + np.random.default_rng(11).random(K.shape[0])
        S = problem.state(u)
        E, _, m, _ = problem.gradient(S)
        A = problem.hessian(S, E / m)
        assert sorted(A.offsets) == sorted(K.offsets)

    def test_one_band_per_solve(self, monkeypatch, offdiag_field,
                                linear_field):
        # each engine call that factors allocates the one band its
        # factorizations share, rejected steps and the section's solves
        # included; a start certified as given factors nothing
        allocated, per_solve = [], []
        band, engine = disc.lapack_band, es._minimize_quotient

        def counted_band(A, kl, ku, top=0, out=None):
            allocated.append(out is None)
            return band(A, kl, ku, top, out)

        def counted_engine(problem, u0, opts, prior=None):
            # this call's factorizations: a run that continues `prior`
            # starts its count at the prior's
            before = sum(allocated)
            r = engine(problem, u0, opts, prior)
            own = r.factorizations - (prior.factorizations if prior else 0)
            per_solve.append((sum(allocated) - before, own))
            return r

        monkeypatch.setattr(disc, "lapack_band", counted_band)
        monkeypatch.setattr(es, "_minimize_quotient", counted_engine)
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 8, cs.BC.MIXED, 4, 32))
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3)
        assert r.factorizations > r.iterations  # steps were rejected
        cs.linear_spectrum(mesh, offdiag_field, 1)
        cs.cross_section_ground_state(32, varying_a22(linear_field), 3)
        # the p = 3 section, the cylinder's S-even half and the full
        # cylinder, which certifies the unfolded half at step 0, the p = 2
        # section (whose cosine start is certified), the pencil, and the
        # sections of a22 and of a22 = 1
        assert [bands for bands, _ in per_solve] == [1, 1, 0, 0, 1, 1, 1]
        assert all((bands == 1) == (count > 0) for bands, count in per_solve)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_fill_in_rows_not_read(self, linear_field, sigma):
        # a reused band is zeroed from row `top` on: gbsv sets its kl
        # fill-in rows above that itself, so NaN there leaves the step
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 8))
        problem = es._CylinderQuotient(mesh, linear_field, 3.0)
        u = 1.0 + np.random.default_rng(5).random(mesh.n_free)
        S = problem.state(u)
        E, gE, m, gM = problem.gradient(S)
        g, A, K = gE - E / m * gM, problem.hessian(S, E / m), \
            problem.stiffness()
        z, model, band = es._shifted_step(u, 3.0, g, gM, A, sigma, K, None)
        band[:mesh.n_cells2] = np.nan
        again, model_again, reused = es._shifted_step(u, 3.0, g, gM, A,
                                                      sigma, K, band)
        assert reused is band
        assert np.array_equal(again, z) and model_again == model

    @pytest.mark.parametrize("shape, bc", [
        (cs.Shape.FULL_CYLINDER, cs.BC.MIXED),
        (cs.Shape.FULL_CYLINDER, cs.BC.DIRICHLET_ALL),
        (cs.Shape.HALF_PLUS, cs.BC.HALF_CYLINDER),
        (cs.Shape.HALF_MINUS, cs.BC.HALF_CYLINDER)])
    def test_banded_stiffness_solve_matches_spsolve(self, linear_field,
                                                    shape, bc):
        import scipy.sparse.linalg as spla
        mesh = cs.build_mesh(cs.DomainSpec(shape, 2, bc, 4, 8))
        _, solve_l, solve_lt = stiffness_cholesky(mesh, linear_field)
        K = cs.assemble_p2(mesh, linear_field).stiffness
        b = np.random.default_rng(9).standard_normal(mesh.n_free)
        reference = spla.spsolve(K.tocsc(), b)
        assert np.allclose(solve_lt(solve_l(b)), reference, rtol=1e-10,
                           atol=1e-12 * np.abs(reference).max())

    def test_stiffness_solve_rejects_non_finite(self, linear_field):
        # each solve checks its right-hand side; the factor is checked once
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 8))
        b = np.ones(mesh.n_free)
        b[3] = np.nan
        for solve in stiffness_cholesky(mesh, linear_field)[1:]:
            with pytest.raises(ValueError):
                solve(b)


class TestGaussPointStates:
    """The descent evaluates its trial steps from Gauss-point states."""

    MESH = cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 8)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_trial_matches_nodal_quotient(self, linear_field, p):
        # linear_offdiag: a12 varies with x2
        mesh = cs.build_mesh(self.MESH)
        problem = es._CylinderQuotient(mesh, linear_field, p)
        rng = np.random.default_rng(1)
        u = 1.0 + rng.random(mesh.n_free)
        s = rng.standard_normal(mesh.n_free)
        Su, Ss = problem.state(u), problem.state(s)
        for tau in (1e-3, 0.3, 2.0):
            E, m = problem.value(es._along(Su, Ss, tau))
            nodal = cs.rayleigh(mesh, linear_field,
                                cs.DiscreteField(u - tau * s, mesh), p)
            assert E / m == pytest.approx(nodal, rel=1e-13)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_carried_state_matches_fresh_pass(self, monkeypatch,
                                              linear_field, p):
        # the iterates of a full solve, stopped one iteration early: the
        # cap exit hands the last iterate's carried state to gradient()
        mesh = cs.build_mesh(self.MESH)
        full = cs.minimize_rayleigh(mesh, linear_field, p)
        carried = []

        class Recording(es._CylinderQuotient):
            def gradient(self, S):
                carried.append(S)
                return super().gradient(S)

        monkeypatch.setattr(es, "_CylinderQuotient", Recording)
        r = cs.minimize_rayleigh(
            mesh, linear_field, p,
            cs.SolveOptions(max_iters=full.iterations - 1))
        assert r.stop_reason == "max_iters"
        assert np.min(r.field.values) > 0.0  # not clipped
        fresh = Recording(mesh, linear_field, p).state(r.field.values)
        for a, b in zip(fresh, carried[-1]):
            assert np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(a))

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_section_trial_matches_lifted_quotient(self, linear_field, p):
        # nx2 = 64 as in the shooting-oracle check; the nodal reference is
        # the quotient of the axial lift on a longer mixed cylinder
        x2 = np.linspace(-0.5, 0.5, 65)
        problem = section_problem(linear_field, p, 64)
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 1, cs.BC.MIXED, 2, 64))
        rng = np.random.default_rng(2)
        w = np.cos(np.pi * x2[1:-1])
        s = rng.standard_normal(w.size)
        Sw, Ss = problem.state(lift(w)), problem.state(lift(s))
        for tau in (1e-3, 0.3, 2.0):
            E, m = problem.value(es._along(Sw, Ss, tau))
            grid = np.tile(np.concatenate(([0.0], w - tau * s, [0.0])),
                           (mesh.x1.size, 1))
            nodal = cs.rayleigh(mesh, linear_field, grid, p)
            assert E / m == pytest.approx(nodal, rel=1e-13)


class TestHalfCylinder:
    def test_quarter_wave_oracle(self, identity_field):
        r = cs.half_cylinder_eigen(cs.Side.PLUS, 2, (32, 8), identity_field, 2)
        assert r.lam == pytest.approx(np.pi ** 2 + (np.pi / 4) ** 2, rel=2e-3)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_monotone_in_length(self, offdiag_field, p):
        short = cs.half_cylinder_eigen(cs.Side.PLUS, 2, RES, offdiag_field, p)
        longer = cs.half_cylinder_eigen(cs.Side.PLUS, 4, RES, offdiag_field, p)
        assert longer.lam <= short.lam + 1e-7

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_reflection_swap(self, linear_field, p):
        refl = cs.reflect_axis(linear_field)
        minus = cs.half_cylinder_eigen(cs.Side.MINUS, 3, RES, linear_field, p)
        plus = cs.half_cylinder_eigen(cs.Side.PLUS, 3, RES, refl, p)
        assert abs(minus.lam - plus.lam) < 1e-8

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_symmetric_family_sides_agree(self, offdiag_field, p):
        plus = cs.half_cylinder_eigen(cs.Side.PLUS, 3, RES, offdiag_field, p)
        minus = cs.half_cylinder_eigen(cs.Side.MINUS, 3, RES, offdiag_field, p)
        assert abs(plus.lam - minus.lam) < 1e-8

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_start_is_certified_on_its_own_side(self, linear_field, p):
        # the reflected PLUS eigenvector of the one-sided family is no
        # MINUS eigenvector: from it the engine steps on to the lifted
        # start's eigenvalue and certifies only there
        plus = cs.half_cylinder_eigen(cs.Side.PLUS, 3, RES, linear_field, p)
        lifted = cs.half_cylinder_eigen(cs.Side.MINUS, 3, RES, linear_field, p)
        minus = cs.half_cylinder_eigen(cs.Side.MINUS, 3, RES, linear_field, p,
                                       start=plus.field.values[::-1])
        assert minus.iterations > 0 and minus.factorizations > 0
        assert minus.converged
        assert minus.lam == pytest.approx(lifted.lam, rel=1e-9)
        assert abs(plus.lam - lifted.lam) > 1e-3 * lifted.lam

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_start_replaces_the_lift(self, monkeypatch, offdiag_field, p):
        # a given start builds no cross-section state or lift
        monkeypatch.setattr(es, "_lifted_start", None)
        mesh = cs.build_mesh(cs.DomainSpec(cs.Shape.HALF_PLUS, 2,
                                           cs.BC.HALF_CYLINDER, 4, 16))
        r = cs.half_cylinder_eigen(cs.Side.PLUS, 2, RES, offdiag_field, p,
                                   start=np.ones(mesh.n_free))
        assert r.converged and r.field.mesh.n_free == mesh.n_free

    def test_positive_minimizer(self, offdiag_field):
        r = cs.half_cylinder_eigen(cs.Side.PLUS, 2, RES, offdiag_field, 3)
        assert np.min(r.field.values) >= -1e-12 * np.max(r.field.values)

    def test_whole_vs_half(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 4, cs.BC.MIXED, 4, 16))
        for p in (2.0, 3.0):
            whole = (cs.linear_spectrum(mesh, offdiag_field, 1)[0] if p == 2
                     else cs.minimize_rayleigh(mesh, offdiag_field, p))
            for ell1 in (2.0, 4.0):
                half = cs.half_cylinder_eigen(
                    cs.Side.PLUS, ell1, RES, offdiag_field, p)
                assert whole.lam <= half.lam + 1e-6


class TestFullSymmetry:
    def test_symmetric_family_minimizer_symmetry(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 3, cs.BC.MIXED, 4, 16))
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3)
        grid = r.field.grid()
        rotated = grid[::-1, ::-1]  # (x1, x2) -> (-x1, -x2)
        if np.sum(grid * rotated) < 0:
            rotated = -rotated
        diff = cs.p_mass(mesh, grid - rotated, 3.0)[0]
        assert diff ** (1 / 3.0) < 1e-4


class TestGuards:
    """The engine's guards against bad input and singular steps."""

    @staticmethod
    def mesh():
        # ell 2 at 4 cells per unit: 16 axial cells, so COD is folded at p 3
        return cs.build_mesh(cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2,
                                           cs.BC.MIXED, 4, 16))

    @pytest.mark.parametrize("extra", [-7, 7])
    @pytest.mark.parametrize("family", ["offdiag_field", "linear_field"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_start_length_checked(self, request, p, family, extra):
        # the fold takes the first k entries of a start, the pencil
        # multiplies it and the whole mesh expands it: every path checks
        # its length first
        mesh = self.mesh()
        with pytest.raises(DimensionMismatchError, match="free DOFs"):
            es.first_eigen(mesh, request.getfixturevalue(family), p,
                           start=np.ones(mesh.n_free + extra))

    def test_start_length_checked_at_full_k(self, offdiag_field):
        # k = n_free solves the dense pencil, which needs no start; a given
        # one is checked all the same
        mesh = cs.build_mesh(cs.DomainSpec(cs.Shape.FULL_CYLINDER, 1,
                                           cs.BC.MIXED, 2, 4))
        with pytest.raises(DimensionMismatchError, match="free DOFs"):
            cs.linear_spectrum(mesh, offdiag_field, mesh.n_free,
                               start=np.ones(3))

    @pytest.mark.parametrize("family, problem", [
        ("offdiag_field", "_FoldedQuotient"),
        ("linear_field", "_CylinderQuotient")])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_zero_start_raises(self, monkeypatch, request, p, family,
                               problem):
        engine, problems = es._minimize_quotient, []

        def recording(*args, **kwargs):
            problems.append(type(args[0]).__name__)
            return engine(*args, **kwargs)

        monkeypatch.setattr(es, "_minimize_quotient", recording)
        mesh = self.mesh()
        with pytest.raises(SolverError, match="zero p-mass"):
            es.first_eigen(mesh, request.getfixturevalue(family), p,
                           start=np.zeros(mesh.n_free))
        assert problems == ["_PencilQuotient" if p == 2 else problem]

    def test_singular_matrix_gives_no_step(self, linear_field):
        mesh = self.mesh()
        problem = es._CylinderQuotient(mesh, linear_field, 3.0)
        u = es._lifted_start(mesh, linear_field, 3.0, cs.SolveOptions(),
                             None)
        S = problem.state(u)
        E, gE, m, gM = problem.gradient(S)
        g = gE - E / m * gM
        A = problem.hessian(S, E / m).copy()
        A.data[:, 5] = 0.0  # the diagonals are column-aligned: column 5
        z, model, band = es._shifted_step(u, 3.0, g, gM, A, 0.0, None, None)
        assert z is None and np.isnan(model)
        z, model, _ = es._shifted_step(u, 3.0, g, gM, A, es._SHIFT_FIRST,
                                       problem.stiffness(), band)
        assert np.all(np.isfinite(z)) and np.isfinite(model)

    def test_singular_matrix_grows_the_shift(self, monkeypatch,
                                             linear_field):
        # the first iterate's Newton matrix loses a column: the engine gets
        # no step at sigma 0, retries at the first shift and goes on
        steps, shifted = [], es._shifted_step

        def recording(u, p, g, gM, A, sigma, K, band):
            out = shifted(u, p, g, gM, A, sigma, K, band)
            steps.append((sigma, out[0] is None))
            return out

        class Singular(es._CylinderQuotient):
            def hessian(self, S, lam):
                H = super().hessian(S, lam)
                if not steps:
                    H.data[:, 5] = 0.0
                return H

        mesh, opts = self.mesh(), cs.SolveOptions()
        start = es._lifted_start(mesh, linear_field, 3.0, opts, None)
        monkeypatch.setattr(es, "_shifted_step", recording)
        r = es._minimize_quotient(Singular(mesh, linear_field, 3.0), start,
                                  opts)
        assert steps[:2] == [(0.0, True), (es._SHIFT_FIRST, False)]
        assert r.stop_reason == "residual"

    @pytest.mark.parametrize("family", ["offdiag_field", "linear_field"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_negative_start_returned_positive(self, request, p, family):
        # from the certified field negated, the engine hands back the
        # certified field: its sign is fixed to a positive sum
        coeffs, mesh = request.getfixturevalue(family), self.mesh()
        r = es.first_eigen(mesh, coeffs, p)
        flipped = es.first_eigen(mesh, coeffs, p, start=-r.field.values)
        assert flipped.converged and np.sum(flipped.field.values) > 0
        assert flipped.lam == pytest.approx(r.lam, rel=1e-12)
        assert np.allclose(flipped.field.values, r.field.values, rtol=0,
                           atol=1e-9 * np.max(r.field.values))
