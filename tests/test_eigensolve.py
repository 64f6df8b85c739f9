import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import cylspectra as cs
from cylspectra import asymptotics as asy
from cylspectra import discretization as disc
from cylspectra import eigensolve as es

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

    def test_min_resolution_enforced(self, identity_field):
        from cylspectra.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            cs.cross_section_ground_state(4, identity_field, 2)


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
            hist = r.rayleigh_history
            assert np.all(np.diff(hist) <= 1e-10 * np.abs(hist[:-1]))
            vecs.append(v / np.sqrt(v @ (M @ v)))
        for i in range(3):
            for j in range(i):
                assert abs(vecs[i] @ (M @ vecs[j])) < 1e-8

    def test_matches_eigsh(self, offdiag_field):
        # the solver is eigsh itself; the oracle is the dense pencil.  The
        # two longer meshes hold a collapsing cluster: there an eigsh `tol`
        # of 1e-12 or 1e-10 (ell 8) or 1e-8 (ell 12) skips an eigenvalue,
        # with residuals ~1e-14 that cannot see it, so `tol` must stay 0
        import scipy.linalg
        for ell, cpu, nx2 in ((3, 4, 16), (8, 4, 8), (12, 2, 8)):
            mesh = cs.build_mesh(
                cs.DomainSpec(cs.Shape.FULL_CYLINDER, ell, cs.BC.MIXED, cpu, nx2))
            pair = cs.assemble_p2(mesh, offdiag_field)
            oracle = scipy.linalg.eigh(pair.stiffness.toarray(),
                                       pair.mass.toarray(),
                                       eigvals_only=True)[:3]
            mine = [r.lam for r in cs.linear_spectrum(mesh, offdiag_field, 3)]
            assert np.allclose(mine, oracle, rtol=1e-10, atol=0.0)

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
            "arpack")
        rough = cs.linear_spectrum(mesh, offdiag_field, 3,
                                   cs.SolveOptions(max_iters=1))
        assert [r.stop_reason for r in rough] == ["max_iters"] * 3
        n = small_mixed_mesh.n_free
        dense = cs.linear_spectrum(small_mixed_mesh, offdiag_field, n)
        assert {r.stop_reason for r in dense} == {"dense"}

    def test_k_validation(self, identity_field, small_mixed_mesh):
        from cylspectra.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            cs.linear_spectrum(small_mixed_mesh, identity_field, 0)


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

    def test_perturbed_and_ones_inits_agree(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        base = cs.minimize_rayleigh(mesh, offdiag_field, 2)
        for init in (cs.Init.PERTURBED_LIFT, cs.Init.ONES):
            opts = cs.SolveOptions(init=init, seed=3)
            r = cs.minimize_rayleigh(mesh, offdiag_field, 2, opts)
            assert abs(r.lam - base.lam) < 1e-7

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
        # a tolerance below rounding: the descent ends where no trial step
        # descends, and that exit is not a certificate
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3,
                                 cs.SolveOptions(tol_residual=1e-30,
                                                 max_iters=2000))
        assert r.stop_reason == "no_descent" and not r.converged

    def test_returns_best_iterate(self, monkeypatch, offdiag_field):
        # below rounding the residual wanders after it bottoms out; the
        # exit hands back the iterate with the lowest residual seen
        residuals, states = [], []

        class Recording(es._CylinderQuotient):
            def gradient(self, S):
                E, gE, m, gM = super().gradient(S)
                lam = E / m
                residuals.append(float(np.max(np.abs((gE - lam * gM) / m))))
                states.append(S)
                return E, gE, m, gM

        monkeypatch.setattr(es, "_CylinderQuotient", Recording)
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3,
                                 cs.SolveOptions(tol_residual=1e-17))
        assert r.stop_reason in ("no_descent", "max_iters")
        assert residuals[-1] > min(residuals)
        assert r.final_residual == min(residuals)
        # the returned field is the best iterate, not the last: its fresh
        # state is far closer to the best carried state (both sit at the
        # rounding floor, so only the comparison tells them apart)
        fresh = Recording(mesh, offdiag_field, 3,
                          cs.QuadratureRule()).state(r.field.values)

        def distance(S):
            return sum(np.max(np.abs(a - b)) for a, b in zip(fresh, S))
        best = states[int(np.argmin(residuals))]
        assert distance(best) < 0.5 * distance(states[-1])

    def test_newton_counts(self, offdiag_field):
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 16))
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3)
        assert 1 <= r.newton_steps <= r.newton_attempts <= r.iterations
        lin = cs.linear_spectrum(mesh, offdiag_field, 2)
        assert all(x.newton_attempts == x.newton_steps == 0 for x in lin)

    def test_linear_offdiag_long_cylinder(self, linear_field):
        # the one-sided family at ell = 8, where the p = 2 preconditioner's
        # uniform weight is furthest from the Hessian's q^{1/2}: nonlinear
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
        # h = (E'' - lam m'')/m - 2 (d.z)(gM.z)/m from the problem's passes
        S, Sz = problem.state(u), problem.state(z)
        E, gE, m, gM = problem.gradient(S)
        lam = E / m
        dz = float((gE - lam * gM) @ z) / m
        E2, m2 = problem.curvature(S, Sz)
        return (E2 - lam * m2) / m - 2.0 * dz * float(gM @ z) / m

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_curvature_matches_second_difference(self, linear_field, p):
        # linear_offdiag: a12 varies with x2; u stays positive along the line
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 8))
        problem = es._CylinderQuotient(mesh, linear_field, p,
                                       cs.QuadratureRule())
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
        # the nodal reference is the quotient of the axial lift on a mixed
        # cylinder, as in TestGaussPointStates; linear_offdiag has a22 = 1,
        # so a22 is made to vary with x2 here
        field = cs.CoefficientField(linear_field.a11, linear_field.a12,
                                    lambda x2: 1.0 + x2 * x2)
        quad = cs.QuadratureRule()
        x2 = np.linspace(-0.5, 0.5, 17)
        e = disc._Q1(x2, quad)
        problem = es._SectionQuotient(e, field.a22(e.points), p)
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 1, cs.BC.MIXED, 2, 16))
        rng = np.random.default_rng(5)
        w = np.cos(np.pi * x2[1:-1])
        z = rng.standard_normal(w.size)

        def lifted(v):
            grid = np.tile(np.concatenate(([0.0], v, [0.0])),
                           (mesh.x1.size, 1))
            return cs.rayleigh(mesh, field, grid, p, quad)

        reference = self.second_difference(lifted, w, z)
        assert self.newton_curvature(problem, w, z) == pytest.approx(
            reference, rel=1e-6)

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


def dense_from_band(ab, kl, ku, top):
    """The matrix of LAPACK band storage: (i, j) at row top + ku + i - j."""
    n = ab.shape[1]
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            H[i, j] = ab[top + ku + i - j, j]
    return H


def section_problem(field, p, nx2):
    quad = cs.QuadratureRule()
    e = disc._Q1(np.linspace(-0.5, 0.5, nx2 + 1), quad)
    return es._SectionQuotient(e, field.a22(e.points), p)


def varying_a22(field):
    # linear_offdiag has a22 = 1; the section sees only a22
    return cs.CoefficientField(field.a11, field.a12, lambda x2: 1.0 + x2 * x2)


class TestNewton:
    """The Newton candidate: its banded Hessian, its step and the banded
    p = 2 preconditioner."""

    @staticmethod
    def hessian(problem, u):
        S = problem.state(u)
        E, _, m, _ = problem.gradient(S)
        ab = problem.hessian(S, E / m)
        bw = (ab.shape[0] - 1) // 3
        return dense_from_band(ab, bw, bw, bw), E / m

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
        problem = es._CylinderQuotient(mesh, linear_field, p,
                                       cs.QuadratureRule())
        rng = np.random.default_rng(6)
        u = 1.0 + rng.random(mesh.n_free)
        v = rng.standard_normal(mesh.n_free)
        H, lam = self.hessian(problem, u)
        reference = self.gradient_difference(problem, u, v, lam)
        assert np.linalg.norm(H @ v - reference) <= 1e-8 * np.linalg.norm(
            reference)
        # the problem reuses its band buffer: the LU factors a Newton step
        # leaves in it must not leak into the next Hessian
        S = problem.state(u)
        _, _, m, gM = problem.gradient(S)
        es._newton_direction(problem, S, u, gM, m, lam, p)
        assert np.array_equal(self.hessian(problem, u)[0], H)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_section_hessian_matches_gradient_difference(self, linear_field,
                                                         p):
        problem = section_problem(varying_a22(linear_field), p, 16)
        rng = np.random.default_rng(7)
        w = np.cos(np.pi * np.linspace(-0.5, 0.5, 17)[1:-1])
        v = rng.standard_normal(w.size)
        H, lam = self.hessian(problem, w)
        reference = self.gradient_difference(problem, w, v, lam)
        assert np.linalg.norm(H @ v - reference) <= 1e-8 * np.linalg.norm(
            reference)

    @pytest.mark.parametrize("kind", ["cylinder", "section"])
    def test_step_matches_bordered_system(self, linear_field, kind):
        # 8 cells each: 2 x 4 on the cylinder, 8 on the cross section
        p = 3.0
        if kind == "cylinder":
            mesh = cs.build_mesh(
                cs.DomainSpec(cs.Shape.FULL_CYLINDER, 0.5, cs.BC.MIXED, 2, 4))
            problem = es._CylinderQuotient(mesh, linear_field, p,
                                           cs.QuadratureRule())
            n = mesh.n_free
        else:
            problem = section_problem(varying_a22(linear_field), p, 8)
            n = 7
        rng = np.random.default_rng(8)
        u = 1.0 + rng.random(n)
        S = problem.state(u)
        E, gE, m, gM = problem.gradient(S)
        lam = E / m
        H = self.hessian(problem, u)[0] / m
        bordered = np.block([[H, gM[:, None]], [gM[None, :], np.zeros((1, 1))]])
        rhs = np.concatenate([-(gE - lam * gM) / m, [0.0]])
        delta = np.linalg.solve(bordered, rhs)[:n]
        z = es._newton_direction(problem, S, u, gM, m, lam, p)
        assert np.allclose(-z, delta, rtol=1e-9, atol=1e-12 * np.abs(delta).max())

    @pytest.mark.parametrize("shape, bc", [
        (cs.Shape.FULL_CYLINDER, cs.BC.MIXED),
        (cs.Shape.FULL_CYLINDER, cs.BC.DIRICHLET_ALL),
        (cs.Shape.HALF_PLUS, cs.BC.HALF_CYLINDER),
        (cs.Shape.HALF_MINUS, cs.BC.HALF_CYLINDER)])
    def test_banded_stiffness_solve_matches_spsolve(self, linear_field,
                                                    shape, bc):
        import scipy.sparse.linalg as spla
        quad = cs.QuadratureRule()
        mesh = cs.build_mesh(cs.DomainSpec(shape, 2, bc, 4, 8))
        solve = es._cholesky(disc.stiffness_band(mesh, linear_field, quad))
        K = cs.assemble_p2(mesh, linear_field, quad).stiffness
        b = np.random.default_rng(9).standard_normal(mesh.n_free)
        reference = spla.spsolve(K.tocsc(), b)
        assert np.allclose(solve(b), reference, rtol=1e-10,
                           atol=1e-12 * np.abs(reference).max())


class TestGaussPointStates:
    """The descent evaluates Armijo trials from Gauss-point states."""

    MESH = cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 8)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_trial_matches_nodal_quotient(self, linear_field, p):
        # linear_offdiag: a12 varies with x2
        mesh = cs.build_mesh(self.MESH)
        problem = es._CylinderQuotient(mesh, linear_field, p,
                                       cs.QuadratureRule())
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
        fresh = Recording(mesh, linear_field, p,
                          cs.QuadratureRule()).state(r.field.values)
        for a, b in zip(fresh, carried[-1]):
            assert np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(a))

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_section_trial_matches_lifted_quotient(self, linear_field, p):
        # nx2 = 64 as in the shooting-oracle check; the nodal reference is
        # the quotient of the axial lift on a mixed cylinder
        quad = cs.QuadratureRule()
        x2 = np.linspace(-0.5, 0.5, 65)
        e = disc._Q1(x2, quad)
        problem = es._SectionQuotient(e, linear_field.a22(e.points), p)
        mesh = cs.build_mesh(
            cs.DomainSpec(cs.Shape.FULL_CYLINDER, 1, cs.BC.MIXED, 2, 64))
        rng = np.random.default_rng(2)
        w = np.cos(np.pi * x2[1:-1])
        s = rng.standard_normal(w.size)
        Sw, Ss = problem.state(w), problem.state(s)
        for tau in (1e-3, 0.3, 2.0):
            E, m = problem.value(es._along(Sw, Ss, tau))
            lift = np.tile(np.concatenate(([0.0], w - tau * s, [0.0])),
                           (mesh.x1.size, 1))
            nodal = cs.rayleigh(mesh, linear_field, lift, p, quad)
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
