import warnings

import numpy as np
import pytest

import cylspectra as cs
from cylspectra import asymptotics as asy
from cylspectra import discretization as disc
from cylspectra import eigensolve as es
from cylspectra.errors import (ConfigurationError, DimensionMismatchError,
                               UnsupportedExponentError)

RES = (16, 4)


def mixed_mesh(ell, cpu=4, nx2=16):
    return cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, ell, cs.BC.MIXED, cpu, nx2))


def count_section_solves(monkeypatch):
    """Records the cross-section solves made through eigensolve and asy."""
    from cylspectra import eigensolve
    calls = []
    solve = eigensolve.cross_section_ground_state

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    for module in (eigensolve, asy):
        monkeypatch.setattr(module, "cross_section_ground_state", counted)
    return calls


def section_opts(monkeypatch):
    """Records the `opts` of every cross-section solve through asy."""
    import inspect
    from cylspectra import eigensolve
    recorded = []
    solve = eigensolve.cross_section_ground_state
    signature = inspect.signature(solve)

    def recording(*args, **kwargs):
        recorded.append(signature.bind(*args, **kwargs).arguments.get("opts"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(asy, "cross_section_ground_state", recording)
    return recorded


class TestFitDecay:
    def test_exact_geometric(self):
        prof = cs.SlabProfile(0.5 ** np.arange(8), np.ones(8) / 8,
                              0.5 ** np.arange(8))
        fit = asy.fit_decay(prof, (1, 6))
        assert fit.alpha_hat == pytest.approx(0.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert not fit.no_decay

    def test_constant_profile_flagged(self):
        prof = cs.SlabProfile(np.ones(6), np.ones(6), np.ones(6))
        fit = asy.fit_decay(prof, (0, 5))
        assert fit.alpha_hat == pytest.approx(1.0)
        assert fit.no_decay

    def test_orientation_picks_heavier_end(self):
        grad = 0.25 ** np.arange(8)
        prof = cs.SlabProfile(grad[::-1], grad[::-1], grad[::-1])
        fit = asy.fit_decay(asy.orient_profile(prof), (1, 6))
        assert fit.alpha_hat == pytest.approx(0.25, rel=1e-12)

    def test_window_validation(self):
        prof = cs.SlabProfile(np.ones(4), np.ones(4), np.ones(4))
        with pytest.raises(ConfigurationError):
            asy.fit_decay(prof, (1, 2))
        bad = cs.SlabProfile(np.zeros(6), np.ones(6), np.ones(6))
        with pytest.raises(ConfigurationError):
            asy.fit_decay(bad, (0, 5))

    def test_negative_window_start_rejected(self):
        # slabs -2 and -1 would be the far end's, fitted as if they came first
        grad = np.exp(-0.5 * np.arange(8))
        prof = cs.SlabProfile(grad, np.ones(8) / 8, grad)
        assert asy.fit_decay(prof, (2, 6)).alpha_hat == pytest.approx(
            np.exp(-0.5), rel=1e-12)
        with pytest.raises(ConfigurationError, match="below slab 0"):
            asy.fit_decay(prof, (-2, 6))


class TestNuEstimate:
    def test_synthetic_geometric_ladder_recovered(self, offdiag_field):
        # end-to-end ladder on a cheap mesh is monotone and extrapolates lower
        est = asy.nu_infinity_estimate(cs.Side.PLUS, offdiag_field, 2,
                                       [2, 4, 6], RES)
        assert est.monotone_ok
        values = [v for _, v in est.ladder]
        assert values == sorted(values, reverse=True)
        assert est.extrapolated <= est.last_value + 1e-12

    def test_aitken_exact_on_geometric_tail(self, monkeypatch):
        # exact geometric ladder nu + C rho^ell -> extrapolation recovers nu
        nu, C, rho = 9.5, 0.8, 0.5
        values = iter([nu + C * rho ** ell for ell in (2, 4, 6)])

        def fake_half(side, ell, resolution, coeffs, p, opts=None,
                      cross=None):
            class R:
                lam = next(values)
                converged = True
            return R()

        monkeypatch.setattr(asy, "half_cylinder_eigen", fake_half)
        monkeypatch.setattr(asy, "cross_section_ground_state",
                            lambda *args, **kwargs: None)
        est = asy.nu_infinity_estimate(cs.Side.PLUS, None, 2, [2, 4, 6], RES)
        assert est.extrapolated == pytest.approx(nu, abs=1e-12)

    def test_non_monotone_falls_back(self, monkeypatch):
        values = iter([9.0, 9.4, 9.2])

        def fake_half(side, ell, resolution, coeffs, p, opts=None,
                      cross=None):
            class R:
                lam = next(values)
                converged = True
            return R()

        monkeypatch.setattr(asy, "half_cylinder_eigen", fake_half)
        monkeypatch.setattr(asy, "cross_section_ground_state",
                            lambda *args, **kwargs: None)
        est = asy.nu_infinity_estimate(cs.Side.MINUS, None, 2, [2, 4, 6], RES)
        assert not est.monotone_ok
        assert est.extrapolated == est.last_value == 9.2

    def test_p3_ladder_solves_cross_section_once(self, monkeypatch,
                                                 offdiag_field):
        calls = count_section_solves(monkeypatch)
        for p in (2, 3):
            calls.clear()
            asy.nu_infinity_estimate(cs.Side.PLUS, offdiag_field, p,
                                     [2, 4, 6], RES)
            assert len(calls) == 1

    def test_ladder_validation(self, offdiag_field):
        with pytest.raises(ConfigurationError):
            asy.nu_infinity_estimate(cs.Side.PLUS, offdiag_field, 2, [2, 4], RES)
        with pytest.raises(ConfigurationError):
            asy.nu_infinity_estimate(cs.Side.PLUS, offdiag_field, 2,
                                     [2, 4, 4], RES)


class TestGapIntegral:
    def test_identity_zero_and_flag(self, identity_field):
        cross = cs.cross_section_ground_state(32, identity_field, 2)
        gi = asy.gap_integral_I2(cross, identity_field, 2)
        assert gi.value == 0.0
        assert gi.a12_gradw_vanishes

    def test_constant_offdiag_odd_integrand(self, offdiag_field):
        cross = cs.cross_section_ground_state(32, offdiag_field, 2)
        gi = asy.gap_integral_I2(cross, offdiag_field, 2)
        assert abs(gi.value) < 1e-12
        assert not gi.a12_gradw_vanishes

    def test_linear_offdiag_closed_form(self, linear_field):
        # int (0.8 x2 W') W = -0.4 int W^2 = -0.4 for the 2-normalized state
        cross = cs.cross_section_ground_state(64, linear_field, 2)
        gi = asy.gap_integral_I2(cross, linear_field, 2)
        assert gi.value == pytest.approx(-0.4, rel=1e-10)

    def test_grad_aligned_positive(self, identity_field):
        cross = cs.cross_section_ground_state(64, identity_field, 2)
        ga = cs.make_coefficients(
            cs.CoefficientFamily(cs.FamilyKind.GRAD_ALIGNED, 0.15), cross=cross)
        gi = asy.gap_integral_I2(cross, ga, 2)
        oracle = 0.15 * 4 * np.sqrt(2) * np.pi / 3  # c int W'^2 W, W = sqrt2 cos
        assert gi.value == pytest.approx(oracle, rel=1e-2)
        assert gi.value > 0


class TestExpTest:
    def test_decoupled_closed_form(self, identity_field):
        cross = cs.cross_section_ground_state(32, identity_field, 2)
        val = asy.exp_test_upper_bound(0.1, cross, identity_field, 2)
        assert val == pytest.approx(cross.mu1 + 0.01, rel=1e-12)

    def test_small_eps_approaches_mu1(self, offdiag_field):
        cross = cs.cross_section_ground_state(32, offdiag_field, 2)
        val = asy.exp_test_upper_bound(0.01, cross, offdiag_field, 2)
        assert abs(val - cross.mu1) < 0.1 * cross.mu1 * 0.01 + 0.05

    def test_upper_bounds_the_limit(self, offdiag_field):
        cross = cs.cross_section_ground_state(16, offdiag_field, 2)
        est = asy.nu_infinity_estimate(cs.Side.PLUS, offdiag_field, 2,
                                       [4, 8, 12], RES)
        val = asy.exp_test_upper_bound(0.05, cross, offdiag_field, 2)
        assert val >= est.extrapolated - 1e-8

    def test_eps_must_be_positive(self, identity_field):
        cross = cs.cross_section_ground_state(16, identity_field, 2)
        for eps in (0.0, -0.1):
            with pytest.raises(ConfigurationError):
                asy.exp_test_upper_bound(eps, cross, identity_field, 2)


class TestSlabBound:
    def test_identity_equals_mu1(self, identity_field):
        for p in (2.0, 3.0):
            cross = cs.cross_section_ground_state(32, identity_field, p)
            for variant in ("as_printed", "squared"):
                val, clamped = asy.slab_bound(cross, identity_field, p, variant)
                assert val == pytest.approx(cross.mu1, rel=1e-12)
                assert clamped == 0

    def test_constant_offdiag_squared_oracle(self, offdiag_field):
        # a12 = c constant: squared variant = (1 - c^2) mu1 exactly
        cross = cs.cross_section_ground_state(32, offdiag_field, 2)
        val, _ = asy.slab_bound(cross, offdiag_field, 2, "squared")
        assert val == pytest.approx((1 - 0.09) * cross.mu1, rel=1e-12)
        assert val < cross.mu1

    def test_variant_validation(self, identity_field):
        cross = cs.cross_section_ground_state(16, identity_field, 2)
        with pytest.raises(ConfigurationError):
            asy.slab_bound(cross, identity_field, 2, "bogus")


class TestEndMassSplit:
    # at ell 2.125 the 17th axial cell straddles x1 = 0
    @pytest.mark.parametrize("ell", [4, 2.125])
    def test_symmetric_family_half_half(self, offdiag_field, ell):
        mesh = mixed_mesh(ell)
        r = cs.minimize_rayleigh(mesh, offdiag_field, 3)
        split = asy.end_mass_split(r.field, mesh, offdiag_field, 3)
        assert split.d_plus == pytest.approx(0.5, abs=1e-6)
        assert split.d_minus == pytest.approx(0.5, abs=1e-6)
        assert split.d_plus + split.d_minus == pytest.approx(1.0, abs=1e-8)
        assert split.n_plus + split.n_minus == pytest.approx(r.lam, abs=1e-8)

    def test_one_sided_family_direction(self, linear_field):
        # minus-side gap: mass leaves the left (plus-modelled) end
        mesh = mixed_mesh(8)
        r = cs.linear_spectrum(mesh, linear_field, 1)[0]
        split = asy.end_mass_split(r.field, mesh, linear_field, 2)
        assert split.d_plus < 0.01
        assert split.d_minus > 0.99

    def test_requires_full_cylinder(self, offdiag_field):
        half = cs.build_mesh(
            cs.DomainSpec(cs.Shape.HALF_PLUS, 2, cs.BC.HALF_CYLINDER, 4, 16))
        u = cs.DiscreteField(np.ones(half.n_free), half)
        with pytest.raises(ConfigurationError):
            asy.end_mass_split(u, half, offdiag_field, 2)


class TestSweep:
    def test_p3_sweep_solves_cross_section_once(self, monkeypatch,
                                                offdiag_field):
        calls = count_section_solves(monkeypatch)
        for p in (2, 3):
            calls.clear()
            asy.sweep_lambda([2, 4], offdiag_field, p, RES)
            assert len(calls) == 1

    def test_p2_sweep_builds_no_csr(self, monkeypatch, offdiag_field):
        # the p = 2 solves apply K and M as DIA arrays; only the public
        # assemble_p2 builds CSR matrices.  Every CSR or CSC matrix or
        # array is built by the one compressed-storage constructor
        from scipy.sparse import _compressed
        calls = []
        init = _compressed._cs_matrix.__init__

        def counted(self, *args, **kwargs):
            calls.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_compressed._cs_matrix, "__init__", counted)
        tab = asy.sweep_lambda([2, 4], offdiag_field, 2, RES)
        assert all(row.converged for row in tab)
        assert calls == []
        # the counter sees a CSR build
        mesh = cs.build_mesh(cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2,
                                           cs.BC.MIXED, 2, 8))
        cs.assemble_p2(mesh, offdiag_field)
        assert calls

    def test_section_solve_takes_the_options(self, monkeypatch,
                                             offdiag_field):
        # a config's tolerance reaches the solve behind the mu1 column
        recorded = section_opts(monkeypatch)
        opts = cs.SolveOptions(tol_residual=1e-4)
        tab = asy.sweep_lambda([2], offdiag_field, 3, RES, opts)
        assert recorded == [opts]
        assert tab[0].converged

    def test_identity_rows_have_no_gap(self, identity_field):
        tab = asy.sweep_lambda([2, 3], identity_field, 2, RES)
        for row in tab:
            assert abs(row.gap) < 1e-6 * row.mu1
            assert row.converged

    def test_row_identities_and_bracketing(self, offdiag_field):
        tab = asy.sweep_lambda([2, 4], offdiag_field, 2, RES)
        for row in tab:
            assert row.d_plus + row.d_minus == pytest.approx(1.0, abs=1e-8)
            assert row.n_plus + row.n_minus == pytest.approx(
                row.lambda_mixed, abs=1e-8)
            assert row.lambda_mixed <= row.mu1 + 1e-8
            assert row.lambda_mixed <= row.lambda_half_plus + 1e-6
            assert row.lambda_mixed <= row.lambda_half_minus + 1e-6
            assert row.mu1 <= row.lambda_dirichlet + 1e-8

    def test_reflection_swaps_columns(self, linear_field):
        refl = cs.reflect_axis(linear_field)
        tab = asy.sweep_lambda([3], linear_field, 2, RES)
        tab_r = asy.sweep_lambda([3], refl, 2, RES)
        a, b = tab[0], tab_r[0]
        assert a.lambda_half_plus == pytest.approx(b.lambda_half_minus, abs=1e-8)
        assert a.lambda_half_minus == pytest.approx(b.lambda_half_plus, abs=1e-8)
        # eigenvalues converge quadratically, mass fractions only linearly
        assert a.d_plus == pytest.approx(b.d_minus, abs=1e-4)
        assert a.lambda_mixed == pytest.approx(b.lambda_mixed, abs=1e-7)

    def test_increasing_ells_required(self, identity_field):
        with pytest.raises(ConfigurationError):
            asy.sweep_lambda([4, 2], identity_field, 2, RES)


class TestBeta2:
    def test_symmetric_sides_agree(self, offdiag_field):
        bound = asy.beta2_upper_bound(3, RES, offdiag_field, 2)
        rp = cs.half_cylinder_eigen(cs.Side.PLUS, 3, RES, offdiag_field, 2)
        assert bound.value == pytest.approx(rp.lam, abs=1e-7)
        assert bound.value == max(bound.plus.lam, bound.minus.lam)
        assert bound.converged

    def test_uncertified_solves_flagged(self, monkeypatch, offdiag_field):
        # one step certifies neither half-cylinder solve; the options reach
        # the cross-section solve too
        recorded = section_opts(monkeypatch)
        opts = cs.SolveOptions(max_iters=1)
        bound = asy.beta2_upper_bound(3, RES, offdiag_field, 3, opts)
        assert recorded == [opts]
        assert not bound.converged
        assert not (bound.plus.converged or bound.minus.converged)
        assert bound.value == max(bound.plus.lam, bound.minus.lam)
        certified = asy.beta2_upper_bound(3, RES, offdiag_field, 3)
        assert certified.converged and certified.value < bound.value

    def test_p3_solves_cross_section_once(self, monkeypatch, offdiag_field):
        calls = count_section_solves(monkeypatch)
        for p in (2, 3):
            calls.clear()
            asy.beta2_upper_bound(3, RES, offdiag_field, p)
            assert len(calls) == 1

    def test_quarter_wave_identity(self, identity_field):
        val = asy.beta2_upper_bound(2, (32, 8), identity_field, 2).value
        assert val == pytest.approx(np.pi ** 2 + (np.pi / 4) ** 2, rel=2e-3)


def record_half_solves(monkeypatch):
    """Records (side, start given, result) of every half-cylinder solve
    that `asy` makes through its `half_cylinder_eigen`."""
    solves = []
    solve = asy.half_cylinder_eigen

    def recording(side, *args, **kwargs):
        r = solve(side, *args, **kwargs)
        start = args[6] if len(args) > 6 else kwargs.get("start")
        solves.append((side, start is not None, r))
        return r

    monkeypatch.setattr(asy, "half_cylinder_eigen", recording)
    return solves


def fresh_residual(r, coeffs, p):
    """The residual of a result, recomputed by a quotient built afresh on
    its mesh: max|gE - lam gM| / m and its lam."""
    mesh = r.field.mesh
    if p == 2:
        K, M = disc._p2_diagonals(mesh, coeffs)
        problem = es._PencilQuotient(K, M)
    else:
        problem = es._CylinderQuotient(mesh, coeffs, p)
    E, gE, m, gM = problem.gradient(problem.state(r.field.values))
    lam = E / m
    return float(np.max(np.abs(gE - lam * gM))) / m, lam


def near_symmetric_tabulated():
    """COD 0.3 as a table whose a12 is odd-perturbed by 4e-10 at the
    section ends: symmetric only to within `SYMMETRY_TOL`."""
    x2 = np.linspace(-0.5, 0.5, 9)
    rows = [(x, 1.0, 0.3 + 4e-10 * x, 1.0) for x in x2]
    return cs.make_coefficients(cs.CoefficientFamily(
        cs.FamilyKind.TABULATED, samples=tuple(rows)))


class TestMirroredMinus:
    """Under symmetry S the MINUS half cylinder starts from the reflected
    PLUS eigenvector; its certificate is its own residual."""

    @pytest.mark.parametrize("family", ["offdiag_field", "identity_field"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_symmetric_minus_from_the_mirror(self, monkeypatch, request,
                                             family, p):
        coeffs = request.getfixturevalue(family)
        opts = cs.SolveOptions()
        solves = record_half_solves(monkeypatch)
        row = asy.sweep_lambda([3], coeffs, p, RES)[0]
        bound = asy.beta2_upper_bound(3, RES, coeffs, p)
        assert [(side, given) for side, given, _ in solves] == [
            (cs.Side.PLUS, False), (cs.Side.MINUS, True)] * 2
        lifted = cs.half_cylinder_eigen(cs.Side.MINUS, 3, RES, coeffs, p)
        for minus in (solves[1][2], bound.minus):
            assert minus.converged and minus.stop_reason == "residual"
            assert minus.iterations == minus.factorizations == 0
            assert minus.lam == pytest.approx(lifted.lam, rel=1e-12)
            res, lam = fresh_residual(minus, coeffs, p)
            assert lam == pytest.approx(minus.lam, rel=1e-14)
            assert res <= opts.tol_residual * max(1.0, abs(lam))
        assert row.lambda_half_minus == solves[1][2].lam
        assert bound.minus is solves[3][2]

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_asymmetric_family_solves_from_the_lift(self, monkeypatch,
                                                    linear_field, p):
        solves = record_half_solves(monkeypatch)
        asy.sweep_lambda([3], linear_field, p, RES)
        asy.beta2_upper_bound(3, RES, linear_field, p)
        lifted = cs.half_cylinder_eigen(cs.Side.MINUS, 3, RES, linear_field, p)
        assert [given for _, given, _ in solves] == [False] * 4
        for _, _, minus in solves[1::2]:
            assert minus.lam == lifted.lam
            assert np.array_equal(minus.field.values, lifted.field.values)
            assert minus.iterations == lifted.iterations > 0
            assert minus.factorizations == lifted.factorizations

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_near_symmetric_table_certified(self, p):
        coeffs = near_symmetric_tabulated()
        assert cs.satisfies_symmetry_S(coeffs)
        opts = cs.SolveOptions()
        bound = asy.beta2_upper_bound(3, RES, coeffs, p, opts)
        lifted = cs.half_cylinder_eigen(cs.Side.MINUS, 3, RES, coeffs, p)
        assert bound.converged and bound.minus.converged
        res, lam = fresh_residual(bound.minus, coeffs, p)
        assert res <= opts.tol_residual * max(1.0, abs(lam))
        assert bound.minus.lam == pytest.approx(lifted.lam, rel=1e-9)

    def test_uncertified_plus_not_mirrored(self, monkeypatch, offdiag_field):
        solves = record_half_solves(monkeypatch)
        asy.beta2_upper_bound(3, RES, offdiag_field, 3,
                              cs.SolveOptions(max_iters=1))
        assert [given for _, given, _ in solves] == [False, False]


def unfolded(mesh, coeffs, p, opts=None):
    """The engine on the whole mesh's quotient from the lifted start, with
    no S-even fold."""
    opts = opts or cs.SolveOptions()
    start = es._lifted_start(mesh, coeffs, p, opts, None)
    return es._eigen_result(mesh, es._minimize_quotient(
        es._CylinderQuotient(mesh, coeffs, p), start, opts))


def record_factorizations(monkeypatch):
    """The columns of every dgbsv band, and (mesh, result, columns) of each
    full-cylinder `minimize_rayleigh`."""
    import scipy.linalg.lapack as lapack
    columns, solves = [], []
    dgbsv, solve = lapack.dgbsv, es.minimize_rayleigh

    def counted(kl, ku, ab, *args, **kwargs):
        columns.append(ab.shape[1])
        return dgbsv(kl, ku, ab, *args, **kwargs)

    def recording(mesh, *args, **kwargs):
        before = len(columns)
        r = solve(mesh, *args, **kwargs)
        if mesh.spec.shape is cs.Shape.FULL_CYLINDER:
            solves.append((mesh, r, columns[before:]))
        return r

    monkeypatch.setattr(lapack, "dgbsv", counted)
    monkeypatch.setattr(es, "minimize_rayleigh", recording)
    return columns, solves


class TestSEvenFold:
    """Under symmetry S at p != 2 a full cylinder with a node row at x1 = 0
    is solved on its S-even half, then certified on the whole mesh."""

    @pytest.mark.parametrize("family", ["offdiag_field", "identity_field"])
    @pytest.mark.parametrize("bc", [cs.BC.MIXED, cs.BC.DIRICHLET_ALL])
    @pytest.mark.parametrize("ell", [2, 3])
    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_fold_matches_the_whole_mesh(self, request, family, bc, ell, p):
        coeffs = request.getfixturevalue(family)
        opts = cs.SolveOptions()
        mesh = cs.build_mesh(cs.DomainSpec(cs.Shape.FULL_CYLINDER, ell, bc,
                                           4, 16))
        r, whole = cs.minimize_rayleigh(mesh, coeffs, p), unfolded(
            mesh, coeffs, p)
        assert r.converged and r.stop_reason == "residual"
        assert r.lam == pytest.approx(whole.lam, rel=1e-12)
        assert np.array_equal(r.field.values, r.field.values[::-1])
        res, lam = fresh_residual(r, coeffs, p)
        assert lam == pytest.approx(r.lam, rel=1e-14)
        assert res <= opts.tol_residual * max(1.0, abs(lam))
        assert r.final_residual == pytest.approx(res, rel=1e-6)
        # the certifying run adds its initial value to the history
        assert len(r.rayleigh_history) == r.iterations + 2

    def test_sweep_factors_half_bands(self, monkeypatch, offdiag_field):
        # every factorization of a full cylinder has ceil(n_free / 2)
        # columns, and there are as many steps and factorizations as on
        # the whole mesh
        columns, solves = record_factorizations(monkeypatch)
        asy.sweep_lambda([2, 4], offdiag_field, 3, (32, 4))
        monkeypatch.undo()
        assert len(solves) == 4
        for mesh, r, cols in solves:
            whole = unfolded(mesh, offdiag_field, 3)
            assert cols == [(mesh.n_free + 1) // 2] * r.factorizations
            assert (r.iterations, r.factorizations) == (
                whole.iterations, whole.factorizations) != (0, 0)
            assert r.converged and r.lam == pytest.approx(whole.lam,
                                                          rel=1e-12)

    def test_no_fold_without_symmetry_or_middle_row(self, monkeypatch,
                                                    offdiag_field,
                                                    linear_field):
        # LOD 0.8 breaks symmetry S; 17 axial cells leave no node row at
        # x1 = 0: both factor the whole mesh, as from a given start
        cross = cs.cross_section_ground_state(32, offdiag_field, 3)
        odd = cs.build_mesh(cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2.125,
                                          cs.BC.MIXED, 4, 32))
        assert odd.n_cells1 == 17
        columns, solves = record_factorizations(monkeypatch)
        asy.sweep_lambda([2], linear_field, 3, (32, 4))
        asy.first_eigen(odd, offdiag_field, 3, cross=cross)
        monkeypatch.undo()
        assert len(solves) == 3
        for (mesh, r, cols), coeffs in zip(
                solves, (linear_field, linear_field, offdiag_field)):
            whole = unfolded(mesh, coeffs, 3)
            assert cols == [mesh.n_free] * r.factorizations
            assert r.lam == whole.lam
            assert np.array_equal(r.rayleigh_history, whole.rayleigh_history)

    def test_given_start_is_folded(self, monkeypatch, offdiag_field):
        # the problem alone chooses the fold: a given start is folded from
        # its first k entries, and the result is the lifted start's
        mesh = mixed_mesh(4, nx2=32)
        start = es._lifted_start(mesh, offdiag_field, 3, cs.SolveOptions(),
                                 None)
        lifted = cs.minimize_rayleigh(mesh, offdiag_field, 3)
        columns, solves = record_factorizations(monkeypatch)
        r = es.minimize_rayleigh(mesh, offdiag_field, 3, start=start)
        monkeypatch.undo()
        assert [cols for _, _, cols in solves] == [columns]
        assert columns == [(mesh.n_free + 1) // 2] * r.factorizations
        assert r.factorizations > 0 and r.converged
        assert r.lam == lifted.lam
        assert np.array_equal(r.field.values, lifted.field.values)

    @pytest.mark.parametrize("max_iters", [1, 3])
    def test_max_iters_caps_both_runs(self, monkeypatch, offdiag_field,
                                      max_iters):
        cross = cs.cross_section_ground_state(32, offdiag_field, 3)
        mesh = mixed_mesh(4, nx2=32)
        columns, _ = record_factorizations(monkeypatch)
        r = asy.first_eigen(mesh, offdiag_field, 3,
                            cs.SolveOptions(max_iters=max_iters), cross)
        monkeypatch.undo()
        assert r.iterations == max_iters < unfolded(
            mesh, offdiag_field, 3).iterations
        assert r.stop_reason == "max_iters" and not r.converged
        assert set(columns) == {(mesh.n_free + 1) // 2}

    @pytest.mark.parametrize("bc", [cs.BC.MIXED, cs.BC.DIRICHLET_ALL])
    def test_near_symmetric_table_certified(self, bc):
        coeffs = near_symmetric_tabulated()
        opts = cs.SolveOptions()
        mesh = cs.build_mesh(cs.DomainSpec(cs.Shape.FULL_CYLINDER, 3, bc,
                                           4, 16))
        r = cs.minimize_rayleigh(mesh, coeffs, 3, opts)
        assert r.converged
        res, lam = fresh_residual(r, coeffs, 3)
        assert res <= opts.tol_residual * max(1.0, abs(lam))
        assert r.lam == pytest.approx(unfolded(mesh, coeffs, 3).lam,
                                      rel=1e-9)


class TestPicone:
    def test_lifted_state_is_equality_case(self, identity_field):
        mesh = mixed_mesh(2)
        cross = cs.cross_section_ground_state(16, identity_field, 2)
        lift = cs.lift_cross_section(cross, mesh)
        assert abs(asy.picone_residual_min(
            lift, cross, mesh, identity_field, 2)) < 1e-12
        doubled = cs.DiscreteField(2 * lift.values, mesh)
        assert abs(asy.picone_residual_min(
            doubled, cross, mesh, identity_field, 2)) < 1e-12

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_minimizer_nonnegative(self, offdiag_field, p):
        mesh = mixed_mesh(3)
        cross = cs.cross_section_ground_state(16, offdiag_field, p)
        r = cs.minimize_rayleigh(mesh, offdiag_field, p)
        assert asy.picone_residual_min(
            r.field, cross, mesh, offdiag_field, p) >= -1e-10

    def test_negative_field_rejected(self, identity_field):
        mesh = mixed_mesh(2)
        cross = cs.cross_section_ground_state(16, identity_field, 2)
        u = cs.DiscreteField(-np.ones(mesh.n_free), mesh)
        with pytest.raises(ConfigurationError):
            asy.picone_residual_min(u, cross, mesh, identity_field, 2)

    def test_section_resolution_checked(self, identity_field):
        mesh = mixed_mesh(2)
        cross = cs.cross_section_ground_state(8, identity_field, 2)
        u = cs.DiscreteField(np.ones(mesh.n_free), mesh)
        with pytest.raises(DimensionMismatchError):
            asy.picone_residual_min(u, cross, mesh, identity_field, 2)


class TestTranslateDistance:
    def test_identical_fields_zero(self, offdiag_field):
        r = cs.half_cylinder_eigen(cs.Side.PLUS, 3, RES, offdiag_field, 2)
        assert asy.translate_distance(r.field, r.field, cs.Side.PLUS, 2, 2) == 0.0

    def test_sign_alignment(self, offdiag_field):
        r = cs.half_cylinder_eigen(cs.Side.PLUS, 3, RES, offdiag_field, 2)
        flipped = cs.DiscreteField(-r.field.values, r.field.mesh)
        mesh = mixed_mesh(3)
        full = cs.linear_spectrum(mesh, offdiag_field, 1)[0]
        d0 = asy.translate_distance(full.field, r.field, cs.Side.PLUS, 2, 2)
        d1 = asy.translate_distance(full.field, flipped, cs.Side.PLUS, 2, 2)
        assert d0 == pytest.approx(d1, abs=1e-14)

    def test_profile_converges_with_length(self, linear_field):
        # the end profile of a short cylinder is visibly farther from the
        # half-cylinder minimizer than that of a longer one
        half = cs.half_cylinder_eigen(cs.Side.MINUS, 8, RES, linear_field, 2)
        dists = []
        for ell in (2, 4):
            mesh = mixed_mesh(ell)
            full = cs.linear_spectrum(mesh, linear_field, 1)[0]
            dists.append(asy.translate_distance(
                full.field, half.field, cs.Side.MINUS, 2, 2))
        assert dists[1] < 0.7 * dists[0]

    def test_grid_compatibility_checks(self, offdiag_field):
        r = cs.half_cylinder_eigen(cs.Side.PLUS, 3, RES, offdiag_field, 2)
        other = cs.half_cylinder_eigen(cs.Side.PLUS, 3, (16, 8), offdiag_field, 2)
        with pytest.raises(DimensionMismatchError):
            asy.translate_distance(r.field, other.field, cs.Side.PLUS, 2, 2)
        with pytest.raises(DimensionMismatchError):
            asy.translate_distance(r.field, r.field, cs.Side.PLUS, 10, 2)
        # r = 1.1 is 4.4 cells of 1/4
        with pytest.raises(DimensionMismatchError):
            asy.translate_distance(r.field, r.field, cs.Side.PLUS, 1.1, 2)
        narrow = cs.build_mesh(cs.DomainSpec(
            cs.Shape.HALF_PLUS, 3, cs.BC.HALF_CYLINDER, 4, 8))
        ones = cs.DiscreteField(np.ones(narrow.n_free), narrow)
        with pytest.raises(DimensionMismatchError):
            asy.translate_distance(r.field, ones, cs.Side.PLUS, 2, 2)


def count_engine_calls(monkeypatch):
    """Records every descent of the engine, whatever the problem."""
    calls = []
    engine = es._minimize_quotient

    def counted(*args, **kwargs):
        calls.append(type(args[0]).__name__)
        return engine(*args, **kwargs)

    monkeypatch.setattr(es, "_minimize_quotient", counted)
    return calls


# lengths with the bad one among them: at 16 x 4, ell 0 and -1 are no
# lengths, and 2.1 is 8.4 axial cells of a half cylinder (16.8 of a full one)
BAD_LENGTHS = (([0.0, 2.0], 0.0), ([-1.0, 2.0], -1.0), ([2.1, 3.0], 2.1),
               ([2.0, 3.0, 4.1], 4.1))


class TestInputChecks:
    """Each input rule is checked once, by the library, before any solve."""

    @pytest.mark.parametrize("ells, bad", BAD_LENGTHS)
    def test_lengths_rejected_before_any_solve(self, monkeypatch,
                                               offdiag_field, ells, bad):
        sections = count_section_solves(monkeypatch)
        engine = count_engine_calls(monkeypatch)
        ladder = ells + [5.0] if len(ells) < 3 else ells
        for run in (
                lambda: asy.sweep_lambda(ells, offdiag_field, 3, RES),
                lambda: asy.nu_infinity_estimate(cs.Side.PLUS, offdiag_field,
                                                 3, ladder, RES),
                lambda: asy.beta2_upper_bound(bad, RES, offdiag_field, 3)):
            with pytest.raises(ConfigurationError):
                run()
        assert sections == [] and engine == []

    def test_lengths_check(self):
        assert asy.check_lengths((2, 3.5), RES) == [2, 3.5]
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            asy.check_lengths([2, 2], RES)
        with pytest.raises(ConfigurationError, match="at least 3 lengths"):
            asy.check_lengths([2, 3], RES, asy.LADDER_RUNGS)
        with pytest.raises(ConfigurationError, match="at least 1 lengths"):
            asy.sweep_lambda([], cs.make_coefficients(cs.CoefficientFamily(
                cs.FamilyKind.IDENTITY)), 2, RES)
        # 2.125 cuts a full cylinder of 4 cells per unit into 17 cells, but
        # its half cylinders into 8.5
        with pytest.raises(ConfigurationError, match="whole number of cells"):
            asy.check_lengths([2.125], RES)

    def test_window_check(self):
        assert asy.check_window((2, 10), 8) == (2, 7)
        assert asy.check_window([0, 2], 3) == (0, 2)
        with pytest.raises(ConfigurationError, match="below slab 0"):
            asy.check_window((-1, 4), 8)
        with pytest.raises(ConfigurationError, match="inside the 4-slab"):
            asy.check_window((2, 10), 4)

    @pytest.mark.parametrize("p", [1.5, 0.5, float("nan")])
    def test_exponent_floor_before_any_solve(self, monkeypatch,
                                             offdiag_field, p):
        engine = count_engine_calls(monkeypatch)
        mesh = mixed_mesh(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (
                    lambda: cs.minimize_rayleigh(mesh, offdiag_field, p),
                    lambda: es.first_eigen(mesh, offdiag_field, p),
                    lambda: asy.first_eigen(mesh, offdiag_field, p),
                    lambda: cs.half_cylinder_eigen(cs.Side.PLUS, 2, RES,
                                                   offdiag_field, p),
                    lambda: cs.cross_section_ground_state(16, offdiag_field,
                                                          p),
                    lambda: asy.sweep_lambda([1, 2], offdiag_field, p, RES),
                    lambda: asy.beta2_upper_bound(2, RES, offdiag_field, p),
                    lambda: asy.nu_infinity_estimate(
                        cs.Side.MINUS, offdiag_field, p, [1, 2, 3], RES)):
                with pytest.raises(UnsupportedExponentError,
                                   match="p must be >= 2"):
                    run()
        assert engine == []


def random_tabulated(rng, symmetric):
    """A tabulated family through 7 random samples: a11 and a22 in [1, 2],
    a12 in [-0.6, 0.6], so every A is uniformly elliptic; mirrored about
    x2 = 0 where `symmetric`."""
    x2 = np.linspace(-0.5, 0.5, 7)
    a = rng.uniform([1.0, -0.6, 1.0], [2.0, 0.6, 2.0], size=(7, 3))
    if symmetric:
        a = 0.5 * (a + a[::-1])
    rows = np.column_stack([x2, a])
    return cs.make_coefficients(cs.CoefficientFamily(
        cs.FamilyKind.TABULATED, samples=tuple(map(tuple, rows))))


class TestNesting:
    """The exact discrete facts of nested Q1 spaces, at any p: a half
    cylinder, shifted to an end of the full one and extended by zero, and
    the axial lift of the section state both lie in the mixed space, and
    a shorter cylinder's Dirichlet and half-cylinder spaces in a longer
    one's (the mesh spacing is the same)."""

    SLACK = 1e-10

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_sweep_rows_nest(self, p, symmetric):
        for seed in range(20):
            coeffs = random_tabulated(np.random.default_rng(seed), symmetric)
            assert cs.satisfies_symmetry_S(coeffs) == symmetric
            rows = asy.sweep_lambda([1, 2, 3], coeffs, p, RES)
            bound = 1.0 + self.SLACK
            for r in rows:
                assert r.converged, seed
                assert r.lambda_mixed <= bound * min(
                    r.lambda_half_plus, r.lambda_half_minus, r.mu1), seed
            for a, b in zip(rows, rows[1:]):
                for name in ("lambda_half_plus", "lambda_half_minus",
                             "lambda_dirichlet"):
                    assert getattr(b, name) <= bound * getattr(a, name), (
                        seed, name)
