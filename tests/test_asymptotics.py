import numpy as np
import pytest

import cylspectra as cs
from cylspectra import asymptotics as asy
from cylspectra import discretization as disc
from cylspectra import eigensolve as es
from cylspectra.errors import ConfigurationError, DimensionMismatchError

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
    def test_symmetric_family_half_half(self, offdiag_field):
        mesh = mixed_mesh(4)
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
    """The residual of a half-cylinder result, recomputed by a quotient
    built afresh on the MINUS mesh: max|gE - lam gM| / m and its lam."""
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
