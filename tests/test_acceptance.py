"""Acceptance suite: the quantitative desk-scale checks, one line per check.

Run with `pytest tests/test_acceptance.py -v -s` to see every margin.
Desk scale: nx2 = 64, cells_per_unit = 8, lengths {2, 4, 8, 12}, p in {2, 3};
the constant off-diagonal family at p = 2 runs on to lengths {16, 20, 24},
past its long boundary layer (see `LONG_TAIL`).
Expensive sweeps/ladders are computed once and shared across criteria.
"""

import json

import numpy as np
import pytest

import cylspectra as cs
from cylspectra import asymptotics as asy
from cylspectra import cli

NX2, CPU = 64, 8
RES = (NX2, CPU)
ELLS = [2.0, 4.0, 8.0, 12.0]
LADDER = [4.0, 8.0, 12.0]
# The constant off-diagonal family at c = 0.3, p = 2 has a weak gap
# (second order in c).  Its boundary layer decays like exp(-kappa |x1 -
# end|) with kappa = 0.135, measured from the lam2 - lam1 splitting and
# equal to sqrt(gap_inf / (1 - c^2)): a layer length 1/kappa = 7.4.  At
# ell = 12 the layers of the two ends still overlap (exp(-2 kappa ell) =
# 0.04), so the asymptotic checks of that case run on to ell = 24.
LONG_TAIL = [16.0, 20.0, 24.0]

_cache = {}


def check(name, ok, detail):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{name}: {detail}"


def coeffs(kind, c=0.0, p=2.0):
    """The family's field; `grad_aligned` is built, as the CLI builds it,
    from the identity section at the run's p."""
    ga = kind is cs.FamilyKind.GRAD_ALIGNED
    key = ("coeffs", kind, c, p if ga else None)
    if key not in _cache:
        if ga:
            base = cross(cs.FamilyKind.IDENTITY, 0.0, p)
            _cache[key] = cs.make_coefficients(
                cs.CoefficientFamily(kind, c), cross=base)
        else:
            _cache[key] = cs.make_coefficients(cs.CoefficientFamily(kind, c))
    return _cache[key]


def cross(kind, c, p):
    key = ("cross", kind, c, p)
    if key not in _cache:
        _cache[key] = cs.cross_section_ground_state(NX2, coeffs(kind, c, p), p)
    return _cache[key]


def lengths(base, kind, c, p):
    """`base`, extended by LONG_TAIL for the weak-gap case COD p = 2."""
    return base + LONG_TAIL if (kind, c, p) == COD + (2.0,) else base


def sweep(kind, c, p):
    key = ("sweep", kind, c, p)
    if key not in _cache:
        _cache[key] = asy.sweep_lambda(
            lengths(ELLS, kind, c, p), coeffs(kind, c, p), p, RES)
    return _cache[key]


def ladder(kind, c, p, side):
    key = ("ladder", kind, c, p, side)
    if key not in _cache:
        _cache[key] = asy.nu_infinity_estimate(
            side, coeffs(kind, c, p), p, lengths(LADDER, kind, c, p), RES)
    return _cache[key]


def spectrum_p2(kind, c, ell, k=3):
    key = ("spectrum", kind, c, ell, k)
    if key not in _cache:
        mesh = cs.build_mesh(cs.DomainSpec(
            cs.Shape.FULL_CYLINDER, ell, cs.BC.MIXED, CPU, NX2))
        _cache[key] = cs.linear_spectrum(mesh, coeffs(kind, c), k)
    return _cache[key]


def mixed_solve(kind, c, p, ell):
    key = ("mixed", kind, c, p, ell)
    if key not in _cache:
        mesh = cs.build_mesh(cs.DomainSpec(
            cs.Shape.FULL_CYLINDER, ell, cs.BC.MIXED, CPU, NX2))
        fam = coeffs(kind, c, p)
        if p == 2:
            r = cs.linear_spectrum(mesh, fam, 1)[0]
        else:
            r = cs.minimize_rayleigh(mesh, fam, p)
        _cache[key] = (mesh, r)
    return _cache[key]


COD = (cs.FamilyKind.CONSTANT_OFFDIAG, 0.3)
LOD = (cs.FamilyKind.LINEAR_OFFDIAG, 0.8)
IDENT = (cs.FamilyKind.IDENTITY, 0.0)
GA = (cs.FamilyKind.GRAD_ALIGNED, 0.15)


# --------------------------------------------------------------------------
# 1. decoupled exactness
# --------------------------------------------------------------------------
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_01_decoupled_exactness(p):
    mu1 = cross(*IDENT, p).mu1
    worst = 0.0
    for ell in ELLS:
        _, r = mixed_solve(*IDENT, p, ell)
        worst = max(worst, abs(r.lam - mu1) / mu1)
    check(f"1 decoupled exactness p={p:g}", worst < 1e-6,
          f"max |lam_mixed - mu1|/mu1 = {worst:.3e} over ells {ELLS}")


# --------------------------------------------------------------------------
# 2. analytic modes and O(h^2) convergence
# --------------------------------------------------------------------------
def _modes_at(nx2, cpu):
    ident = coeffs(*IDENT)
    mesh_d = cs.build_mesh(cs.DomainSpec(
        cs.Shape.FULL_CYLINDER, 2, cs.BC.DIRICHLET_ALL, cpu, nx2))
    lam_d = cs.linear_spectrum(mesh_d, ident, 1)[0].lam
    lam_h = cs.half_cylinder_eigen(cs.Side.PLUS, 2, (nx2, cpu), ident, 2).lam
    mesh_m = cs.build_mesh(cs.DomainSpec(
        cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, cpu, nx2))
    spec = [r.lam for r in cs.linear_spectrum(mesh_m, ident, 3)]
    return np.array([lam_d, lam_h] + spec)


def test_02_analytic_modes():
    oracle = np.array([np.pi ** 2 + (np.pi / 4) ** 2,
                       np.pi ** 2 + (np.pi / 4) ** 2,
                       np.pi ** 2,
                       np.pi ** 2 + (np.pi / 4) ** 2,
                       np.pi ** 2 + (np.pi / 2) ** 2])
    coarse = _modes_at(NX2, CPU)
    rel = np.abs(coarse - oracle) / oracle
    check("2 analytic modes (0.5% at nx2=64)", bool(np.all(rel < 5e-3)),
          f"max rel err {rel.max():.3e}")
    fine = _modes_at(2 * NX2, 2 * CPU)
    ratios = np.abs(coarse - oracle) / np.abs(fine - oracle)
    check("2 O(h^2) under one refinement",
          bool(np.all((ratios > 3.0) & (ratios < 5.0))),
          "error ratios " + ", ".join(f"{r:.2f}" for r in ratios))


# --------------------------------------------------------------------------
# 3. gradient consistency
# --------------------------------------------------------------------------
def test_03_gradient_consistency():
    mesh = cs.build_mesh(cs.DomainSpec(
        cs.Shape.FULL_CYLINDER, 1, cs.BC.MIXED, 3, 6))
    fam = coeffs(*COD)
    rng = np.random.default_rng(42)
    step = 1e-6
    worst = 0.0
    for p in (2.0, 2.5, 3.0, 4.0):
        for _ in range(20):
            u = rng.standard_normal(mesh.n_free)
            for which in ("energy", "mass"):
                if which == "energy":
                    grad = cs.energy_gradient(
                        mesh, fam, cs.DiscreteField(u, mesh), p)
                    fn = lambda v: cs.energy(
                        mesh, fam, cs.DiscreteField(v, mesh), p)
                else:
                    grad = cs.p_mass(mesh, cs.DiscreteField(u, mesh), p)[1]
                    fn = lambda v: cs.p_mass(
                        mesh, cs.DiscreteField(v, mesh), p)[0]
                fd = np.zeros_like(u)
                for i in range(u.size):
                    up = u.copy(); up[i] += step
                    dn = u.copy(); dn[i] -= step
                    fd[i] = (fn(up) - fn(dn)) / (2 * step)
                worst = max(worst, np.max(np.abs(fd - grad)) / np.max(np.abs(grad)))
    check("3 gradient consistency", worst < 1e-6,
          f"worst rel FD error {worst:.3e} over 20 fields x p in (2,2.5,3,4)")


# --------------------------------------------------------------------------
# 4. gap phenomenon (constant off-diagonal family)
# --------------------------------------------------------------------------
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_04_gap_phenomenon(p):
    # The plateau is read between the last two sweep lengths.  At p = 2
    # these are 20 and 24 (LONG_TAIL): the gap still falls 7.6% from 12 to
    # 16 while the two end layers overlap, then 3.0%, 1.1%, 0.5% per step.
    tab = sweep(*COD, p)
    mu1 = tab[-1].mu1
    gaps = {r.ell: r.gap for r in tab}
    long_ells = [e for e in gaps if e >= 4.0]
    prev, last = long_ells[-2], long_ells[-1]
    positive = all(gaps[e] > 0 for e in long_ells)
    plateau = abs(gaps[last] - gaps[prev]) / abs(gaps[prev])
    nu_p = ladder(*COD, p, cs.Side.PLUS).extrapolated
    nu_m = ladder(*COD, p, cs.Side.MINUS).extrapolated
    agree = abs(tab[-1].lambda_mixed - min(nu_p, nu_m)) / mu1
    detail = (f"gaps {'/'.join(f'{gaps[e]:.5f}' for e in long_ells)} at ell "
              f"{'/'.join(f'{e:g}' for e in long_ells)}, "
              f"plateau rel change {plateau:.3%} (vs mu1: "
              f"{abs(gaps[last] - gaps[prev]) / mu1:.3%}), "
              f"|lam({last:g})-min nu|/mu1 = {agree:.2e}")
    ok = positive and plateau < 0.02 and agree < 0.01
    check(f"4 gap phenomenon p={p:g}", ok, detail)


# --------------------------------------------------------------------------
# 5. no-gap branch (linear off-diagonal family)
# --------------------------------------------------------------------------
def test_05_no_gap_branch():
    mu1 = cross(*LOD, 2.0).mu1
    nu_p = ladder(*LOD, 2.0, cs.Side.PLUS)
    nu_m = ladder(*LOD, 2.0, cs.Side.MINUS)
    no_gap_side = abs(nu_p.extrapolated - mu1) / mu1
    delta = (mu1 - nu_m.extrapolated) / mu1
    tab = sweep(*LOD, 2.0)
    d_plus_12 = tab[-1].d_plus
    ok = no_gap_side < 0.01 and delta > 0.005 and d_plus_12 < 0.05
    check("5 no-gap branch (p=2)", ok,
          f"|nu+ - mu1|/mu1 = {no_gap_side:.3%}, gap delta- = {delta:.3%}, "
          f"d_plus(12) = {d_plus_12:.2e}")


# --------------------------------------------------------------------------
# 6. monotone ladders and reflection swap
# --------------------------------------------------------------------------
def test_06_monotone_ladders():
    slack = 1e-7
    all_mono = True
    details = []
    for fam, plist in ((COD, (2.0, 3.0)), (LOD, (2.0,))):
        for p in plist:
            for side in (cs.Side.PLUS, cs.Side.MINUS):
                est = ladder(*fam, p, side)
                values = [v for _, v in est.ladder]
                mono = all(b <= a + slack for a, b in zip(values, values[1:]))
                all_mono = all_mono and mono and est.monotone_ok
                details.append(f"{fam[0].value}/p{p:g}/{side.value}:"
                               f"{'ok' if mono else 'VIOLATION'}")
    check("6 monotone ladders", all_mono, "; ".join(details))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_06_reflection_swap(p):
    fam = coeffs(*LOD)
    refl = cs.reflect_axis(fam)
    lam_minus = cs.half_cylinder_eigen(cs.Side.MINUS, 8, RES, fam, p).lam
    lam_plus_r = cs.half_cylinder_eigen(cs.Side.PLUS, 8, RES, refl, p).lam
    diff = abs(lam_minus - lam_plus_r)
    check(f"6 reflection swap p={p:g}", diff < 1e-7,
          f"|lam_minus(F) - lam_plus(reflect F)| = {diff:.2e}")


# --------------------------------------------------------------------------
# 7. decay of the first eigenfunction
# --------------------------------------------------------------------------
@pytest.mark.parametrize("fam,p", [(COD, 2.0), (COD, 3.0), (LOD, 2.0)])
def test_07_decay(fam, p):
    # COD p = 2 runs at the end of LONG_TAIL: at ell = 12 its overlapping
    # end layers leave 6% of the p-mass in (-2, 2); at 24 it is 0.3%.
    ell = lengths([12.0], *fam, p)[-1]
    mesh, r = mixed_solve(*fam, p, ell)
    coef = coeffs(*fam, p)
    prof = cs.slab_integrals(mesh, coef, r.field, p)
    fit = asy.fit_decay(asy.orient_profile(prof), asy.default_window(ell))
    mid = int(ell)  # unit slabs from -ell: slabs mid-2 .. mid+1 cover (-2, 2)
    central = float(prof.p_mass[mid - 2:mid + 2].sum())
    ok = 0.0 < fit.alpha_hat < 0.95 and fit.r_squared >= 0.98 and central < 0.05
    check(f"7 decay {fam[0].value}(c={fam[1]:g}) p={p:g} ell={ell:g}", ok,
          f"alpha {fit.alpha_hat:.4f}, r^2 {fit.r_squared:.4f}, "
          f"central p-mass {central:.4f}")


# --------------------------------------------------------------------------
# 8. Dirichlet sandwich
# --------------------------------------------------------------------------
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_08_dirichlet_sandwich(p):
    # mu1 < lamD <= mu1 + C/ell^2 at every p >= 2: with the test function
    # W(x2) phi(x1), phi = cos(pi x1 / 2 ell), the first-order cross term
    # is proportional to the integral of phi^(p-1) phi' over (-ell, ell),
    # i.e. [phi^p / p] between the ends, which vanishes; the excess is
    # second order in 1/ell.  A 1/ell excess would fail the ell^2 ratio.
    tab = sweep(*COD, p)
    rows = {r.ell: r for r in tab}
    prods_l = []
    prods_l2 = []
    for ell in (4.0, 8.0, 12.0):
        excess = rows[ell].lambda_dirichlet - rows[ell].mu1
        prods_l.append(excess * ell)
        prods_l2.append(excess * ell * ell)
    ratio = max(prods_l2) / min(prods_l2)
    above = min(prods_l2) > 0.0
    detail = (f"(lamD-mu1)*ell = {prods_l[0]:.4f}/{prods_l[1]:.4f}/"
              f"{prods_l[2]:.4f}; *ell^2 = {prods_l2[0]:.4f}/{prods_l2[1]:.4f}/"
              f"{prods_l2[2]:.4f}; ell^2 ratio {ratio:.2f}; "
              f"lamD > mu1: {above}")
    check(f"8 dirichlet sandwich p={p:g}", above and ratio <= 2.0, detail)


# --------------------------------------------------------------------------
# 9. higher eigenvalues collapse (p = 2, symmetric family)
# --------------------------------------------------------------------------
def test_09_higher_eigenvalues():
    mu1 = cross(*COD, 2.0).mu1
    d21, d31 = [], []
    for ell in (4.0, 8.0, 12.0):
        lams = [r.lam for r in spectrum_p2(*COD, ell)]
        d21.append(lams[1] - lams[0])
        d31.append(lams[2] - lams[0])
    mono = all(b < a for a, b in zip(d21, d21[1:]))
    mono = mono and all(b < a for a, b in zip(d31, d31[1:]))
    small = d21[-1] < 0.02 * mu1 and d31[-1] < 0.02 * mu1
    check("9 higher eigenvalues (p=2)", bool(mono and small),
          f"lam2-lam1: {d21[0]:.4f}/{d21[1]:.4f}/{d21[2]:.4f}; "
          f"lam3-lam1: {d31[0]:.4f}/{d31[1]:.4f}/{d31[2]:.4f}; "
          f"2% of mu1 = {0.02 * mu1:.4f}")


# --------------------------------------------------------------------------
# 10. second min-max eigenvalue bound (p = 3, symmetric family)
# --------------------------------------------------------------------------
def test_10_beta2_bound():
    mu1 = cross(*COD, 3.0).mu1
    plus = dict(ladder(*COD, 3.0, cs.Side.PLUS).ladder)
    minus = dict(ladder(*COD, 3.0, cs.Side.MINUS).ladder)
    tab = sweep(*COD, 3.0)
    rows = {r.ell: r for r in tab}
    diffs = []
    sym_gap = 0.0
    for ell in (4.0, 8.0, 12.0):
        beta2 = max(plus[ell], minus[ell])
        sym_gap = max(sym_gap, abs(plus[ell] - minus[ell]))
        diffs.append(beta2 - rows[ell].lambda_mixed)
    mono = all(b < a for a, b in zip(diffs, diffs[1:]))
    ok = mono and diffs[-1] < 0.02 * mu1 and sym_gap < 1e-7
    check("10 beta2 bound (p=3)", bool(ok),
          f"beta2-lam_mixed: {diffs[0]:.5f}/{diffs[1]:.5f}/{diffs[2]:.5f}, "
          f"|lam+ - lam-| <= {sym_gap:.2e}, 2% of mu1 = {0.02 * mu1:.3f}")


# --------------------------------------------------------------------------
# 11. Picone residual
# --------------------------------------------------------------------------
def _positivity_projected(field, mesh, p):
    # the linear path does not project; clamp sign noise and renormalize
    values = np.clip(field.values, 0.0, None)
    projected = cs.DiscreteField(values, mesh)
    mass = cs.p_mass(mesh, projected, p)[0]
    projected.values /= mass ** (1.0 / p)
    return projected


def test_11_picone():
    worst = np.inf
    details = []
    for fam, plist in ((IDENT, (2.0, 3.0)), (COD, (2.0, 3.0)),
                       (LOD, (2.0, 3.0)), (GA, (2.0, 3.0))):
        for p in plist:
            mesh, r = mixed_solve(*fam, p, 8.0)
            cr = cross(*fam, p)
            field = _positivity_projected(r.field, mesh, p)
            val = asy.picone_residual_min(field, cr, mesh, coeffs(*fam, p))
            worst = min(worst, val)
            details.append(f"{fam[0].value}/p{p:g}: {val:.1e}")
    check("11 picone residual", worst >= -1e-10, "; ".join(details))


# --------------------------------------------------------------------------
# 12. determinism
# --------------------------------------------------------------------------
def test_12_determinism(tmp_path):
    cfg = {
        "experiment": "sweep",
        "family": {"kind": "constant_offdiag", "c": 0.3},
        "p": 2.0, "ells": [2, 3],
        "resolution": {"nx2": 16, "cells_per_unit": 4},
        "output_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["sweep", "--config", str(path), "--threads", "1"]) == 0
    assert cli.main(["sweep", "--config", str(path), "--threads", "1"]) == 0
    assert cli.main(["sweep", "--config", str(path), "--threads", "4"]) == 0
    runs = sorted((tmp_path / "runs").iterdir())
    data = [(r / "sweep.csv").read_bytes() for r in runs]
    identical = data[0] == data[1]
    # thread count must not move any value beyond 1e-13 relative
    rows_a = data[0].decode().splitlines()[1:]
    rows_c = data[2].decode().splitlines()[1:]
    worst = 0.0
    for ra, rc in zip(rows_a, rows_c):
        for va, vc in zip(ra.split(","), rc.split(",")):
            try:
                fa, fc = float(va), float(vc)
            except ValueError:
                continue
            if np.isfinite(fa) and abs(fa) > 0:
                worst = max(worst, abs(fa - fc) / abs(fa))
    check("12 determinism", identical and worst <= 1e-13,
          f"byte-identical reruns: {identical}, "
          f"max rel deviation across thread counts: {worst:.1e}")
