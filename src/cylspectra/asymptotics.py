"""Length sweeps and the derived spectral diagnostics.

Everything the long-cylinder story needs: per-length sweeps of the four
eigenvalue problems, half-cylinder ladders with geometric-tail
extrapolation of the semi-infinite values, slab decay fits, the
cross-section gap integral and its sign test, exponential test-function
bounds, second-eigenvalue upper bounds from disjoint half supports,
pointwise Picone residuals, end-mass splits and end-profile distances.

Sign conventions.  The PLUS half-cylinder problem on (0, ell) has its
natural (no-flux) boundary at its left edge and extends rightward --
exactly the geometry seen from the *left* end of a full cylinder.  All
plus-labelled derived quantities (`d_plus`, `n_plus`, the PLUS side of
`translate_distance`) therefore refer to the left end of the full
cylinder, and minus-labelled ones to the right end.  Reflecting the
coefficients (a12 -> -a12) swaps the two labels exactly.

Every integral here uses the one Q1 core of `discretization` and its one
Gauss rule: the cross-section integrals (`gap_integral_I2`, `slab_bound`
and `exp_test_upper_bound`) its 1D element, and the Picone residual and
`translate_distance` (on the slab's sub-grid) its tensor-product passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import discretization as disc
from .coeffs import satisfies_symmetry_S
from .discretization import DiscreteField
# linear_spectrum is unused here; perfbench's tracer test reads it
from .eigensolve import (CrossSectionResult, EigenResult, Side,
                         SolveOptions, cross_section_ground_state,
                         first_eigen, half_cylinder_eigen, linear_spectrum)
from .errors import ConfigurationError, DimensionMismatchError
from .mesh import BC, DomainSpec, Shape, SlabProfile, _slab_sums, build_mesh

# a half-cylinder ladder is monotone when no step rises by more than this
MONOTONE_SLACK = 1e-7
# the rungs the tail extrapolation of a ladder fits
LADDER_RUNGS = 3
# a12 W' vanishes when its max is at most this share of max|W'| max(1, |a12|)
ZERO_TOL = 1e-10
# the Picone residual is read where the lift exceeds this share of max W
W_FLOOR = 1e-3


@dataclass
class DecayFit:
    """Geometric decay ratio fitted to a slab energy profile."""

    alpha_hat: float
    r_squared: float
    window: tuple
    no_decay: bool = False


@dataclass
class NuEstimate:
    """Half-cylinder ladder and its extrapolated semi-infinite limit."""

    side: Side
    ladder: list          # (ell, lambda_tilde) pairs
    last_value: float
    extrapolated: float
    monotone_ok: bool
    converged: bool       # every rung's solve certified


@dataclass
class Beta2Bound:
    """Upper bound for the second min-max eigenvalue, with its two solves."""

    value: float          # the larger of the two half-cylinder eigenvalues
    plus: EigenResult
    minus: EigenResult
    converged: bool       # both half-cylinder solves certified


@dataclass
class EndMassSplit:
    """p-mass and energy shares of the two cylinder halves (split at x1=0).

    `d_plus`/`n_plus` belong to the left end (the end the PLUS half-cylinder
    problem models), `d_minus`/`n_minus` to the right end.
    """

    d_plus: float
    d_minus: float
    n_plus: float
    n_minus: float


@dataclass
class GapIntegral:
    """Signed cross-section gap integral and the a12.W' != 0 trigger."""

    value: float
    a12_gradw_vanishes: bool


@dataclass
class SweepRow:
    ell: float
    p: float
    family: str
    lambda_mixed: float
    lambda_dirichlet: float
    lambda_half_plus: float
    lambda_half_minus: float
    mu1: float
    gap: float
    alpha_hat: float
    d_plus: float
    d_minus: float
    n_plus: float
    n_minus: float
    iterations: int
    residual: float
    converged: bool


def _half_pair(ell, resolution, coeffs, p, opts):
    """The PLUS and MINUS half-cylinder solves of one length.

    Under symmetry S, A(-x2) = A(x2), the point reflection (x1, x2) ->
    (-x1, -x2) maps the PLUS half cylinder onto the MINUS one and reverses
    the order of the free DOFs, so a certified PLUS eigenvector, reversed,
    is the MINUS start: the engine tests its residual on the MINUS problem
    and steps on only where that test fails.  Otherwise, or where the PLUS
    solve is uncertified, the MINUS solve starts from the lifted state as
    the PLUS one does.  Both go through `half_cylinder_eigen`.
    """
    rp = half_cylinder_eigen(Side.PLUS, ell, resolution, coeffs, p, opts)
    start = None
    if rp.converged and satisfies_symmetry_S(coeffs):
        start = rp.field.values[::-1]
    rm = half_cylinder_eigen(Side.MINUS, ell, resolution, coeffs, p, opts,
                             start)
    return rp, rm


def sweep_lambda(ells, family_coeffs, p, resolution,
                 opts=None) -> list[SweepRow]:
    """Solve all four problems per length: one `SweepRow` per ell, in order.

    For each ell: the mixed and all-Dirichlet full-cylinder problems plus
    both half-cylinder problems (`_half_pair`, so under symmetry S the
    MINUS one starts from the reflected PLUS eigenvector), all at the same
    cross resolution, together with the cross-section value (the one
    section solve of the sweep, cached on the field, which every other
    solve starts from), the gap, the decay fit of the mixed minimizer and
    its end-mass split, both from one pass of its per-cell integrals
    (`disc.cell_integrals`).  Rows are
    independent; non-converged solves are flagged in the row and the sweep
    continues.  The lengths are checked first (`check_lengths`).
    """
    ells = check_lengths(ells, resolution)
    opts = opts or SolveOptions()
    nx2, cpu = resolution
    cross = cross_section_ground_state(nx2, family_coeffs, p, opts)
    rows = []
    for ell in ells:
        mesh_m = build_mesh(DomainSpec(Shape.FULL_CYLINDER, ell, BC.MIXED, cpu, nx2))
        mesh_d = build_mesh(DomainSpec(Shape.FULL_CYLINDER, ell, BC.DIRICHLET_ALL, cpu, nx2))
        r_m = first_eigen(mesh_m, family_coeffs, p, opts)
        r_d = first_eigen(mesh_d, family_coeffs, p, opts)
        r_p, r_mi = _half_pair(ell, resolution, family_coeffs, p, opts)

        grid = mesh_m.expand(r_m.field.values)
        per_cell = disc.cell_integrals(mesh_m, family_coeffs, grid, p)
        alpha = _sweep_alpha(_slab_sums(mesh_m, per_cell), ell)
        split = _split(mesh_m, family_coeffs, grid, per_cell, p)
        conv = cross.converged and all(
            r.converged for r in (r_m, r_d, r_p, r_mi))
        rows.append(SweepRow(
            ell=float(ell), p=float(p), family=family_coeffs.label,
            lambda_mixed=r_m.lam, lambda_dirichlet=r_d.lam,
            lambda_half_plus=r_p.lam, lambda_half_minus=r_mi.lam,
            mu1=cross.mu1, gap=cross.mu1 - r_m.lam, alpha_hat=alpha,
            d_plus=split.d_plus, d_minus=split.d_minus,
            n_plus=split.n_plus, n_minus=split.n_minus,
            iterations=r_m.iterations, residual=r_m.final_residual,
            converged=conv))
    return rows


def _sweep_alpha(profile, ell):
    """Decay ratio for a sweep row; nan when the cylinder is too short."""
    profile = orient_profile(profile)
    for window in (default_window(ell), (1, len(profile) // 2 - 1)):
        try:
            return fit_decay(profile, window).alpha_hat
        except ConfigurationError:
            continue
    return float("nan")


def nu_infinity_estimate(side, family_coeffs, p, ell_ladder, resolution,
                         opts=None) -> NuEstimate:
    """Half-cylinder ladder along increasing lengths with tail extrapolation.

    The limit is estimated by fitting a geometric tail through the last
    three rungs (Aitken delta-squared).  If the ladder fails the expected
    monotone decrease beyond `MONOTONE_SLACK`, or the tail is not
    geometric-decreasing, the last rung is reported as the estimate.  The
    ladder is checked first: at least `LADDER_RUNGS` lengths
    (`check_lengths`).
    """
    ladder_ells = check_lengths(ell_ladder, resolution, LADDER_RUNGS)
    opts = opts or SolveOptions()
    values, converged = [], True
    for ell in ladder_ells:
        r = half_cylinder_eigen(side, ell, resolution, family_coeffs, p, opts)
        values.append(r.lam)
        converged = converged and r.converged
    diffs = np.diff(values)
    monotone_ok = bool(np.all(diffs <= MONOTONE_SLACK))
    last = values[-1]
    extrapolated = last
    if monotone_ok:
        d1, d2 = values[-2] - values[-3], values[-1] - values[-2]
        denom = d2 - d1
        # geometric-decreasing tail: both steps down, ratio in (0, 1)
        if d1 < 0.0 and d2 < 0.0 and denom > 0.0 and d2 / d1 < 1.0:
            extrapolated = last - d2 * d2 / denom
    return NuEstimate(side, list(zip(ladder_ells, values)), last,
                      extrapolated, monotone_ok, converged)


def check_lengths(ells, resolution, rungs=1):
    """The lengths of a sweep, a ladder or `beta2` runs, as a list; checked
    first, before any solve: at least `rungs` of them, strictly increasing,
    and each a positive ell whose half cylinder (so also its full one) is a
    whole number of cells at `resolution` = (nx2, cells_per_unit)."""
    ells, (nx2, cpu) = list(ells), resolution
    if len(ells) < rungs or any(b <= a for a, b in zip(ells, ells[1:])):
        raise ConfigurationError(f"ells must be at least {rungs} lengths, "
                                 f"strictly increasing; got {ells}")
    for ell in ells:
        DomainSpec(Shape.HALF_PLUS, ell, BC.HALF_CYLINDER, cpu, nx2)
    return ells


def check_window(window, n_slabs):
    """The decay window (first, last) cut to a profile of `n_slabs` slabs;
    `ConfigurationError` where it starts below slab 0 or holds fewer than
    3 slabs."""
    lo, hi = window[0], min(window[1], n_slabs - 1)
    if lo < 0 or hi - lo < 2:  # numpy would wrap lo < 0 from the far end
        raise ConfigurationError(
            f"decay window {tuple(window)} needs >= 3 slabs inside the "
            f"{n_slabs}-slab profile, none below slab 0")
    return lo, hi


def default_window(ell):
    """Interior slab window [2, ell-2] from the dominant end."""
    return (2, int(np.floor(ell)) - 2)


def orient_profile(profile: SlabProfile) -> SlabProfile:
    """Reorder slabs so index 0 sits at the dominant (heavier) end."""
    k = max(1, len(profile) // 4)
    left = profile.p_mass[:k].sum()
    right = profile.p_mass[-k:].sum()
    if right > left:
        return SlabProfile(profile.grad_energy[::-1], profile.p_mass[::-1],
                           profile.a_energy[::-1])
    return profile


def fit_decay(profile, window) -> DecayFit:
    """Least-squares geometric fit of the slab gradient energies.

    Fits log(grad_energy) against the slab index (from the dominant end
    after `orient_profile`) over `window` = (first, last) inclusive;
    `alpha_hat` is exp(slope).  A flat profile comes back with alpha_hat = 1
    and the `no_decay` flag.
    """
    lo, hi = check_window(window, len(profile))
    idx = np.arange(lo, hi + 1)
    values = profile.grad_energy[idx]
    if np.any(values <= 0.0):
        raise ConfigurationError("nonpositive slab energies in the fit window")
    logs = np.log(values)
    slope, intercept = np.polyfit(idx, logs, 1)
    fitted = slope * idx + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    alpha = float(np.exp(slope))
    return DecayFit(alpha_hat=alpha, r_squared=r2, window=(lo, hi),
                    no_decay=alpha > 0.999)


def gap_integral_I2(cross: CrossSectionResult, coeffs) -> GapIntegral:
    """Signed cross-section integral deciding the gap side.

    Computes  integral |a22 W'^2|^{(p-2)/2} (a12 W') W  over the section by
    the 1D quadrature of the ground state, at its own p, and reports
    whether a12 W' is identically zero within `ZERO_TOL` (the trigger
    separating the gap and no-gap regimes).
    """
    e, _, a12q, a22q, wv, wp = _section(cross, coeffs)
    weight = np.abs(a22q * wp ** 2) ** ((cross.p - 2.0) / 2.0)
    integrand = weight * (a12q * wp) * wv
    value = float(np.sum(e.weights @ integrand))
    scale = float(np.max(np.abs(a12q * wp))) if a12q.size else 0.0
    ref = float(np.max(np.abs(wp))) * max(1.0, float(np.max(np.abs(a12q))))
    vanishes = scale <= ZERO_TOL * max(1.0, ref)
    return GapIntegral(value, vanishes)


def _section(cross, coeffs):
    """Q1 element of the cross section, A, W and W' at its Gauss points."""
    e = disc._Q1(cross.x2_nodes)
    return (e, *coeffs.entries(e.points), e.values(cross.w_nodes),
            e.slopes(cross.w_nodes))


def exp_test_upper_bound(eps, cross: CrossSectionResult, coeffs) -> float:
    """Rayleigh quotient of the exponentially decaying lifted test function.

    On (0, inf) x omega the energy and p-mass of exp(-eps x1) W(x2) share
    the axial factor integral exp(-p eps x1), p the section's own, so the
    quotient is a ratio of cross-section integrals.  It upper-bounds the
    semi-infinite infimum and tends to the cross-section value as eps -> 0.
    """
    check_eps(eps)
    e, a11q, a12q, a22q, wv, wp = _section(cross, coeffs)
    # density of |A grad v . grad v| at unit axial factor
    q_sec = (eps ** 2 * a11q * wv ** 2
             - 2.0 * eps * a12q * wp * wv
             + a22q * wp ** 2)
    sec_energy = float(np.sum(e.weights @ np.abs(q_sec) ** (cross.p / 2.0)))
    sec_mass = float(np.sum(e.weights @ np.abs(wv) ** cross.p))
    return sec_energy / sec_mass


def check_eps(eps):
    """`ConfigurationError` unless the test-function rate eps is positive
    and finite."""
    if not 0.0 < eps < np.inf:
        raise ConfigurationError(f"eps must be positive and finite, got {eps}")


def slab_bound(cross: CrossSectionResult, coeffs, variant="squared"):
    """Cross-section upper-bound integral from the slab construction.

    `variant` 'as_printed' uses  a22 W'^2 - (a12 W')/a11  inside the p/2
    power, p the section's own; 'squared' uses  a22 W'^2 - (a12 W')^2/a11.
    Negative integrand values are clamped at zero before the power; the
    number of clamped quadrature points is returned alongside the value.
    """
    if variant not in ("as_printed", "squared"):
        raise ConfigurationError(f"unknown slab-bound variant {variant!r}")
    e, a11q, a12q, a22q, _, wp = _section(cross, coeffs)
    base = a22q * wp ** 2
    cross_term = a12q * wp
    if variant == "as_printed":
        integrand = base - cross_term / a11q
    else:
        integrand = base - cross_term ** 2 / a11q
    clamped = int(np.count_nonzero(integrand < 0.0))
    integrand = np.clip(integrand, 0.0, None)
    value = float(np.sum(e.weights @ integrand ** (cross.p / 2.0)))
    return value, clamped


def beta2_upper_bound(ell, resolution, coeffs, p, opts=None) -> Beta2Bound:
    """Upper bound for the second min-max eigenvalue from disjoint supports.

    The two half-cylinder solves of `_half_pair`, from the lifted section
    state or, for MINUS under symmetry S, from the reflected PLUS
    eigenvector; functions supported on the two halves have disjoint
    support, so the larger of the two first eigenvalues bounds the second
    min-max value of the full cylinder.  The bound is certified
    (`converged`) when both solves are, each on its own residual.  `ell` is
    checked first (`check_lengths`).
    """
    check_lengths([ell], resolution)
    opts = opts or SolveOptions()
    rp, rm = _half_pair(ell, resolution, coeffs, p, opts)
    return Beta2Bound(max(rp.lam, rm.lam), rp, rm,
                      rp.converged and rm.converged)


def picone_residual_min(u: DiscreteField, cross: CrossSectionResult, mesh,
                        coeffs) -> float:
    """Minimum of the pointwise Picone residual against the lifted state.

    R(u, v) = |A grad u . grad u|^{p/2}
              - |A grad v . grad v|^{(p-2)/2} A grad v . grad(u^p / v^{p-1})
    with v the axial lift of the cross-section ground state and p its own,
    evaluated at quadrature points where v exceeds `W_FLOOR` max W (the ratio
    u^p / v^{p-1} is unstable where v vanishes at the walls).  The
    returned minimum is normalized by the local energy scale, so the
    theoretical bound reads  min >= -1e-10.  Requires u >= 0.
    """
    if mesh.n_cells2 != cross.n_cells:
        raise DimensionMismatchError(
            "mesh cross resolution does not match the 1D ground state")
    grid = mesh.expand(u.values)
    umax = float(np.max(np.abs(grid))) or 1.0
    if float(np.min(grid)) < -1e-12 * umax:
        raise ConfigurationError(
            "Picone residual requires a nonnegative field")
    grid = np.clip(grid, 0.0, None)
    p = cross.p
    w_floor = W_FLOOR * float(np.max(cross.w_nodes))

    core = disc._core(mesh)
    qu, (uq, gu1, gu2), (_, a12, a22) = disc._form(core, coeffs, grid)
    # the lift is x1-independent: values per (x2 point, cross cell)
    vq = core.e2.values(cross.w_nodes)
    gv2 = core.e2.slopes(cross.w_nodes)
    qv = np.abs(a22 * gv2 ** 2)  # grad v = (0, W')
    term1 = disc._power(qu, p / 2.0)

    valid = vq > w_floor
    ratio = np.where(valid, uq / np.where(valid, vq, 1.0), 0.0)
    # grad(u^p / v^{p-1}) = p (u/v)^{p-1} grad u - (p-1) (u/v)^p grad v
    h1 = p * ratio ** (p - 1.0) * gu1
    h2 = p * ratio ** (p - 1.0) * gu2 - (p - 1.0) * ratio ** p * gv2
    # A grad v = (a12 W', a22 W')
    adv_dot = a12 * gv2 * h1 + a22 * gv2 * h2
    term2 = qv ** ((p - 2.0) / 2.0) * adv_dot
    residual = term1 - term2
    scale = np.maximum(term1, np.abs(term2)) + 1e-300
    rel = np.where(valid, residual / scale, np.inf)
    return float(np.min(rel))


def end_mass_split(u: DiscreteField, mesh, coeffs, p) -> EndMassSplit:
    """Split the p-mass and energy of a full-cylinder field at x1 = 0.

    Plus labels the left end (whose boundary layer the PLUS half-cylinder
    problem models), minus the right end; `d_plus + d_minus` recovers the
    total p-mass and `n_plus + n_minus` the total energy.  With an odd
    number of axial cells the middle cell is split at x1 = 0, where the Q1
    field is the mean of its two node rows, and each part is integrated by
    the same Gauss rule on its own sub-grid.
    """
    if mesh.spec.shape is not Shape.FULL_CYLINDER:
        raise ConfigurationError("end-mass split expects a full cylinder")
    grid = mesh.expand(u.values)
    return _split(mesh, coeffs, grid,
                  disc.cell_integrals(mesh, coeffs, grid, p), p)


def _split(mesh, coeffs, grid, per_cell, p):
    """The `end_mass_split` of the nodal `grid` of a full cylinder, with
    `per_cell` its `disc.cell_integrals`."""
    c, odd = divmod(mesh.n_cells1, 2)
    sides = (slice(c), slice(c + odd, None))  # x1 cells of either end
    d = [per_cell["p_mass"][side].sum() for side in sides]
    n = [per_cell["a_energy"][side].sum() for side in sides]
    if odd:
        mid = 0.5 * (grid[c] + grid[c + 1])
        parts = (([mesh.x1[c], 0.0], [grid[c], mid]),
                 ([0.0, mesh.x1[c + 1]], [mid, grid[c + 1]]))
        for k, (x1, rows) in enumerate(parts):
            core = disc._Tensor(np.array(x1), mesh.x2)
            q, (uq, _, _), _ = disc._form(core, coeffs, np.array(rows))
            d[k] += core.integrate(disc._power(uq, p))
            n[k] += core.integrate(disc._power(q, p / 2.0))
    return EndMassSplit(d_plus=float(d[0]), d_minus=float(d[1]),
                        n_plus=float(n[0]), n_minus=float(n[1]))


def translate_distance(u_full: DiscreteField, u_half: DiscreteField,
                       side: Side, r, p) -> float:
    """L^p distance between an end profile and the half-cylinder minimizer.

    Both fields are restricted to the axial slab of width `r` at the end
    `side` models (PLUS: the end with outward normal -x1, i.e. the left
    edge of each domain; MINUS: the right edge), aligned in sign, and the
    difference integrated in L^p on the common local coordinates.
    """
    mesh_f, mesh_h = u_full.mesh, u_half.mesh
    if mesh_f.n_cells2 != mesh_h.n_cells2 or not np.allclose(
            mesh_f.x2, mesh_h.x2, atol=1e-12):
        raise DimensionMismatchError("cross resolutions differ")
    if abs(mesh_f.h1 - mesh_h.h1) > 1e-12:
        raise DimensionMismatchError("axial resolutions differ")
    n_cells = int(round(r / mesh_f.h1))
    if abs(n_cells * mesh_f.h1 - r) > 1e-9 or n_cells < 1:
        raise DimensionMismatchError("r must be a whole number of axial cells")
    if n_cells > mesh_f.n_cells1 or n_cells > mesh_h.n_cells1:
        raise DimensionMismatchError("r exceeds a domain length")

    grid_f = mesh_f.expand(u_full.values)
    grid_h = mesh_h.expand(u_half.values)
    if side is Side.PLUS:
        sl_f = grid_f[:n_cells + 1, :]
        sl_h = grid_h[:n_cells + 1, :]
    else:
        sl_f = grid_f[-(n_cells + 1):, :]
        sl_h = grid_h[-(n_cells + 1):, :]
    if float(np.sum(sl_f * sl_h)) < 0.0:
        sl_h = -sl_h
    # the slab's own sub-grid; only its spacing enters the quadrature
    core = disc._Tensor(mesh_f.x1[:n_cells + 1], mesh_f.x2)
    dens = disc._power(core.values(sl_f - sl_h), p)
    return core.integrate(dens) ** (1.0 / p)
