"""Eigenpair solvers.

Four entry points: `minimize_rayleigh` (Newton steps on the Rayleigh
quotient, globalized by preconditioned nonlinear CG, any p >= 2),
`linear_spectrum` (p = 2,
shift-invert Lanczos on the assembled pencil), `cross_section_ground_state`
(the 1D problem on the cross section), and `half_cylinder_eigen` (first
eigenvalue of a half cylinder with a Dirichlet far end).  All of them see
the discrete problem through the one Q1 core of `discretization`: the
cylinder solves through its tensor-product quadrature and p = 2 matrices,
the cross-section solve through the same 1D element on the x2 nodes.

The descent sees its problem as Gauss-point states: the values and slopes
of a nodal vector at the Gauss points.  They are linear in the vector, so
the conjugate direction z = s + beta z_prev, every Armijo trial along
u - t z and the curvature along z are all combinations of carried states.
An iteration tries up to two candidates, each costing one forward
quadrature pass however many trials it makes: the CG step, and (unless
backed off) the Newton step on the unit p-sphere, one banded LU solve of
the quotient Hessian, whose rate does not follow the collapsing gap
lam2 - lam1 of long cylinders.  It keeps the one that descends further.
Only the residual test certifies a p != 2 eigenpair: `converged` is true
for that exit alone, and the cross-section solve raises on any other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import discretization as disc
from .discretization import (DiscreteField, QuadratureRule, _power,
                             _power_slope, _Q1)
from .errors import ConfigurationError, SolverError
from .mesh import BC, CylinderMesh, DomainSpec, Shape, build_mesh


class Init(enum.Enum):
    LIFTED_W = "lifted_w"
    PERTURBED_LIFT = "perturbed_lift"
    ONES = "ones"


class Side(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass
class SolveOptions:
    tol_residual: float = 1e-8
    max_iters: int = 50000
    init: Init = Init.LIFTED_W
    seed: int = 0

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ConfigurationError("tol_residual must be positive")


@dataclass
class EigenResult:
    lam: float
    field: DiscreteField
    iterations: int
    final_residual: float
    rayleigh_history: np.ndarray
    converged: bool
    # descent: "residual" (the only converged exit), "no_descent" or
    # "max_iters"; linear_spectrum: "arpack", "dense" (k = n_free) or
    # "max_iters"
    stop_reason: str
    # descent iterations that tried a Newton step, and those it won
    newton_attempts: int = 0
    newton_steps: int = 0


class CrossSectionResult:
    """Ground state of the cross-section problem on omega = (-1/2, 1/2).

    `w_nodes` are the nodal values (zero at the interval ends,
    p-normalized, positive inside); `w_slope` the element slopes;
    `poincare_cp` the discrete Poincare constant, mu1(omega; a22 = 1)^{-1/p}.
    """

    def __init__(self, mu1, w_nodes, x2_nodes, p, poincare_cp,
                 iterations=0, residual=0.0):
        self.mu1 = float(mu1)
        self.w_nodes = np.asarray(w_nodes, dtype=float)
        self.x2_nodes = np.asarray(x2_nodes, dtype=float)
        self.p = float(p)
        self.poincare_cp = float(poincare_cp)
        self.iterations = iterations
        self.residual = residual
        self.n_cells = len(x2_nodes) - 1
        h = x2_nodes[1] - x2_nodes[0]
        self.w_slope = np.diff(self.w_nodes) / h
        self.cell_midpoints = 0.5 * (self.x2_nodes[:-1] + self.x2_nodes[1:])


# ---------------------------------------------------------------------------
# descent engine
# ---------------------------------------------------------------------------

# Armijo constants: sufficient-decrease factor and backtracking shrink
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5


class _Descent(NamedTuple):
    u: np.ndarray
    lam: float
    iterations: int
    residual: float
    history: np.ndarray
    stop_reason: str
    newton_attempts: int
    newton_steps: int


def _minimize_quotient(problem, u0, p, opts, precond):
    """Rayleigh-quotient descent: Newton steps on the unit p-sphere,
    globalized by preconditioned nonlinear CG.

    `problem` works on Gauss-point states: `state(u)` is the forward
    quadrature pass of a nodal vector, `value(S) -> (E, m)` and
    `gradient(S) -> (E, gE, m, gM)` evaluate a state, the gradient through
    the adjoint passes only, `curvature(S, Sz) -> (E'', m'')` gives the
    second derivatives of E and m at S along the direction of state Sz, and
    `hessian(S, lam)` the matrix E'' - lam m'' at S in the band storage of
    `gbsv`.  A state is a tuple of arrays, linear in u.  `precond(d)`
    applies K^{-1} for the SPD p = 2 stiffness K of the same problem.  The
    iterate is kept p-normalized; the accepted Rayleigh values form a
    nonincreasing history.  The residual is the max norm of the quotient
    gradient d = (gE - lam gM)/m.

    Every iteration has a CG candidate z = s + beta z_prev, with
    s = K^{-1} d (Neuberger 1997) and the Polak-Ribiere+ factor
    beta = max(0, d.(s - s_prev) / (d_prev.s_prev)) (Polak & Ribiere 1969);
    z = s when d.z <= 0.  An iteration that attempts Newton adds the
    candidate of `_newton_direction`, whose rate does not depend on the gap
    lam2 - lam1 that slows the CG on long cylinders (Absil, Mahony &
    Sepulchre 2008, ch. 6).  Each candidate gets the exact Newton length
    along its direction and Armijo halving (`_line_search`), and the one
    that ends at the lower quotient is taken.  A Newton win resets the CG
    memory; a CG win, a singular Hessian or a non-descent Newton direction
    skips the Newton attempts of the next 1, 2, 4, ... iterations.  A
    candidate's state is a combination of carried states, so it costs one
    forward pass (on s, or on the Newton direction) however many trials it
    makes; the accepted trial, scaled to unit p-mass, is the next
    iterate's state.
    Stops on "residual" (the residual test passed: the only certified
    exit), "no_descent" (no trial step descends, the rounding floor) or
    "max_iters"; `iterations` counts the steps tried.  The iterate with the
    lowest residual is returned, sign-fixed and, where that does not raise
    the quotient, clipped to be nonnegative; its value comes from a fresh
    forward pass, so no rounding of the carried state reaches it.
    """
    u = np.array(u0, dtype=float)
    _, m0 = problem.value(problem.state(u))
    if m0 <= 0:
        raise SolverError("initial field has zero p-mass")
    u /= m0 ** (1.0 / p)

    S = problem.state(u)
    E, gE, m, gM = problem.gradient(S)
    lam = E / m
    history = [lam]
    best = None
    reason = "max_iters"
    t = 1.0             # the last CG step length
    prev = None         # the CG memory
    skip, wait = 0, 1   # Newton backoff
    attempts = wins = it = 0
    while True:
        d = (gE - lam * gM) / m
        res = float(np.max(np.abs(d))) if d.size else 0.0
        if best is None or res < best[0]:
            best = res, u, lam
        if res <= opts.tol_residual * max(1.0, abs(lam)):
            reason = "residual"
            break
        if it >= opts.max_iters:
            break
        it += 1

        newton, tried = None, not skip
        if tried:
            attempts += 1
            zn = _newton_direction(problem, S, u, gM, m, lam, p)
            dzn = float(d @ zn) if zn is not None else 0.0
            if dzn > 0.0:
                newton = _line_search(problem, S, zn, problem.state(zn), dzn,
                                      gM, lam, m, 1.0)
        else:
            skip -= 1

        s = precond(d)
        ds = float(d @ s)
        z, Sz, dz = s, problem.state(s), ds
        if prev is not None:
            ds0, s0, z0, Sz0 = prev
            beta = max(0.0, (ds - float(d @ s0)) / ds0)
            if beta > 0.0 and ds + beta * float(d @ z0) > 0.0:
                z = _combine(s, z0, beta)
                Sz = tuple(_combine(a, b, beta) for a, b in zip(Sz, Sz0))
                dz = float(d @ z)
        step = _line_search(problem, S, z, Sz, dz, gM, lam, m, t)
        if step is not None:
            t = step[1]
            prev = ds, s, z, Sz
        if newton is not None and (step is None or newton[-1] < step[-1]):
            step, prev, wait = newton, None, 1
            wins += 1
        elif tried:
            skip, wait = wait, 2 * wait
        if step is None:
            reason = "no_descent"  # no admissible descent at this precision
            break

        z, t_step, Sv, mv, value = step
        r = mv ** (1.0 / p)
        u = (u - t_step * z) / r
        for a in Sv:
            a /= r
        S = Sv
        history.append(value)

        E, gE, m, gM = problem.gradient(S)
        lam = E / m

    res, u, lam = best
    if float(np.sum(u)) < 0.0:
        u = -u
    if np.any(u < 0.0):
        w = np.clip(u, 0.0, None)
        Ew, mw = problem.value(problem.state(w))
        if mw > 0 and Ew / mw <= lam * (1.0 + 1e-12):
            u = w

    Ef, mf = problem.value(problem.state(u))
    u = u / mf ** (1.0 / p)
    return _Descent(u, Ef / mf, it, res, np.asarray(history), reason,
                    attempts, wins)


def _line_search(problem, S, z, Sz, dz, gM, lam, m, t):
    """The step along u - t z from the state S of u: the exact Newton
    length t = d.z / h on the second derivative
    h = (E'' - lam m'')/m - 2 (d.z)(gM.z)/m of the quotient along z (the
    given t where h <= 0), halved until the Armijo condition holds, at
    most 80 times.  Returns (z, t, trial state, its p-mass, its quotient),
    or None when no trial descends."""
    E2, m2 = problem.curvature(S, Sz)
    h = (E2 - lam * m2 - 2.0 * dz * float(gM @ z)) / m
    if h > 0.0:
        t = dz / h
    for _ in range(80):
        Sv = _along(S, Sz, t)
        Ev, mv = problem.value(Sv)
        if mv > 0 and Ev / mv <= lam - _ARMIJO_C * t * dz:
            return z, t, Sv, mv, Ev / mv
        t *= _ARMIJO_SHRINK
    return None


def _newton_direction(problem, S, u, gM, m, lam, p):
    """The Newton step on the unit p-sphere, as a direction z for u - t z.

    The constrained Newton step solves H delta = -d + mu gM with
    gM.delta = 0, for H = (E'' - lam m'')/m the Hessian of the
    Lagrangian.  E and m are p-homogeneous, so H u = (p-1) d and
    gM.u = p m: with x = H^{-1} gM, delta = -u/(p-1) + p m x/((p-1) gM.x),
    one banded LU solve and no bordered system.  The scale of H cancels,
    so E'' - lam m'' serves.  Returns None where that matrix is singular.
    """
    ab = problem.hessian(S, lam)
    bw = (ab.shape[0] - 1) // 3
    x, info = scipy.linalg.lapack.dgbsv(bw, bw, ab, gM, overwrite_ab=1)[2:]
    gx = float(gM @ x) if info == 0 else 0.0
    if not (np.isfinite(gx) and gx != 0.0):
        return None
    x *= p * m / gx
    return (u - x) / (p - 1.0)


def _combine(a, b, beta):
    """a + beta b, written over b (the previous direction, no longer needed)."""
    b *= beta
    b += a
    return b


def _along(S, Ss, tau):
    """The state of u - tau s from the states of u and s."""
    out = tuple(b * -tau for b in Ss)
    for o, a in zip(out, S):
        o += a
    return out


# ---------------------------------------------------------------------------
# cylinder solves
# ---------------------------------------------------------------------------

class _CylinderQuotient:
    """The cylinder's quotient over the free DOFs, for `_minimize_quotient`.

    States are (u, d1u, d2u) at the Gauss points of the tensor grid; the
    coefficient entries there are evaluated once.
    """

    def __init__(self, mesh, coeffs, p, quad):
        self.mesh, self.p, self.quad = mesh, p, quad
        self.core = disc._core(mesh, quad)
        self.A = coeffs.entries(self.core.e2.points)
        self._at = None, None
        self._band = None

    def state(self, u):
        return self.core.state(self.mesh.expand(u))

    def value(self, S):
        return disc._eval_value(self.mesh, self.A, S, self.p, self.quad)

    def gradient(self, S):
        E, gE, m, gM, point = disc._eval_full(self.mesh, self.A, S, self.p,
                                              self.quad)
        self._at = S, point
        return E, gE, m, gM

    def _point(self, S):
        # the pointwise data of the gradient pass at S, shared
        if self._at[0] is not S:
            self.gradient(S)
        return self._at[1]

    def curvature(self, S, Sz):
        return disc._eval_curvature(self.mesh, self.A, self._point(S), S, Sz,
                                    self.p, self.quad)

    def hessian(self, S, lam):
        # one band buffer per solve, overwritten by every factorization
        self._band = disc._eval_hessian(self.mesh, self.A, self._point(S), S,
                                        lam, self.p, self.quad, self._band)
        return self._band


def _initial_grid(mesh, cross, opts):
    if opts.init is Init.ONES:
        return np.ones((mesh.x1.size, mesh.x2.size))
    ell = mesh.spec.ell
    if mesh.spec.bc is BC.MIXED:
        axial = np.ones_like(mesh.x1)
    else:
        axial = np.cos(np.pi * mesh.x1 / (2.0 * ell))
    grid = axial[:, None] * cross.w_nodes[None, :]
    if opts.init is Init.PERTURBED_LIFT:
        length = mesh.x1[-1] - mesh.x1[0]
        phase = 2.0 * np.pi * ((opts.seed * 0.6180339887498949) % 1.0)
        wobble = 1.0 + 0.01 * np.sin(
            np.pi * (mesh.x1 - mesh.x1[0]) / length + phase)
        grid = grid * wobble[:, None]
    return grid


def minimize_rayleigh(mesh, coeffs, p, opts=None, quad=None,
                      cross=None) -> EigenResult:
    """First eigenpair by Rayleigh-quotient descent over the free DOFs.

    Newton steps globalized by nonlinear CG (`_minimize_quotient`), the CG
    preconditioned by the banded Cholesky factorization of the p = 2
    stiffness matrix.  Stops when the projected gradient falls below
    ``tol_residual * max(1, |lambda|)`` in the max norm, when no trial
    step descends, or at `max_iters`; `stop_reason` says which, and
    `converged` is true only for the residual exit.  A non-converged run
    is returned flagged rather than raised, so parameter sweeps can record
    partial data.
    """
    opts = opts or SolveOptions()
    quad = quad or QuadratureRule()
    if cross is None:
        cross = cross_section_ground_state(mesh.n_cells2, coeffs, p, quad=quad)

    precond = _cholesky(disc.stiffness_band(mesh, coeffs, quad))
    u0 = mesh.restrict(_initial_grid(mesh, cross, opts))
    r = _minimize_quotient(_CylinderQuotient(mesh, coeffs, p, quad), u0, p,
                           opts, precond)
    return EigenResult(r.lam, DiscreteField(r.u, mesh), r.iterations,
                       r.residual, r.history, r.stop_reason == "residual",
                       r.stop_reason, r.newton_attempts, r.newton_steps)


def linear_spectrum(mesh, coeffs, k, opts=None, quad=None):
    """k smallest eigenpairs of the p = 2 pencil (K, M).

    Shift-invert Lanczos about sigma = 0 (ARPACK through `eigsh`): every
    Lanczos step applies K^{-1} M through one sparse LU factorization of
    the stiffness matrix, so the cost follows the distance of the wanted
    eigenvalues from the rest of the shifted spectrum, not the ratio
    lam1/lam2 that collapses on long cylinders.  The fixed start vector of
    ones makes the result deterministic.  `converged` certifies that ARPACK
    converged and that ||K v - lam M v|| / ||v|| <= tol_residual.
    `max_iters` caps the ARPACK restarts; a run that hits it comes back
    flagged, with Ritz pairs from a short shift-invert Krylov space, since
    ARPACK hands back only the pairs it converged, and `stop_reason`
    "max_iters" ("arpack" otherwise, "dense" for k = n_free).  `iterations` counts
    the shift-invert solves of the whole call, shared by all k results.
    Eigenvectors are p-mass normalized; the first has a nonnegative sum,
    the others a positive largest entry.
    """
    opts = opts or SolveOptions()
    quad = quad or QuadratureRule()
    n = mesh.n_free
    if k < 1 or k > n:
        raise ConfigurationError(f"need 1 <= k <= {n}, got {k}")
    pair = disc.assemble_p2(mesh, coeffs, quad)
    K, M = pair.stiffness, pair.mass
    lu = _factor(K)
    solves = 0

    def apply_inverse(x):
        nonlocal solves
        solves += 1
        return lu.solve(np.ravel(x))

    reason = "arpack"
    if k == n:  # ARPACK needs k < n; the pencil is tiny here
        lams, vecs = scipy.linalg.eigh(K.toarray(), M.toarray())
        reason = "dense"
    else:
        op_inv = spla.LinearOperator((n, n), matvec=apply_inverse,
                                     dtype=float)
        try:
            lams, vecs = spla.eigsh(K, k, M=M, sigma=0, OPinv=op_inv,
                                    v0=np.ones(n), maxiter=opts.max_iters)
        except spla.ArpackNoConvergence:
            lams, vecs = _krylov_ritz(K, M, apply_inverse, k)
            reason = "max_iters"

    results = []
    for rank, j in enumerate(np.argsort(lams)):
        lam, v = float(lams[j]), vecs[:, j]
        res = float(np.linalg.norm(K @ v - lam * (M @ v)) / np.linalg.norm(v))
        if rank == 0 and float(np.sum(v)) < 0.0:
            v = -v
        elif rank > 0 and v[np.argmax(np.abs(v))] < 0.0:
            v = -v
        fld = DiscreteField(v.copy(), mesh)
        m = disc.p_mass(mesh, fld.grid(), 2.0, quad)[0]
        fld.values /= np.sqrt(m)
        results.append(EigenResult(
            lam, fld, solves, res, np.array([lam]),
            reason != "max_iters" and res <= opts.tol_residual, reason))
    return results


def _factor(K):
    """Sparse LU factorization of a stiffness matrix."""
    try:
        return spla.splu(K.tocsc())
    except RuntimeError as exc:  # pragma: no cover - factorization breakdown
        raise SolverError(f"stiffness factorization failed: {exc}") from exc


def _cholesky(ab):
    """K^{-1} for an SPD K in the lower band storage of `cholesky_banded`,
    factored in place."""
    try:
        cb = scipy.linalg.cholesky_banded(ab, overwrite_ab=True, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - not SPD
        raise SolverError(f"stiffness factorization failed: {exc}") from exc
    return lambda d: scipy.linalg.cho_solve_banded((cb, True), d)


def _krylov_ritz(K, M, apply_inverse, k):
    """k smallest Ritz pairs of (K, M) on a shift-invert Krylov space of ones.

    The fallback when ARPACK runs out of restarts: min-max upper bounds of
    the wanted eigenvalues, with no residual certificate.
    """
    n = K.shape[0]
    block = [np.ones(n) / np.sqrt(n)]
    for _ in range(min(n, 2 * k + 1) - 1):
        w = apply_inverse(M @ block[-1])
        block.append(w / np.linalg.norm(w))
    Q = np.linalg.qr(np.column_stack(block))[0]
    lams, y = scipy.linalg.eigh(Q.T @ (K @ Q), Q.T @ (M @ Q),
                                subset_by_index=[0, k - 1])
    return lams, Q @ y


def half_cylinder_eigen(side, ell, resolution, coeffs, p,
                        opts=None, quad=None, cross=None) -> EigenResult:
    """First eigenvalue of the half cylinder with a Dirichlet far end.

    `side` PLUS is (0, ell) with the natural end at 0; MINUS is (-ell, 0)
    with the natural end at 0.  For p = 2 the assembled pencil is solved;
    otherwise the descent solver runs with the lifted quarter-wave start,
    built from `cross` when given (as in `minimize_rayleigh`).
    """
    opts = opts or SolveOptions()
    nx2, cpu = resolution
    shape = Shape.HALF_PLUS if side is Side.PLUS else Shape.HALF_MINUS
    mesh = build_mesh(DomainSpec(shape, ell, BC.HALF_CYLINDER, cpu, nx2))
    if p == 2:
        return linear_spectrum(mesh, coeffs, 1, opts, quad)[0]
    return minimize_rayleigh(mesh, coeffs, p, opts, quad, cross=cross)


# ---------------------------------------------------------------------------
# cross-section (1D) problem
# ---------------------------------------------------------------------------

def cross_section_ground_state(nx2, coeffs, p, opts=None,
                               quad=None) -> CrossSectionResult:
    """Ground state of the cross-section problem with Dirichlet ends.

    Solves the 1D analogue of the cylinder problem with coefficient a22 on
    the Q1 element of the cylinder's x2 nodes and quadrature rule: a dense
    generalized eigensolve of the interior band matrices for p = 2,
    otherwise the descent of `minimize_rayleigh`, preconditioned by the
    banded Cholesky factorization of the interior a22 stiffness.  Also
    computes the discrete Poincare constant from the plain (a22 = 1)
    problem at the same p, resolution and rule.
    """
    if nx2 < 8:
        raise ConfigurationError(f"nx2 must be >= 8 for the 1D solve, got {nx2}")
    opts = opts or SolveOptions()
    quad = quad or QuadratureRule()
    x2 = np.linspace(-0.5, 0.5, nx2 + 1)
    e = _Q1(x2, quad)
    a22 = coeffs.a22(e.points)
    problem = _SectionQuotient(e, a22, p)

    def interior(G):
        return sp.diags([G[0, 2:-1], G[1, 1:-1], G[2, 1:-2]], [-1, 0, 1])

    G = e.band(a22, e.dN, e.dN)
    if p == 2:
        K, M = interior(G).toarray(), interior(e.band(1.0, e.N, e.N)).toarray()
        vals, vecs = scipy.linalg.eigh(K, M)
        mu1, w_free, iters = float(vals[0]), vecs[:, 0], 0
        res = float(np.linalg.norm(K @ w_free - mu1 * (M @ w_free))
                    / np.linalg.norm(w_free))
    else:
        r = _minimize_quotient(
            problem, np.cos(np.pi * x2[1:-1]), p, opts,
            _cholesky(_interior_band(G, 1, 0)))
        if r.stop_reason != "residual":
            raise SolverError(
                f"cross-section descent did not converge ({r.stop_reason})")
        w_free, mu1, iters, res = r.u, r.lam, r.iterations, r.residual

    if np.sum(w_free) < 0:
        w_free = -w_free
    w_free = w_free / problem.value(problem.state(w_free))[1] ** (1.0 / p)

    if float(np.max(np.abs(a22 - 1.0))) < 1e-14:
        mu_plain = mu1
    else:
        mu_plain = cross_section_ground_state(
            nx2, _IdentityA22(), p, opts, quad).mu1
    return CrossSectionResult(mu1, np.concatenate(([0.0], w_free, [0.0])), x2,
                              p, mu_plain ** (-1.0 / p), iterations=iters,
                              residual=res)


class _SectionQuotient:
    """The cross-section quotient over the interior nodes, for
    `_minimize_quotient`: states are (w, w') at the Gauss points."""

    def __init__(self, e, a22, p):
        self.e, self.a22, self.p = e, a22, p

    def state(self, w_free):
        w = np.concatenate(([0.0], w_free, [0.0]))
        return self.e.values(w), self.e.slopes(w)

    def value(self, S, grad=False):
        (wq, slope), e, p = S, self.e, self.p
        q = self.a22 * slope * slope
        E = float(np.sum(e.weights @ _power(q, p / 2.0)))
        m = float(np.sum(e.weights @ _power(wq, p)))
        if not grad:
            return E, m
        cw = e.weights[:, None]
        s = 2.0 * cw * _power_slope(q, p / 2.0) * self.a22 * slope
        t = cw * _power_slope(wq, p)
        return E, e.slopes_adjoint(s)[1:-1], m, e.values_adjoint(t)[1:-1]

    def gradient(self, S):
        return self.value(S, grad=True)

    def hessian(self, S, lam):
        (wq, slope), e, p = S, self.e, self.p
        q = self.a22 * slope * slope
        H = e.band(p * (p - 1.0) * _power(q, p / 2.0 - 1.0) * self.a22,
                   e.dN, e.dN)
        H -= e.band(lam * p * (p - 1.0) * _power(wq, p - 2.0), e.N, e.N)
        return _interior_band(H, 1, 1, 1)

    def curvature(self, S, Sz):
        (wq, slope), (zq, zslope), e, p = S, Sz, self.e, self.p
        q = self.a22 * slope * slope
        E2 = np.sum(e.weights @ (_power(q, p / 2.0 - 1.0) * self.a22
                                 * zslope * zslope))
        m2 = np.sum(e.weights @ (_power(wq, p - 2.0) * zq * zq))
        return p * (p - 1.0) * float(E2), p * (p - 1.0) * float(m2)


def _interior_band(G, kl, ku, top=0):
    """The interior-node matrix of 1D Gram rows G (`_Q1.band`) in the band
    storage of `disc.lapack_band`."""
    return disc.lapack_band({o: G[o + 1, 1:-1] for o in (-1, 0, 1)},
                            kl, ku, top)


class _IdentityA22:
    """Minimal stand-in coefficient object for the plain 1D problem."""

    def a22(self, x2):
        return np.ones_like(np.asarray(x2, dtype=float))
