"""Eigenpair solvers.

The first eigenpair of a mesh has one route, `first_eigen`: at p = 2
`linear_spectrum` (the assembled pencil: the first eigenpair by the
descent engine, whose unshifted step there is Rayleigh-quotient
iteration; k >= 2 by Lanczos on L^{-1} M L^{-T}, the standard form of the
pencil shifted just below it, K - sigma M = L L^T banded), else
`minimize_rayleigh` (shifted Newton steps on the Rayleigh quotient; under
symmetry S on the S-even half of a full cylinder first).
`half_cylinder_eigen` builds a half cylinder with a Dirichlet far end for
it, and `cross_section_ground_state` solves the cross-section problem as
the first eigenpair of a mixed cylinder one axial cell long.  Every one of
them is a solve on a cylinder mesh, on the p = 2 pencil or the quotient of
`minimize_rayleigh`, and sees the discrete problem through the one Q1 core
of `discretization`: its tensor-product Gauss rule and p = 2 matrices.

The descent sees its problem as states linear in the nodal vector: its
values and slopes at the Gauss points, or on the p = 2 pencil the vector
with its products Ku and Mu, so the trial u - z is a combination of carried
states.  Every iteration takes one step rule: the Newton step on the unit
p-sphere, one banded LU solve of the quotient Hessian shifted by sigma
times the p = 2 stiffness, with sigma set by a trust-region ratio test.  At
sigma = 0 its rate does not follow the collapsing gap lam2 - lam1 of long
cylinders.  Only the residual test certifies an eigenpair of the engine,
the first p = 2 pair included: `converged` is true for that exit alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg as spla

from . import discretization as disc
from .coeffs import CoefficientField, satisfies_symmetry_S
from .discretization import DiscreteField
from .errors import ConfigurationError, SolverError
from .mesh import BC, CylinderMesh, DomainSpec, Shape, build_mesh


class Init(enum.Enum):
    LIFTED_W = "lifted_w"
    ONES = "ones"


class Side(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass
class SolveOptions:
    tol_residual: float = 1e-8
    max_iters: int = 50000
    init: Init = Init.LIFTED_W

    def __post_init__(self):
        # an infinite tolerance would certify any start, a nan none
        if not 0 < self.tol_residual < np.inf:
            raise ConfigurationError("tol_residual must be positive and finite")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")


@dataclass
class EigenResult:
    lam: float
    field: DiscreteField
    iterations: int
    final_residual: float
    rayleigh_history: np.ndarray
    converged: bool
    # descent, and linear_spectrum at k = 1: "residual" (the only
    # converged exit), "no_descent" or "max_iters"; linear_spectrum at
    # k >= 2: "arpack", "dense" (k = n_free) or "max_iters"
    stop_reason: str
    # banded LU factorizations of the descent's shifted Newton matrix; from
    # linear_spectrum at k >= 2 those of its k = 1 engine plus its banded
    # Cholesky factorizations (one, or two after a failed shifted one)
    factorizations: int = 0


class CrossSectionResult:
    """Ground state of the cross-section problem on omega = (-1/2, 1/2).

    `w_nodes` are the nodal values (zero at the interval ends,
    p-normalized, positive inside); `w_slope` the element slopes;
    `poincare_cp` the discrete Poincare constant, mu1(omega; a22 = 1)^{-1/p}.
    `iterations`, `residual` and `converged` are those of the descent
    engine on the one-cell cylinder of `cross_section_ground_state` at
    every p, as for the cylinder solves (on a lifted field that residual is
    half the 1D quotient's at the same nodal values); `converged` is also
    false when the solve of the plain problem stopped uncertified.
    """

    def __init__(self, mu1, w_nodes, x2_nodes, p, poincare_cp, iterations,
                 residual, converged):
        self.mu1 = float(mu1)
        self.converged = converged
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

# The shift sigma of the Newton system, in units of max|diag H| / max|diag K|:
# its first nonzero value, and the factor by which it grows after a rejected
# step and shrinks after a step that agrees with its model
_SHIFT_FIRST = 1e-2
_SHIFT_FACTOR = 4.0
# the ratio test: a step is taken when its decrease reaches _ACCEPT of its
# model's, and sigma shrinks when it reaches _AGREE
_ACCEPT, _AGREE = 0.25, 0.75
# a model decrease at most this share of |lam| is below the rounding of the
# quotient, where no step can be seen to descend
_ROUNDING = 1e-13
# beyond this sigma the shift swamps H in double precision
_SHIFT_LIMIT = 1.0 / np.finfo(float).eps


class _Descent(NamedTuple):
    u: np.ndarray
    lam: float
    iterations: int
    residual: float
    history: np.ndarray
    stop_reason: str
    factorizations: int


def _minimize_quotient(problem, u0, opts, prior=None):
    """Rayleigh-quotient descent by shifted Newton steps on the unit p-sphere.

    `problem` works on Gauss-point states: `state(u)` is the forward
    quadrature pass of a nodal vector, `value(S) -> (E, m)` and
    `gradient(S) -> (E, gE, m, gM)` evaluate a state, the gradient through
    the adjoint passes only, `hessian(S, lam)` gives the matrix
    E'' - lam m'' at S and `stiffness()` the SPD p = 2 stiffness K of the
    same problem, both as `dia_array`s (or both as `disc.FoldedMatrix`es)
    with the same offsets, and `p` is the exponent.  A state is a tuple of
    arrays, linear in u.  The iterate is kept p-normalized; the accepted
    Rayleigh values form a nonincreasing history.  The residual is the max
    norm of the quotient gradient d = (gE - lam gM)/m.

    Every iteration takes the step u - z of `_shifted_step`, which solves
    (H + sigma K) z = d - mu gM with gM.z = 0, H = (E'' - lam m'')/m: a
    Levenberg-Marquardt shift of the constrained Newton step, so a
    trust-region Newton method on the sphere (Absil, Baker & Gallivan 2007;
    Nocedal & Wright 2006, ch. 4).  sigma = 0 is the Newton step, whose rate
    does not follow the gap lam2 - lam1 of long cylinders (on the p = 2
    pencil it is Rayleigh-quotient iteration); a large sigma gives the
    K-preconditioned projected gradient.  The step is taken when its
    decrease is at least _ACCEPT of the model's d.z/2 + sigma z.Kz/2, and
    sigma then shrinks by _SHIFT_FACTOR if the ratio exceeds _AGREE.
    Otherwise, or where the matrix is singular, sigma grows by that factor
    (from 0 to _SHIFT_FIRST) and the solve's one band is refilled from the
    iterate's H, built once per iterate, and factored again.  sigma starts
    at 0, and K is built when sigma first becomes nonzero.  A model
    decrease at most _ROUNDING |lam| is below the rounding of the quotient:
    that step is taken untested, and the residual judges it.  A step costs
    one forward pass, the state of u - z, whose value the ratio test reads;
    the accepted trial, scaled to unit p-mass, is the next state.

    Stops on "residual" (the residual test passed: the only certified
    exit), "no_descent" (a step below the quotient's rounding did not lower
    the residual, the rounding floor, or no shift up to _SHIFT_LIMIT gives
    a step that descends) or "max_iters"; `iterations` counts the steps
    tried and `factorizations` the banded LU factorizations, from those of
    `prior`, a `_Descent` that u0 continues, whose history comes first and
    whose steps count toward `max_iters`.  The iterate with the lowest
    residual is returned as it was certified, only its sign fixed to a
    positive sum: on stretched cells with a strong a12 the discrete first
    eigenvector can have negative entries.  Its value comes from a fresh
    forward pass, so no rounding of the carried state reaches it.
    """
    p = problem.p
    u = np.array(u0, dtype=float)
    S = problem.state(u)
    _, m0 = problem.value(S)
    if m0 <= 0:
        raise SolverError("initial field has zero p-mass")
    r = m0 ** (1.0 / p)
    u = u / r
    for a in S:  # in place: one state alive at a time
        a /= r
    E, gE, m, gM = problem.gradient(S)
    lam = E / m
    history = [lam]
    it = factorizations = 0
    if prior is not None:
        history[:0] = prior.history
        it, factorizations = prior.iterations, prior.factorizations
    best = None
    reason = "max_iters"
    sigma, K, band = 0.0, None, None  # K is built when a shift needs it
    blind = False         # the last step was below the quotient's rounding
    while True:
        g = gE - lam * gM  # m d
        res = float(np.max(np.abs(g))) / m
        if best is None or res < best[0]:
            best = res, u
        elif blind:
            reason = "no_descent"  # nor did the residual fall
            break
        if res <= opts.tol_residual * max(1.0, abs(lam)):
            reason = "residual"
            break
        if it >= opts.max_iters:
            break
        it += 1

        A, trial = problem.hessian(S, lam), None
        while trial is None:
            if sigma and K is None:
                K = problem.stiffness()
            factorizations += 1
            z, model, band = _shifted_step(u, p, g, gM, A, sigma, K, band)
            pred = model / (2.0 * m)
            if pred > 0.0:
                Sv = _along(S, problem.state(z), 1.0)
                Ev, mv = problem.value(Sv)
                blind = pred <= _ROUNDING * abs(lam)
                ratio = (lam - Ev / mv) / pred if mv > 0 else -1.0
                if mv > 0 and (blind or ratio >= _ACCEPT):
                    trial = z, Sv, mv, Ev / mv
                    if ratio > _AGREE:
                        sigma /= _SHIFT_FACTOR
                    continue
            sigma = sigma * _SHIFT_FACTOR if sigma else _SHIFT_FIRST
            if sigma > _SHIFT_LIMIT:
                break
        if trial is None:
            reason = "no_descent"  # no shift gives a step that descends
            break

        z, Sv, mv, value = trial
        r = mv ** (1.0 / p)
        u = (u - z) / r
        for a in Sv:
            a /= r
        S = Sv
        history.append(value)

        E, gE, m, gM = problem.gradient(S)
        lam = E / m

    res, u = best
    if float(np.sum(u)) < 0.0:
        u = -u
    Ef, mf = problem.value(problem.state(u))
    u = u / mf ** (1.0 / p)
    return _Descent(u, Ef / mf, it, res, np.asarray(history), reason,
                    factorizations)


def _shifted_step(u, p, g, gM, A, sigma, K, band):
    """The step z of u - z for the p-homogeneous quotient at u.

    Solves (A + s K) z = g - mu gM with gM.z = 0 for g = gE - lam gM, A the
    `dia_array` E'' - lam m'' (m times the quotient's H), K the stiffness
    on A's offsets (unused at sigma = 0) and s = sigma max|diag A| /
    max|diag K|.  A + s K fills `band`, the solve's `gbsv` band of width
    max(A.offsets), allocated when None; A is left as it is.  With
    x = (A + s K)^{-1} gM and y = (A + s K)^{-1} g, z = y - (gM.y / gM.x) x;
    one factorization gives x and, at s > 0, y.  At s = 0, y = u / (p - 1),
    since E and m are homogeneous of degree p.  As z.(A + s K) z = g.z, the
    quadratic model of the quotient decreases by (g.z + s z.Kz) / (2 m)
    along the step.  Returns (z, g.z + s z.Kz, band), or (None, nan, band)
    where the matrix is singular or the step is not finite.
    """
    bw = int(max(A.offsets))
    band = disc.lapack_band(A, bw, bw, bw, band)
    s = 0.0
    if sigma:
        s = sigma * np.max(np.abs(A.diagonal())) / np.max(np.abs(K.diagonal()))
        disc.add_to_band(band, K, s, bw, bw, bw)
    rhs = np.array((gM, g) if s else (gM,)).T  # in Fortran order
    xy, info = scipy.linalg.lapack.dgbsv(bw, bw, band, rhs, overwrite_ab=1,
                                         overwrite_b=1)[2:]
    x = xy[:, 0]
    y = xy[:, 1] if s else u / (p - 1.0)
    gx = float(gM @ x)
    if info != 0 or gx == 0.0:
        return None, np.nan, band
    z = y - (float(gM @ y) / gx) * x
    model = float(g @ z)  # not finite where z is not
    if not np.isfinite(model):
        return None, np.nan, band
    if s:
        model += s * float(z @ (K @ z))
    return z, model, band


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

    def __init__(self, mesh, coeffs, p):
        self.mesh, self.coeffs, self.p = mesh, coeffs, p
        self.core = disc._core(mesh)
        self.A = coeffs.entries(self.core.e2.points)
        self._at = None, None
        self._hessian = None  # one DIA array per solve, written over

    def state(self, u):
        return self.core.state(self.mesh.expand(u))

    def value(self, S):
        return disc._eval_value(self.mesh, self.A, S, self.p, disc._RULE)

    def gradient(self, S):
        E, gE, m, gM, point = disc._eval_full(self.mesh, self.A, S, self.p,
                                              disc._RULE)
        self._at = S, point
        return E, gE, m, gM

    def _point(self, S):
        # the pointwise data of the gradient pass at S, shared
        if self._at[0] is not S:
            self.gradient(S)
        return self._at[1]

    def hessian(self, S, lam):
        self._hessian = disc._eval_hessian(self.mesh, self.A, self._point(S),
                                           S, lam, self.p, self._hessian)
        return self._hessian

    def stiffness(self):
        return disc._p2_diagonals(self.mesh, self.coeffs)[0]


class _FoldedQuotient(_CylinderQuotient):
    """The quotient of a full cylinder with a node row at x1 = 0 on its
    S-even subspace: the one definition of that subspace.

    Under symmetry S, A(-x2) = A(x2), the point reflection (x1, x2) ->
    (-x1, -x2) reverses the order of the free DOFs, so an S-even vector,
    u = u[::-1] (`unfold`), is fixed by its first k = ceil(n_free / 2)
    entries y.  Q takes y to the free DOFs of `mesh`, the cells x1 <= 0
    on a mesh of their own spec (a mixed cylinder of length ell, shifted
    along the axis, which A does not see, or the MINUS half cylinder of a
    Dirichlet one), as y[gather]; there the energy and the p-mass
    are half those of u, so the quotient of y is theirs at Q y, with
    gradients Q^T g and matrices Q^T H Q (`disc.FoldedMatrix`).  `moved`
    = (rows, cols, src) lists the entries (i, j) of a half-mesh matrix
    (`_free_diagonals`) with i or j at least k, as flat indices `src` into
    its data, at their places (gather[i], gather[j]) in Q^T H Q.
    """

    def __init__(self, mesh, coeffs, p):
        s = mesh.spec
        half = CylinderMesh(
            DomainSpec(Shape.FULL_CYLINDER, s.ell / 2, BC.MIXED,
                       s.cells_per_unit, s.nx2) if s.bc is BC.MIXED
            else DomainSpec(Shape.HALF_MINUS, s.ell, BC.HALF_CYLINDER,
                            s.cells_per_unit, s.nx2))
        super().__init__(half, coeffs, p)
        nh = half.n_free
        self.n, self.k = mesh.n_free, (mesh.n_free + 1) // 2
        node = np.arange(nh)
        g = self.gather = np.minimum(node, self.n - 1 - node)
        offsets = disc._stencil_offsets(len(mesh.x2))
        j = np.broadcast_to(node, (len(offsets), nh))
        i = j - offsets[:, None]
        keep = (i >= 0) & (i < nh) & (np.maximum(i, j) >= self.k)
        self.moved = g[i[keep]], g[j[keep]], np.flatnonzero(keep)

    def unfold(self, y):
        return np.concatenate((y, y[:self.n - self.k][::-1]))

    def state(self, y):
        return super().state(y[self.gather])

    def gradient(self, S):
        E, gE, m, gM = super().gradient(S)
        gE, gM = (np.bincount(self.gather, weights=g, minlength=self.k)
                  for g in (gE, gM))
        return E, gE, m, gM

    def hessian(self, S, lam):
        return disc.FoldedMatrix(super().hessian(S, lam), self)

    def stiffness(self):
        return disc.FoldedMatrix(super().stiffness(), self)


def minimize_rayleigh(mesh, coeffs, p, opts=None, cross=None,
                      start=None) -> EigenResult:
    """First eigenpair by Rayleigh-quotient descent over the free DOFs.

    Newton steps shifted by the p = 2 stiffness matrix under a trust-region
    ratio test (`_minimize_quotient`), from `start` (free DOFs, any scale;
    `DimensionMismatchError` for any other length) when given, else from
    `_lifted_start`; p is checked first (`disc.check_exponent`).  Stops
    when the projected gradient falls below ``tol_residual * max(1,
    |lambda|)`` in the max norm, when no trial step descends, or at
    `max_iters`; `stop_reason` says which, and `converged` is true only
    for the residual exit, tested on this problem whatever the start.  A non-converged run is returned
    flagged rather than raised, so parameter sweeps can record partial
    data.

    The problem alone chooses the fold: a full cylinder with an even
    number of axial cells under symmetry S at p != 2 is first solved on
    its S-even subspace (`_FoldedQuotient`) from the first k entries of
    the start, each Newton step factoring a band of k = ceil(n_free / 2)
    columns; its first eigenfunction is simple, so it is S-even.  The
    unfolded result starts the full problem, which tests its residual on
    the whole cylinder and steps on only where that fails, continuing the
    folded run's counts and history under the same `max_iters`.
    """
    disc.check_exponent(p)
    opts = opts or SolveOptions()
    # DiscreteField checks the length of a given start
    start = (_lifted_start(mesh, coeffs, p, opts, cross) if start is None
             else DiscreteField(start, mesh).values)
    prior = None
    if (p != 2 and mesh.spec.shape is Shape.FULL_CYLINDER
            and mesh.n_cells1 % 2 == 0 and satisfies_symmetry_S(coeffs)):
        fold = _FoldedQuotient(mesh, coeffs, p)
        prior = _minimize_quotient(fold, start[:fold.k], opts)
        start = fold.unfold(prior.u)
        del fold  # its Gauss-point data, freed before the full run's
    return _eigen_result(mesh, _minimize_quotient(
        _CylinderQuotient(mesh, coeffs, p), start, opts, prior))


def _lifted_start(mesh, coeffs, p, opts, cross):
    """The free DOFs of the start: all ones under `Init.ONES`, else the
    section state `cross` (solved here at p with the same `opts` when it is
    None) lifted along the axis: flat on a mixed cylinder, else times the
    cosine cos(pi x1 / (2 ell)), which vanishes at the Dirichlet ends."""
    if opts.init is Init.ONES:
        return np.ones(mesh.n_free)
    if cross is None:
        cross = cross_section_ground_state(mesh.n_cells2, coeffs, p, opts)
    if mesh.spec.bc is BC.MIXED:
        axial = np.ones_like(mesh.x1)
    else:
        axial = np.cos(np.pi * mesh.x1 / (2.0 * mesh.spec.ell))
    return mesh.restrict(axial[:, None] * cross.w_nodes[None, :])


def _eigen_result(mesh, r):
    return EigenResult(r.lam, DiscreteField(r.u, mesh), r.iterations,
                       r.residual, r.history, r.stop_reason == "residual",
                       r.stop_reason, r.factorizations)


class _PencilQuotient:
    """The p = 2 quotient u.Ku / u.Mu of the assembled pencil, for
    `_minimize_quotient`: a state is (u, Ku, Mu), linear in u, so a
    trial's products come from those of u, and the value and gradient take
    none.  `stiff` and `mass` are the `dia_array`s of `disc._p2_diagonals`;
    the Hessian 2 (K - lam M) is written into one copy of K."""

    p = 2.0

    def __init__(self, stiff, mass):
        self.stiff, self.mass = stiff, mass
        self._hessian = stiff.copy()

    def state(self, u):
        u = np.asarray(u, dtype=float)
        return u, self.stiff @ u, self.mass @ u

    def value(self, S):
        u, Ku, Mu = S
        return float(u @ Ku), float(u @ Mu)

    def gradient(self, S):
        u, Ku, Mu = S
        return float(u @ Ku), 2.0 * Ku, float(u @ Mu), 2.0 * Mu

    def hessian(self, S, lam):
        # E'' - lam m'' = 2 (K - lam M), bit for bit 2 K - 2 lam M
        H = self._hessian.data
        np.multiply(self.mass.data, -lam, out=H)
        H += self.stiff.data
        H *= 2.0
        return self._hessian

    def stiffness(self):
        return self.stiff


# the k >= 2 Lanczos shift lies this share of the engine's lam1 below it
_SHIFT_MARGIN = 1e-3


def linear_spectrum(mesh, coeffs, k, opts=None, cross=None, start=None):
    """k smallest eigenpairs of the p = 2 pencil (K, M); k is checked
    first (`check_k`).

    k = 1 runs the descent engine (`_minimize_quotient`) on the pencil
    quotient u.Ku / u.Mu from `start` (free DOFs, any scale, its length
    checked) when given, else from the lifted start of
    `minimize_rayleigh`, built from `cross` (the p = 2 cross-section
    ground state, solved here when not given).
    Its unshifted step is Rayleigh-quotient iteration, one banded LU solve
    of K - lam M; the shift sigma K enters only after a rejected step.  The
    result carries the engine's certificate: `stop_reason` "residual"
    (then `converged`), "no_descent" or "max_iters", the max norm of
    2 (K u - lam M u) / u.Mu as `final_residual`, tested against
    ``tol_residual * max(1, |lambda|)``, the steps taken as `iterations`
    and the LU factorizations as `factorizations`.

    k >= 2 (below n_free) first runs that k = 1 engine, then shift-invert
    Lanczos about sigma = lam1 (1 - _SHIFT_MARGIN), lam1 the engine's
    Rayleigh quotient.  With the banded Cholesky factor K - sigma M = L L^T
    (`_cholesky`) the pencil's pairs are those of the symmetric operator
    T = L^{-1} M L^{-T}: lam = sigma + 1 / theta and v = L^{-T} y (Ericsson
    & Ruhe 1980).  ARPACK (`eigsh`) finds the k largest theta in standard
    mode, and each Lanczos step is one shift-invert solve: a pair of
    triangular solves and one product with M.  The rate follows (lam_k -
    sigma) / (lam_{k+1} - sigma), not lam_k / lam_{k+1}, which tends to 1
    in the collapsing cluster of long cylinders.  By Sylvester's law of
    inertia the factorization succeeds only if every eigenvalue lies above
    sigma; as a Rayleigh quotient is at least the true lam1, sigma then
    lies within _SHIFT_MARGIN below it.  Where that factorization fails or
    the engine stopped at max_iters, the shift is 0 and the factor that of
    K.  The Lanczos starts from y0 = L^T 1, the pencil's vector of ones
    (v = L^{-T} y0 = 1), which makes the result deterministic.
    `converged` certifies that ARPACK converged and that the residual of
    k = 1, the max norm of 2 (K v - lam M v) / v.Mv, passes the same test.
    `max_iters` caps the engine's steps and the ARPACK restarts; a run that
    hits the latter comes back flagged, with Ritz pairs of T from a short
    Krylov space (`_krylov_ritz`), since ARPACK hands back only the pairs
    it converged, and `stop_reason` "max_iters" ("arpack" otherwise,
    "dense" for k = n_free, which solves the dense pencil and counts
    nothing).  A given `start` is checked on every branch.
    `iterations` counts the engine's steps plus the shift-invert solves of
    the whole call, and `factorizations` the engine's LU factorizations
    plus the Cholesky ones, both shared by all k results.  K and M stay the
    `dia_array`s of `disc._p2_diagonals`: every product is scipy's compiled
    DIA one, and no CSR matrix is built.
    Eigenvectors are p-mass normalized; the first has a nonnegative sum,
    the others a positive largest entry.
    """
    check_k(k, mesh)
    opts = opts or SolveOptions()
    n = mesh.n_free
    # DiscreteField checks the length of a given start, on every branch
    start = start if start is None else DiscreteField(start, mesh).values
    K, M = disc._p2_diagonals(mesh, coeffs)
    bw = mesh.n_cells2
    steps = factorizations = 0
    reason = "arpack"
    if k == n:  # ARPACK needs k < n; the pencil is tiny here
        lams, vecs = scipy.linalg.eigh(K.toarray(), M.toarray())
        reason = "dense"
    else:
        if start is None:
            start = _lifted_start(mesh, coeffs, 2.0, opts, cross)
        first = _minimize_quotient(_PencilQuotient(K, M), start, opts)
        if k == 1:
            return [_eigen_result(mesh, first)]
        steps, factorizations = first.iterations, first.factorizations + 1
        # an engine cut by max_iters leaves sigma = 0, so a capped call stays
        # on the Lanczos about 0.  Otherwise the factorization decides: the
        # engine's Rayleigh quotient is >= lam1, so sigma lies in
        # [lam1 (1 - _SHIFT_MARGIN), lam1) or the factorization fails
        sigma = 0.0
        if first.stop_reason != "max_iters":
            sigma = first.lam * (1.0 - _SHIFT_MARGIN)
        ab = disc.lapack_band(K, bw, 0)
        disc.add_to_band(ab, M, -sigma, bw, 0)
        try:
            factor, solve_l, solve_lt = _cholesky(ab)
        except SolverError:  # an eigenvalue lies below sigma
            sigma = 0.0
            factorizations += 1
            factor, solve_l, solve_lt = _cholesky(disc.lapack_band(K, bw, 0))

        def apply_t(y):  # one shift-invert solve: L^{-1} M L^{-T} y
            nonlocal steps
            steps += 1
            return solve_l(M @ solve_lt(y))

        T = spla.LinearOperator((n, n), matvec=apply_t, dtype=float)
        # y0 = L^T 1 starts the Lanczos of the pencil from v = 1
        y0 = scipy.linalg.blas.dtbmv(bw, factor, np.ones(n), lower=1,
                                     trans=1)
        try:
            theta, y = spla.eigsh(T, k, which="LA", v0=y0,
                                  maxiter=opts.max_iters)
        except spla.ArpackNoConvergence:
            theta, y = _krylov_ritz(T, k, y0, solve_lt, M)
            reason = "max_iters"
        lams, vecs = sigma + 1.0 / theta, solve_lt(y)

    results = []
    for rank, j in enumerate(np.argsort(lams)):
        lam, v = float(lams[j]), vecs[:, j]
        if rank == 0 and float(np.sum(v)) < 0.0:
            v = -v
        elif rank > 0 and v[np.argmax(np.abs(v))] < 0.0:
            v = -v
        Mv = M @ v
        norm = np.sqrt(float(v @ Mv))
        v, Mv = v / norm, Mv / norm
        res = 2.0 * float(np.max(np.abs(K @ v - lam * Mv)))
        results.append(EigenResult(
            lam, DiscreteField(v, mesh), steps, res, np.array([lam]),
            reason != "max_iters"
            and res <= opts.tol_residual * max(1.0, abs(lam)), reason,
            factorizations))
    return results


def check_k(k, mesh):
    """`ConfigurationError` unless 1 <= k <= the free nodes of `mesh`, the
    eigenpairs that `linear_spectrum` can return there."""
    if not 1 <= k <= mesh.n_free:
        raise ConfigurationError(
            f"k must be >= 1 and <= the {mesh.n_free} free nodes, got {k}")


def _cholesky(ab):
    """The banded Cholesky factor A = L L^T of a symmetric A in the lower
    band storage of `lapack_band` (kl = bw, ku = 0), factored in place by
    `dpbtrf`, with its two triangular solves: (L in that storage,
    d -> L^{-1} d, d -> L^{-T} d).  `SolverError` where A is not positive
    definite.  Each solve (`dtbtrs`) takes a vector or the columns of a
    matrix and checks them finite; the factor is checked once, by
    `dpbtrf`, whose pivot test also fails on a non-finite band."""
    lapack = scipy.linalg.lapack
    factor, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"band factorization failed: info {info}")

    def triangular(trans):
        return lambda d: lapack.dtbtrs(factor, np.asarray_chkfinite(d),
                                       uplo="L", trans=trans)[0]
    return factor, triangular("N"), triangular("T")


def _krylov_ritz(T, k, y0, solve_lt, M):
    """k largest Ritz pairs of T = L^{-1} M L^{-T}, the shift-invert
    operator of K - sigma M = L L^T, on its Krylov space of 2k + 1 vectors
    from y0.

    The fallback when ARPACK runs out of restarts.  A Ritz value theta is
    at most its eigenvalue (min-max), so sigma + 1 / theta bounds the
    pencil's from above; there is no residual certificate.  The projection
    Q^T T Q is X^T M X with X = L^{-T} Q: M products, not more solves.
    """
    block = [y0 / np.linalg.norm(y0)]
    for _ in range(min(len(y0), 2 * k + 1) - 1):
        w = T @ block[-1]
        block.append(w / np.linalg.norm(w))
    Q = np.linalg.qr(np.column_stack(block))[0]
    X = solve_lt(Q)
    theta, y = scipy.linalg.eigh(X.T @ (M @ X))
    return theta[-k:], Q @ y[:, -k:]


def first_eigen(mesh, coeffs, p, opts=None, cross=None,
                start=None) -> EigenResult:
    """First eigenpair on `mesh`: the assembled pencil at p = 2
    (`linear_spectrum`), the quotient descent otherwise
    (`minimize_rayleigh`), from `start` (free DOFs, any scale) when given,
    else from the lifted state, built from `cross` when given.  The
    residual test certifies the result on `mesh` either way."""
    if p == 2:
        return linear_spectrum(mesh, coeffs, 1, opts, cross, start)[0]
    return minimize_rayleigh(mesh, coeffs, p, opts, cross, start)


def half_cylinder_eigen(side, ell, resolution, coeffs, p,
                        opts=None, cross=None, start=None) -> EigenResult:
    """First eigenpair of the half cylinder with a Dirichlet far end, by
    `first_eigen` on its mesh.

    `side` PLUS is (0, ell) with the natural end at 0; MINUS is (-ell, 0)
    with the natural end at 0.  `start` is a vector over the free DOFs of
    that half cylinder.
    """
    nx2, cpu = resolution
    shape = Shape.HALF_PLUS if side is Side.PLUS else Shape.HALF_MINUS
    mesh = build_mesh(DomainSpec(shape, ell, BC.HALF_CYLINDER, cpu, nx2))
    return first_eigen(mesh, coeffs, p, opts, cross, start)


# ---------------------------------------------------------------------------
# cross-section (1D) problem
# ---------------------------------------------------------------------------

def cross_section_ground_state(nx2, coeffs, p,
                               opts=None) -> CrossSectionResult:
    """Ground state of the cross-section problem with Dirichlet ends.

    Solved as the first eigenpair of the mixed cylinder one axial cell long,
    (-1/4, 1/4) x omega with h1 = 1/2 and nx2 >= MIN_NX2 section cells, with
    a11 = 1, a12 = 0 and the family's a22.  Under the tensor Gauss rule a Q1
    field's energy there is at least the weighted sum of its section
    energies at the x1 Gauss points, with equality only where d1 u = 0, and
    its p-mass is exactly that weighted sum; so the first eigenfunction is
    the discrete section ground state W lifted, and its eigenvalue is mu1.
    The engine p-normalizes the lift on the cylinder, so `w_nodes` is the
    mean of the two node rows times h1^(1/p).  The solve starts from the
    sampled cosine on both rows, on the p = 2 pencil or the quotient of
    `minimize_rayleigh`; the discrete Poincare constant comes from a second
    solve, of the plain (a22 = 1) problem on the same mesh, where a22 is not
    1.  A solve that stops uncertified is returned flagged (`converged`
    false), as the cylinder solves are.  nx2 and p are checked first.
    """
    mesh = CylinderMesh(DomainSpec(Shape.FULL_CYLINDER, 0.25, BC.MIXED, 2,
                                   nx2))
    disc.check_exponent(p)
    opts = opts or SolveOptions()
    start = mesh.restrict(np.tile(np.cos(np.pi * mesh.x2), (2, 1)))

    def solve(a22):
        # the quotients that linear_spectrum (k = 1) and minimize_rayleigh
        # build, without those entry points: perfbench counts their calls
        # as a run's cylinder solves (none of linear_spectrum in a p = 3
        # sweep), and the section is none of them
        field = CoefficientField(np.ones_like, np.zeros_like, a22)
        problem = (_PencilQuotient(*disc._p2_diagonals(mesh, field))
                   if p == 2 else _CylinderQuotient(mesh, field, p))
        return _minimize_quotient(problem, start, opts)

    r = plain = solve(coeffs.a22)
    a22 = coeffs.a22(disc._core(mesh).e2.points)
    if float(np.max(np.abs(a22 - 1.0))) >= 1e-14:
        plain = solve(np.ones_like)
    converged = r.stop_reason == plain.stop_reason == "residual"
    w = mesh.expand(r.u).mean(axis=0) * mesh.h1 ** (1.0 / p)
    return CrossSectionResult(r.lam, w, mesh.x2, p, plain.lam ** (-1.0 / p),
                              r.iterations, r.residual, converged)
