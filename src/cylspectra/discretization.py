"""Bilinear (Q1) discretization on the tensor grid: the p-energy, the p-mass,
their exact nodal gradients, and the p = 2 stiffness and mass matrices.

Everything is built from one 1D element, `_Q1`: a uniform node array with a
Gauss rule per cell.  The grid is a tensor product and A depends on x2
only, so every 2D quantity factors into 1D passes (sum factorization):
values and slopes at the Gauss points are one pass per axis over the nodal
grid, nodal gradients are the adjoint passes, and the p = 2 matrices are
sums of products of tridiagonal 1D Gram matrices.  All integrals use the
same Gauss rule, and gradients are exact derivatives of the quadrature
sums, so finite-difference checks pass to tight tolerance and optimizer
line searches see a consistent objective.
"""

from __future__ import annotations

import itertools
import mmap
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (AdmissibilityError, DimensionMismatchError,
                     QuotientUndefinedError, UnsupportedExponentError)
from .mesh import BC, CylinderMesh


class QuadratureRule:
    """Tensor Gauss rule with 2 or 3 points per direction per cell."""

    def __init__(self, points_per_dir=3):
        if points_per_dir not in (2, 3):
            raise ValueError("points_per_dir must be 2 or 3")
        self.points_per_dir = points_per_dir
        if points_per_dir == 2:
            a = 1.0 / np.sqrt(3.0)
            self.nodes = np.array([-a, a])
            self.weights = np.array([1.0, 1.0])
        else:
            b = np.sqrt(3.0 / 5.0)
            self.nodes = np.array([-b, 0.0, b])
            self.weights = np.array([5.0, 8.0, 5.0]) / 9.0


@dataclass
class DiscreteField:
    """Nodal coefficients over the free DOFs of a mesh (Dirichlet nodes 0)."""

    values: np.ndarray
    mesh: CylinderMesh

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_free,):
            raise DimensionMismatchError(
                f"field has {self.values.shape} values for a mesh with "
                f"{self.mesh.n_free} free DOFs")

    def grid(self):
        return self.mesh.expand(self.values)

    def copy(self):
        return DiscreteField(self.values.copy(), self.mesh)


@dataclass
class SparsePair:
    """Stiffness (with the a12 cross terms) and mass matrix over free DOFs."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix


def _check_p(p):
    if p < 2:
        raise UnsupportedExponentError(f"p must be >= 2, got {p}")


class _Q1:
    """Piecewise-linear element on a uniform 1D node array.

    `points` (point, cell) are the Gauss points of each cell and `weights`
    (point) their weights; `N` and `dN`, shape (2, point), are the values
    and slopes of a cell's left and right basis functions there.  `values`
    and `slopes` take a nodal array to the Gauss points along one axis,
    which becomes (point, cell); slopes are constant per cell and keep a
    unit point axis.  The `_adjoint` methods are their transposes, back
    onto the nodes.  Points come before cells so that the innermost axis
    of every Gauss-point array is a long one.
    """

    def __init__(self, nodes, quad):
        g = quad.nodes
        self.h = float(nodes[1] - nodes[0])
        self.points = nodes[:-1] + (g[:, None] + 1.0) * (self.h / 2.0)
        self.weights = quad.weights * (self.h / 2.0)
        self.N = np.stack([(1.0 - g) / 2.0, (1.0 + g) / 2.0])
        self.dN = np.stack([-np.ones_like(g), np.ones_like(g)]) / self.h

    @staticmethod
    def _ends(U, axis):
        cut = (slice(None),) * axis + (None,)
        return U[cut + (slice(None, -1),)], U[cut + (slice(1, None),)]

    def values(self, U, axis=0):
        lo, hi = self._ends(U, axis)
        n0, n1 = self.N.reshape((2, -1) + (1,) * (U.ndim - axis))
        out = lo * n0
        out += hi * n1
        return out

    def slopes(self, U, axis=0):
        lo, hi = self._ends(U, axis)
        return (hi - lo) / self.h

    def values_adjoint(self, F, axis=0):
        # a batched product over the axes before `axis`: contracting the
        # point axis in place, with no transposed copy of F
        lead = F.shape[:axis]
        t = np.matmul(self.N, F.reshape(int(np.prod(lead)), F.shape[axis], -1))
        t = t.reshape(lead + (2,) + F.shape[axis + 1:])
        cut = (slice(None),) * axis
        return self._nodal(t[cut + (0,)], t[cut + (1,)], axis)

    def slopes_adjoint(self, F, axis=0):
        s = F.sum(axis=axis) / self.h
        return self._nodal(-s, s, axis)

    @staticmethod
    def _nodal(lo, hi, axis):
        """Nodal array with `lo` added at each cell's left node, `hi` at its right."""
        shape = list(lo.shape)
        shape[axis] += 1
        out = np.empty(shape)
        cut = (slice(None),) * axis
        out[cut + (0,)] = lo[cut + (0,)]
        np.add(lo[cut + (slice(1, None),)], hi[cut + (slice(None, -1),)],
               out=out[cut + (slice(1, -1),)])
        out[cut + (-1,)] = hi[cut + (-1,)]
        return out

    def band(self, coef, A, B):
        """Tridiagonal Gram matrix G[r, s] = sum coef w A_r B_s of `N`/`dN`.

        `coef` is a scalar or given at the Gauss points; the result holds
        the rows (G[r, r-1], G[r, r], G[r, r+1]) over the nodes r.
        """
        cw = np.broadcast_to(coef * self.weights[:, None], self.points.shape)
        L = np.einsum("qc,aq,bq->cab", cw, A, B)
        zero = np.zeros(len(L))
        return self._nodal(np.stack([zero, L[:, 0, 0], L[:, 0, 1]]),
                           np.stack([L[:, 1, 0], L[:, 1, 1], zero]), 1)


class _Tensor:
    """Gauss-point values of nodal grids on the tensor grid x1 x x2.

    Gauss-point arrays have the layout (x1 point, x1 cell, x2 point,
    x2 cell), so data of x2 alone, shaped (x2 point, x2 cell), broadcasts
    against them; `w` is the product weight in that layout.
    """

    def __init__(self, x1, x2, quad):
        self.e1, self.e2 = _Q1(x1, quad), _Q1(x2, quad)
        self.w = self.e1.weights[:, None, None, None] * self.e2.weights[:, None]
        shape = self.e1.points.shape + self.e2.points.shape
        self._w_flat = np.broadcast_to(self.w, shape).ravel()

    def values(self, grid):
        return self.e2.values(self.e1.values(grid), 2)

    def state(self, grid):
        """(u, d1u, d2u) at the Gauss points, in three 1D passes.

        States are linear in the grid, so the state of a combination of
        grids is the same combination of their states.  Slopes are constant
        per cell: d1u keeps a unit x1-point axis, d2u a unit x2-point axis.
        """
        along1 = self.e1.values(grid)
        return (self.e2.values(along1, 2),
                self.e2.values(self.e1.slopes(grid), 2),
                self.e2.slopes(along1, 2))

    def values_adjoint(self, t):
        return self.e1.values_adjoint(self.e2.values_adjoint(t, 2))

    def gradient_adjoint(self, f1, f2):
        return (self.e2.values_adjoint(self.e1.slopes_adjoint(f1), 1)
                + self.e1.values_adjoint(self.e2.slopes_adjoint(f2, 2)))

    def cell_matrices(self, dens, pair1, pair2):
        """sum over each cell's Gauss points of dens pair1[a, a'] pair2[b, b'].

        `pair1` (2, 2, x1 point) and `pair2` (2, 2, x2 point) are products
        of 1D basis values or slopes, as from `_pairs`; one 1D pass per axis
        gives the result L[a, a', x1 cell, b, b', x2 cell], coupling the
        cell's node (a, b) to its node (a', b').
        """
        nq1, nc1, nq2, nc2 = dens.shape
        t = pair1.reshape(4, nq1) @ dens.reshape(nq1, -1)
        t = np.matmul(pair2.reshape(4, nq2), t.reshape(4 * nc1, nq2, nc2))
        return t.reshape(2, 2, nc1, 2, 2, nc2)

    @staticmethod
    def stencil(L, d1, d2):
        """The nodal array (n1, n2) of the couplings of node (i, j) to
        (i + d1 - 1, j + d2 - 1) in the cell matrices
        L[a, a', x1 cell, b, b', x2 cell]; cell c's node a is node c + a."""
        nc1, nc2 = L.shape[2], L.shape[5]
        out = np.zeros((nc1 + 1, nc2 + 1))
        for a, b in itertools.product((0, 1), (0, 1)):
            a2, b2 = a + d1 - 1, b + d2 - 1
            if a2 in (0, 1) and b2 in (0, 1):
                out[a:a + nc1, b:b + nc2] += L[a, a2, :, b, b2, :]
        return out

    def integrate(self, dens, per_cell=False):
        if not per_cell:
            return float(self._w_flat @ dens.ravel())
        nq1, nc1, nq2, nc2 = dens.shape
        rows = self.e1.weights @ dens.reshape(nq1, -1)
        return self.e2.weights @ rows.reshape(nc1, nq2, nc2)


def _core(mesh, quad):
    quad = quad or QuadratureRule()
    # cached on the mesh so lifetimes match (meshes are immutable)
    cache = mesh.__dict__.setdefault("_tensor_cache", {})
    if quad.points_per_dir not in cache:
        cache[quad.points_per_dir] = _Tensor(mesh.x1, mesh.x2, quad)
    return cache[quad.points_per_dir]


def _grid(mesh, u):
    return u if isinstance(u, np.ndarray) else mesh.expand(u.values)


def _power(x, e):
    """|x|^e pointwise, without pow for the exponents that p = 2, 3 need.

    Works in place on |x|: at the sizes here a fresh temporary costs more
    than the arithmetic.
    """
    ax = np.abs(x)
    if e == 0.5:
        return np.sqrt(ax, out=ax)
    if e == 1.0:
        return ax
    if e == 1.5:
        r = np.sqrt(ax)
        r *= ax
        return r
    if e == 2.0:
        return np.multiply(ax, ax, out=ax)
    if e == 3.0:
        r = ax * ax
        r *= ax
        return r
    return np.power(ax, e, out=ax)


def _power_slope(x, e):
    """d|x|^e / dx; at e = 1 the slope of x itself, since the forms raised
    to p/2 are nonnegative up to roundoff."""
    if e == 1.0:
        return 1.0
    r = _power(x, e - 1.0)
    r *= np.sign(x)
    r *= e
    return r


def _quadratic(A, g1, g2):
    """q = A grad u . grad u at the Gauss points, from the entries A."""
    a11, a12, a22 = A
    q = a22 * g2
    q += (2.0 * a12) * g1
    q *= g2
    q += a11 * (g1 * g1)
    return q


def _form(core, coeffs, grid):
    """q = A grad u . grad u at the Gauss points, with the state and A."""
    S = core.state(grid)
    A = coeffs.entries(core.e2.points)
    return _quadratic(A, *S[1:]), S, A


def _energy_sums(core, A, g1, g2, p, grad):
    """integral |A grad u . grad u|^{p/2}; if `grad`, also its nodal gradient
    and the pointwise data (q, P = p w q^{p/2-1}) that `_eval_curvature`
    reads at the same state."""
    if not grad:
        return core.integrate(_power(_quadratic(A, g1, g2), p / 2.0))
    f1, f2 = _flux(A, g1, g2)
    q = f1 * g1
    q += f2 * g2
    E = core.integrate(_power(q, p / 2.0))
    P = _power_slope(q, p / 2.0)
    P *= 2.0 * core.w
    f1 *= P
    f2 *= P
    return E, core.gradient_adjoint(f1, f2), (q, P)


def _flux(A, g1, g2):
    """A grad u at the Gauss points, from the entries A."""
    a11, a12, a22 = A
    f1, f2 = a12 * g2, a22 * g2
    f1 += a11 * g1
    f2 += a12 * g1
    return f1, f2


def _mass_sums(core, uq, p, grad):
    """integral |u|^p from u at the Gauss points, and its nodal gradient if
    `grad`."""
    m = core.integrate(_power(uq, p))
    if not grad:
        return m
    t = _power_slope(uq, p)
    t *= core.w
    return m, core.values_adjoint(t)


def _energy_of(mesh, coeffs, u, p, quad, grad):
    core = _core(mesh, quad)
    _, g1, g2 = core.state(_grid(mesh, u))
    return _energy_sums(core, coeffs.entries(core.e2.points), g1, g2, p, grad)


def energy(mesh, coeffs, u, p, quad=None) -> float:
    """Quadrature value of the p-energy  integral |A grad u . grad u|^{p/2}.

    Nonnegative; zero only for the zero field.  The quadratic form is taken
    in absolute value before the p/2 power to guard against roundoff
    producing tiny negatives at quadrature points.
    """
    _check_p(p)
    return _energy_of(mesh, coeffs, u, p, quad, False)


def energy_gradient(mesh, coeffs, u, p, quad=None) -> np.ndarray:
    """Exact derivative of the discrete energy w.r.t. each free nodal value."""
    _check_p(p)
    return _energy_of(mesh, coeffs, u, p, quad, True)[1][~mesh.dirichlet_mask]


def p_mass(mesh, u, p, quad=None):
    """Quadrature value and exact gradient of  integral |u|^p.

    Returns
    -------
    (value, gradient) : (float, ndarray over free DOFs)
    """
    _check_p(p)
    core = _core(mesh, quad)
    value, grad = _mass_sums(core, core.values(_grid(mesh, u)), p, True)
    return value, grad[~mesh.dirichlet_mask]


def _eval_value(mesh, A, state, p, quad):
    """(energy, p-mass) of a Gauss-point state (u, d1u, d2u) of `_Tensor`,
    with the coefficient entries A at the Gauss points."""
    core = _core(mesh, quad)
    uq, g1, g2 = state
    return (_energy_sums(core, A, g1, g2, p, False),
            _mass_sums(core, uq, p, False))


def _eval_full(mesh, A, state, p, quad):
    """(energy, its gradient, p-mass, its gradient, pointwise data) of a
    Gauss-point state, gradients over the free DOFs; only the adjoint
    passes run.  The pointwise data is what `_eval_curvature` needs of
    this state."""
    core = _core(mesh, quad)
    uq, g1, g2 = state
    free = ~mesh.dirichlet_mask
    E, gE, point = _energy_sums(core, A, g1, g2, p, True)
    m, gM = _mass_sums(core, uq, p, True)
    return E, gE[free], m, gM[free], point


def _eval_curvature(mesh, A, point, state, direction, p, quad):
    """(E'', m''): second derivatives of the energy and the p-mass at a
    Gauss-point state along a direction given by its own state.

    E'' = integral p q^{p/2-1} (A grad z . grad z
                                + (p-2) (A grad z . grad u)^2 / q),
    the second term 0 where q = 0, and m'' = p (p-1) integral |u|^{p-2} z^2.
    `point` is the pointwise data `_eval_full` returned at `state`; the
    direction's terms are computed in place, in four full-size buffers.
    """
    core = _core(mesh, quad)
    q, P = point
    uq, g1, g2 = state
    zq, z1, z2 = direction
    buf = _power(uq, p - 2.0)
    buf *= zq
    buf *= zq
    m2 = p * (p - 1.0) * core.integrate(buf)
    h1, h2 = _flux(A, z1, z2)
    dens = h1 * z1
    dens += np.multiply(h2, z2, out=buf)
    if p != 2.0:
        cross = np.multiply(h1, g1, out=h1)
        cross += np.multiply(h2, g2, out=h2)
        cross *= cross
        np.divide(cross, q, out=cross, where=q > 0.0)  # P = 0 where q = 0
        cross *= p - 2.0
        dens += cross
    dens *= P
    return float(np.sum(dens)), m2


def _pairs(A, B):
    """A[a] B[a'] at the Gauss points of one axis, shape (2, 2, point)."""
    return A[:, None, :] * B[None, :, :]


def _eval_hessian(mesh, A, point, state, lam, p, quad, out=None):
    """E'' - lam m'' at a Gauss-point state, over the free DOFs, in the band
    storage of `gbsv` (kl = ku = nx2, nx2 rows of fill-in on top), written
    over `out` if given (see `lapack_band`).

    The energy's pointwise Hessian is P (A + (p-2) f f^T / q), f = A grad u,
    with `point` = (q, P) of `_eval_full` at `state` and the (p-2) term 0
    where q = 0, as in `_eval_curvature`; the mass's is
    p (p-1) w |u|^{p-2}.  Each density is contracted against the basis
    pairs of every cell, one 1D pass per axis, and the cell matrices go
    straight into the band, one diagonal at a time.
    """
    core = _core(mesh, quad)
    L = _hessian_cells(core, A, point, state, lam, p)
    bw = mesh.n_cells2
    return free_band(mesh, lambda d1, d2: core.stencil(L, d1, d2), bw, bw, bw,
                     out)


def _hessian_cells(core, A, point, state, lam, p):
    """The cell matrices of `_eval_hessian`, L[a, a', x1 cell, b, b', x2 cell].

    With h = sqrt(P (p-2) / q) f the energy density is P A + h h^T; its
    entries are formed one at a time in two full-size buffers, which are
    freed with this frame before the band is allocated.
    """
    e1, e2 = core.e1, core.e2
    q, P = point
    h1, h2 = _flux(A, *state[1:])
    c = np.zeros(q.shape)
    np.divide(p - 2.0, q, out=c, where=q > 0.0)
    c *= P
    np.sqrt(c, out=c)
    h1 *= c
    h2 *= c
    N1, dN1 = _pairs(e1.N, e1.N), _pairs(e1.dN, e1.dN)
    N2, dN2 = _pairs(e2.N, e2.N), _pairs(e2.dN, e2.dN)
    terms = ((A[0], h1, h1, dN1, N2),
             (A[1], h1, h2, _pairs(e1.dN, e1.N), _pairs(e2.N, e2.dN)),
             (A[1], h1, h2, _pairs(e1.N, e1.dN), _pairs(e2.dN, e2.N)),
             (A[2], h2, h2, N1, dN2))
    dens = _power(state[0], p - 2.0)
    dens *= (-lam * p * (p - 1.0)) * core.w
    L = core.cell_matrices(dens, N1, N2)
    for a, g, k, pair1, pair2 in terms:
        np.multiply(P, a, out=dens)
        dens += np.multiply(g, k, out=c)
        L += core.cell_matrices(dens, pair1, pair2)
    return L


def rayleigh(mesh, coeffs, u, p, quad=None) -> float:
    """Rayleigh quotient energy / p-mass; scale invariant in u."""
    m = p_mass(mesh, u, p, quad)[0]
    if m <= 0.0:
        raise QuotientUndefinedError("Rayleigh quotient of the zero field")
    return energy(mesh, coeffs, u, p, quad) / m


def grad_p_norm(mesh, u, p, quad=None) -> float:
    """Plain gradient p-norm  integral |grad u|^p  (no coefficients)."""
    _check_p(p)
    core = _core(mesh, quad)
    _, g1, g2 = core.state(_grid(mesh, u))
    return core.integrate(_power(g1 * g1 + g2 * g2, p / 2.0))


def cell_integrals(mesh, coeffs, grid, p, quad=None):
    """Per-cell integrals used by slab profiles and end-mass splits.

    Returns a dict of (n_cells1, n_cells2) arrays: `a_energy` for
    |A grad u . grad u|^{p/2}, `grad_p` for |grad u|^p, `p_mass` for |u|^p.
    """
    _check_p(p)
    core = _core(mesh, quad)
    q, (uq, g1, g2), _ = _form(core, coeffs, grid)
    dens = {"a_energy": _power(q, p / 2.0),
            "grad_p": _power(g1 * g1 + g2 * g2, p / 2.0),
            "p_mass": _power(uq, p)}
    return {k: core.integrate(v, per_cell=True) for k, v in dens.items()}


def _p2_terms(core, coeffs):
    """The p = 2 stiffness and mass as sums of products X (x) Y of 1D Gram
    bands: the entry coupling node (i, j) to (i + d1 - 1, j + d2 - 1) is
    the sum of X[d1, i] Y[d2, j] over the terms (see `_stencil`)."""
    e1, e2 = core.e1, core.e2
    a11, a12, a22 = coeffs.entries(e2.points)
    mass1 = e1.band(1.0, e1.N, e1.N)
    stiff = [(e1.band(1.0, e1.dN, e1.dN), e2.band(a11, e2.N, e2.N)),
             (e1.band(1.0, e1.dN, e1.N), e2.band(a12, e2.N, e2.dN)),
             (e1.band(1.0, e1.N, e1.dN), e2.band(a12, e2.dN, e2.N)),
             (mass1, e2.band(a22, e2.dN, e2.dN))]
    mass = [(mass1, e2.band(1.0, e2.N, e2.N))]
    return stiff, mass


def _stencil(terms, d1, d2):
    return sum(np.outer(X[d1], Y[d2]) for X, Y in terms)


def assemble_p2(mesh, coeffs, quad=None) -> SparsePair:
    """Assemble the p=2 stiffness and mass matrices over the free DOFs.

    The stiffness includes the a12 cross terms
    a11 d1u d1v + a12 (d1u d2v + d2u d1v) + a22 d2u d2v; the mass matrix is
    the L2 Gram matrix.  u' K u equals energy(u, p=2) by construction.
    Each term is a product of 1D Gram matrices, K[(i,j),(k,l)] =
    X[i,k] Y[j,l], so both matrices are 9-point stencils over the nodes.
    """
    stiff, mass = _p2_terms(_core(mesh, quad), coeffs)
    dof = mesh.free_dof_map
    n1, n2 = dof.shape
    neighbour = np.pad(dof, 1, constant_values=-1)
    rows, cols, kdata, mdata = [], [], [], []
    for d1 in range(3):          # band row d <-> neighbour offset d - 1
        for d2 in range(3):
            col = neighbour[d1:d1 + n1, d2:d2 + n2]
            keep = (dof >= 0) & (col >= 0)
            rows.append(dof[keep])
            cols.append(col[keep])
            for data, terms in ((kdata, stiff), (mdata, mass)):
                data.append(_stencil(terms, d1, d2)[keep])
    ij = (np.concatenate(rows), np.concatenate(cols))
    n = mesh.n_free
    K = sp.coo_matrix((np.concatenate(kdata), ij), shape=(n, n)).tocsr()
    M = sp.coo_matrix((np.concatenate(mdata), ij), shape=(n, n)).tocsr()
    return SparsePair(K, M)


def lapack_band(diagonals, kl, ku, top=0, out=None):
    """An n x n matrix in LAPACK band storage, in Fortran order.

    `diagonals` maps an offset o to the entries (i, i + o) over the rows i;
    entries whose column falls outside the matrix are dropped, as are
    offsets outside [-kl, ku].  Entry (i, j) sits at row top + ku + i - j of
    column j: `top = kl` rows of fill-in give the layout of `gbsv`,
    `kl = bw, ku = 0` the lower layout of `cholesky_banded`.  `out`, an
    earlier result of the same layout, is zeroed and reused.
    """
    n = len(diagonals[0])
    shape = (top + kl + ku + 1, n)
    if out is not None:
        out.fill(0.0)
        ab = out
    else:
        # zeros from an anonymous mapping, unmapped when the array dies: a
        # freed malloc chunk of this size (1.5 MB for gbsv at nx2 = 32,
        # ell = 8) makes glibc keep up to twice that in its heap afterwards
        ab = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * shape[0] * n),
                        order="F")
    for o, v in diagonals.items():
        if -kl <= o <= ku:
            row = ab[top + ku - o]
            if o >= 0:
                row[o:] = v[:n - o]
            else:
                row[:n + o] = v[-o:]
    return ab


def free_band(mesh, stencil, kl, ku, top=0, out=None):
    """The free-DOF matrix of a nodal 9-point stencil in band storage.

    `stencil(d1, d2)` is the nodal array (n1, n2) coupling node (i, j) to
    (i + d1 - 1, j + d2 - 1).  The free nodes are whole x1 rows less the
    two x2 ends, numbered row-major, so that coupling is the diagonal at
    offset (d1 - 1) (nx2 - 1) + d2 - 1 and the bandwidth is nx2; only the
    diagonals the layout keeps are asked for (see `lapack_band`).
    """
    rows = ~mesh.dirichlet_mask.all(axis=1)
    nf2 = mesh.n_cells2 - 1
    diagonals = {}
    for d1, d2 in itertools.product(range(3), range(3)):
        o = (d1 - 1) * nf2 + d2 - 1
        if -kl <= o <= ku:
            block = stencil(d1, d2)[rows, 1:-1]
            if d2 != 1:  # the coupling across an x2 end is to a Dirichlet node
                block[:, 0 if d2 == 0 else -1] = 0.0
            diagonals[o] = block.ravel()
    return lapack_band(diagonals, kl, ku, top, out)


def stiffness_band(mesh, coeffs, quad=None):
    """The stiffness of `assemble_p2` in the lower band storage of
    `cholesky_banded`, built from its stencil with no sparse matrix."""
    stiff, _ = _p2_terms(_core(mesh, quad), coeffs)
    return free_band(mesh, lambda d1, d2: _stencil(stiff, d1, d2),
                     mesh.n_cells2, 0)


def lift_cross_section(cross, mesh) -> DiscreteField:
    """Extend the cross-section ground state constantly along the axis.

    Only admissible on mixed meshes (the lift violates the Dirichlet ends
    of the other boundary conditions).  The result is renormalized to unit
    p-mass on the cylinder.
    """
    if mesh.spec.bc is not BC.MIXED:
        raise AdmissibilityError(
            "the axial lift of the cross-section state is only admissible "
            "with mixed boundary conditions")
    if mesh.n_cells2 != cross.n_cells or not np.allclose(
            mesh.x2, cross.x2_nodes, atol=1e-12):
        raise DimensionMismatchError(
            "mesh cross resolution does not match the 1D ground state")
    grid = np.tile(cross.w_nodes, (mesh.x1.size, 1))
    field = DiscreteField(mesh.restrict(grid), mesh)
    m = p_mass(mesh, field, cross.p)[0]
    field.values /= m ** (1.0 / cross.p)
    return field
