"""Bilinear (Q1) discretization on the tensor grid: the p-energy, the p-mass,
their exact nodal gradients, and the p = 2 stiffness and mass matrices.

Everything is built from one 1D element, `_Q1`: a uniform node array with
the 3-point Gauss rule per cell.  The grid is a tensor product and A
depends on x2 only, so every 2D quantity factors into 1D passes (sum
factorization): values and slopes at the Gauss points are one pass per
axis over the nodal grid, nodal gradients are the adjoint passes, and
every cylinder matrix (the p = 2 stiffness and mass, the Newton Hessian)
is assembled from cell matrices, one pass per axis, into the nine
diagonals of its free-DOF band (`_free_diagonals`), held as a
`scipy.sparse.dia_array`.  Its column-aligned diagonals are also the rows
of LAPACK band storage, so one array is both the operator of scipy's
compiled products and the band that `lapack_band` fills, a whole row per
diagonal; only the public `assemble_p2` builds CSR matrices.  All
integrals use that one rule, and gradients are exact derivatives of the
quadrature sums, so finite-difference checks pass to tight tolerance and
optimizer line searches see a consistent objective.
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
    """The tensor Gauss rule of every integral: 3 points per direction per
    cell, exact for polynomials of degree 5 along each axis."""

    def __init__(self):
        self.points_per_dir = 3
        b = np.sqrt(3.0 / 5.0)
        self.nodes = np.array([-b, 0.0, b])
        self.weights = np.array([5.0, 8.0, 5.0]) / 9.0


# the rule every `_Q1` uses
_RULE = QuadratureRule()


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


@dataclass
class SparsePair:
    """Stiffness (with the a12 cross terms) and mass matrix over free DOFs."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix


def check_exponent(p):
    """The one floor of the exponent: `UnsupportedExponentError` unless
    2 <= p < inf."""
    if not 2 <= p < np.inf:
        raise UnsupportedExponentError(f"p must be >= 2 and finite, got {p}")


class _Q1:
    """Piecewise-linear element on a uniform 1D node array, with `_RULE`.

    `points` (point, cell) are the Gauss points of each cell and `weights`
    (point) their weights; `N` and `dN`, shape (2, point), are the values
    and slopes of a cell's left and right basis functions there.  `values`
    and `slopes` take a nodal array to the Gauss points along one axis,
    which becomes (point, cell); slopes are constant per cell and keep a
    unit point axis.  The `_adjoint` methods are their transposes, back
    onto the nodes.  Points come before cells so that the innermost axis
    of every Gauss-point array is a long one.
    """

    def __init__(self, nodes):
        g = _RULE.nodes
        self.h = float(nodes[1] - nodes[0])
        self.points = nodes[:-1] + (g[:, None] + 1.0) * (self.h / 2.0)
        self.weights = _RULE.weights * (self.h / 2.0)
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


class _Tensor:
    """Gauss-point values of nodal grids on the tensor grid x1 x x2.

    Gauss-point arrays have the layout (x1 point, x1 cell, x2 point,
    x2 cell), so data of x2 alone, shaped (x2 point, x2 cell), broadcasts
    against them; `w` is the product weight in that layout.
    """

    def __init__(self, x1, x2):
        self.e1, self.e2 = _Q1(x1), _Q1(x2)
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
        A[a] B[a'] of 1D basis values or slopes, as from `pairs`; one 1D
        pass per axis gives the result L[a, a', x1 cell, b, b', x2 cell],
        coupling the cell's node (a, b) to its node (a', b').  A unit cell
        axis of `dens` (data of x2 alone) gives L a unit cell axis.
        """
        nq1, nc1, nq2, nc2 = dens.shape
        t = pair1.reshape(4, nq1) @ dens.reshape(nq1, -1)
        t = np.matmul(pair2.reshape(4, nq2), t.reshape(4 * nc1, nq2, nc2))
        return t.reshape(2, 2, nc1, 2, 2, nc2)

    def pairs(self, i, j):
        """The basis pairs (x1 pair, x2 pair) that `cell_matrices` takes for
        the term d_i u d_j v: i, j = 0 or 1 differentiate along x1 or x2,
        None not at all."""
        a1, b1 = (self.e1.dN if k == 0 else self.e1.N for k in (i, j))
        a2, b2 = (self.e2.dN if k == 1 else self.e2.N for k in (i, j))
        return a1[:, None] * b1, a2[:, None] * b2

    def integrate(self, dens, per_cell=False):
        if not per_cell:
            return float(self._w_flat @ dens.ravel())
        nq1, nc1, nq2, nc2 = dens.shape
        rows = self.e1.weights @ dens.reshape(nq1, -1)
        return self.e2.weights @ rows.reshape(nc1, nq2, nc2)


def _core(mesh):
    # cached on the mesh so lifetimes match (meshes are immutable)
    if "_tensor" not in mesh.__dict__:
        mesh._tensor = _Tensor(mesh.x1, mesh.x2)
    return mesh._tensor


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
    and the pointwise data (q, P = p w q^{p/2-1}) that `_eval_hessian`
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


def _energy_of(mesh, coeffs, u, p, grad):
    core = _core(mesh)
    _, g1, g2 = core.state(_grid(mesh, u))
    return _energy_sums(core, coeffs.entries(core.e2.points), g1, g2, p, grad)


def energy(mesh, coeffs, u, p) -> float:
    """Quadrature value of the p-energy  integral |A grad u . grad u|^{p/2}.

    Nonnegative; zero only for the zero field.  The quadratic form is taken
    in absolute value before the p/2 power to guard against roundoff
    producing tiny negatives at quadrature points.
    """
    check_exponent(p)
    return _energy_of(mesh, coeffs, u, p, False)


def energy_gradient(mesh, coeffs, u, p) -> np.ndarray:
    """Exact derivative of the discrete energy w.r.t. each free nodal value."""
    check_exponent(p)
    return _energy_of(mesh, coeffs, u, p, True)[1][~mesh.dirichlet_mask]


def p_mass(mesh, u, p):
    """Quadrature value and exact gradient of  integral |u|^p.

    Returns
    -------
    (value, gradient) : (float, ndarray over free DOFs)
    """
    check_exponent(p)
    core = _core(mesh)
    value, grad = _mass_sums(core, core.values(_grid(mesh, u)), p, True)
    return value, grad[~mesh.dirichlet_mask]


def _eval_value(mesh, A, state, p, quad):
    """(energy, p-mass) of a Gauss-point state (u, d1u, d2u) of `_Tensor`,
    with the coefficient entries A at the Gauss points.  `quad` is `_RULE`,
    the rule of the state; it names the rule to callers that count the
    points evaluated."""
    core = _core(mesh)
    uq, g1, g2 = state
    return (_energy_sums(core, A, g1, g2, p, False),
            _mass_sums(core, uq, p, False))


def _eval_full(mesh, A, state, p, quad):
    """(energy, its gradient, p-mass, its gradient, pointwise data) of a
    Gauss-point state, gradients over the free DOFs; only the adjoint
    passes run.  The pointwise data is what `_eval_hessian` needs of
    this state.  `quad` as in `_eval_value`."""
    core = _core(mesh)
    uq, g1, g2 = state
    free = ~mesh.dirichlet_mask
    E, gE, point = _energy_sums(core, A, g1, g2, p, True)
    m, gM = _mass_sums(core, uq, p, True)
    return E, gE[free], m, gM[free], point


# the terms d_i u d_j v of A grad u . grad v, whose coefficient is A[i + j]
_GRADIENT_TERMS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _eval_hessian(mesh, A, point, state, lam, p, out=None):
    """E'' - lam m'' at a Gauss-point state, over the free DOFs, as the
    `dia_array` of `_free_diagonals`, written over `out` if given.

    The energy's pointwise Hessian is P (A + (p-2) f f^T / q), f = A grad u,
    with `point` = (q, P) of `_eval_full` at `state` and the (p-2) term 0
    where q = 0; the mass's is p (p-1) w |u|^{p-2}.  Each density is
    contracted against the basis pairs of every cell, one 1D pass per axis.
    """
    L = _hessian_cells(_core(mesh), A, point, state, lam, p)
    return _free_diagonals(mesh, L, out)


def _hessian_cells(core, A, point, state, lam, p):
    """The cell matrices of `_eval_hessian`, L[a, a', x1 cell, b, b', x2 cell].

    With h = sqrt(P (p-2) / q) f the energy density is P A + h h^T; its
    entries are formed one at a time in two full-size buffers, which are
    freed with this frame before the band is allocated.
    """
    q, P = point
    h = _flux(A, *state[1:])
    c = np.zeros(q.shape)
    np.divide(p - 2.0, q, out=c, where=q > 0.0)
    c *= P
    np.sqrt(c, out=c)
    for f in h:
        f *= c
    dens = _power(state[0], p - 2.0)
    dens *= (-lam * p * (p - 1.0)) * core.w
    L = core.cell_matrices(dens, *core.pairs(None, None))
    for i, j in _GRADIENT_TERMS:
        np.multiply(P, A[i + j], out=dens)
        dens += np.multiply(h[i], h[j], out=c)
        L += core.cell_matrices(dens, *core.pairs(i, j))
    return L


def rayleigh(mesh, coeffs, u, p) -> float:
    """Rayleigh quotient energy / p-mass; scale invariant in u."""
    m = p_mass(mesh, u, p)[0]
    if m <= 0.0:
        raise QuotientUndefinedError("Rayleigh quotient of the zero field")
    return energy(mesh, coeffs, u, p) / m


def grad_p_norm(mesh, u, p) -> float:
    """Plain gradient p-norm  integral |grad u|^p  (no coefficients)."""
    check_exponent(p)
    core = _core(mesh)
    _, g1, g2 = core.state(_grid(mesh, u))
    return core.integrate(_power(g1 * g1 + g2 * g2, p / 2.0))


def cell_integrals(mesh, coeffs, grid, p):
    """Per-cell integrals used by slab profiles and end-mass splits.

    Returns a dict of (n_cells1, n_cells2) arrays: `a_energy` for
    |A grad u . grad u|^{p/2}, `grad_p` for |grad u|^p, `p_mass` for |u|^p.
    """
    check_exponent(p)
    core = _core(mesh)
    q, (uq, g1, g2), _ = _form(core, coeffs, grid)
    dens = {"a_energy": _power(q, p / 2.0),
            "grad_p": _power(g1 * g1 + g2 * g2, p / 2.0),
            "p_mass": _power(uq, p)}
    return {k: core.integrate(v, per_cell=True) for k, v in dens.items()}


def _p2_diagonals(mesh, coeffs):
    """The p = 2 stiffness and mass over the free DOFs, as the `dia_array`s
    of `_free_diagonals`.

    Both come from the cell matrices of their Gauss-point densities, w A[i + j]
    for the term d_i u d_j v of the stiffness and w for the mass, as the
    Hessian's do.  The densities are data of x2 alone, so the cell matrices
    are one column of cells, the same at every x1 cell.
    """
    core = _core(mesh)
    A = coeffs.entries(core.e2.points)
    K = sum(core.cell_matrices(A[i + j] * core.w, *core.pairs(i, j))
            for i, j in _GRADIENT_TERMS)
    M = core.cell_matrices(core.w, *core.pairs(None, None))
    return _free_diagonals(mesh, K), _free_diagonals(mesh, M)


def assemble_p2(mesh, coeffs) -> SparsePair:
    """Assemble the p=2 stiffness and mass matrices over the free DOFs.

    The stiffness includes the a12 cross terms
    a11 d1u d1v + a12 (d1u d2v + d2u d1v) + a22 d2u d2v; the mass matrix is
    the L2 Gram matrix.  u' K u equals energy(u, p=2) by construction.
    Both are 9-point stencils over the nodes, built from the same cell
    matrices and diagonals as the descent's shift (see `_p2_diagonals`).
    """
    K, M = _p2_diagonals(mesh, coeffs)
    return SparsePair(sp.csr_matrix(K), sp.csr_matrix(M))


def _free_diagonals(mesh, L, out=None):
    """The free-DOF matrix of cell matrices L[a, a', x1 cell, b, b', x2 cell]
    as a `dia_array`: ascending offsets o, with `data[k, j]` the entry
    (j - o_k, j), which is row top + ku - o_k of LAPACK band storage
    (`lapack_band`); written over `out`, an earlier result, if given.

    Cell c's node a is node c + a, and a unit cell axis of L stands for the
    same matrices at every cell along it.  The free nodes are the x1 rows
    r0..r1-1 less the two x2 ends, numbered row-major, so the coupling of
    node (i, j) to (i + d1 - 1, j + d2 - 1) is the diagonal at offset
    (d1 - 1) (nx2 - 1) + d2 - 1 and the bandwidth is nx2.  All nine are
    summed in one (d1, d2, node) stencil indexed by the row's node, one
    slice-add per cell corner, then each is copied out at the column's node.
    """
    n1, n2 = mesh.dirichlet_mask.shape
    free = ~mesh.dirichlet_mask.all(axis=1)
    r0, r1 = int(free.argmax()), int(free.argmax() + free.sum())
    stencil = np.zeros((3, 3, n1 + 2, n2 + 2))  # one node of zeros around
    for a, b in itertools.product((0, 1), (0, 1)):
        stencil[1 - a:3 - a, 1 - b:3 - b, 1 + a:a + n1, 1 + b:b + n2] += (
            L[a, :, :, b].transpose(0, 2, 1, 3))
    if out is None:
        n = (r1 - r0) * (n2 - 2)
        out = sp.dia_array((np.empty((9, n)), _stencil_offsets(n2)),
                           shape=(n, n))
    block = out.data.reshape(3, 3, r1 - r0, n2 - 2)
    for d1, d2 in itertools.product(range(3), range(3)):
        # the column's node is the row's node moved by (d1 - 1, d2 - 1)
        block[d1, d2] = stencil[d1, d2, r0 + 2 - d1:r1 + 2 - d1,
                                3 - d2:n2 + 1 - d2]
    # no coupling from a Dirichlet node (an x2 end, an x1 row not free)
    block[:, 0, :, -1] = block[:, 2, :, 0] = 0.0
    block[0, :, -1] = block[2, :, 0] = 0.0
    return out


def _stencil_offsets(n2):
    """The nine offsets of `_free_diagonals` for n2 x2 nodes, ascending."""
    o = np.arange(-1, 2)
    return ((n2 - 2) * o[:, None] + o).ravel()


def lapack_band(A, kl, ku, top=0, out=None):
    """The n x n `dia_array` A in LAPACK band storage, in Fortran order.

    Entry (i, j) sits at row top + ku + i - j of column j, so A's `data` at
    offset o (zero outside the matrix) is row top + ku - o as it stands;
    offsets outside [-kl, ku] are dropped.  `top = kl` rows of fill-in give
    the layout of `gbsv`, `kl = bw, ku = 0` the lower one of
    `cholesky_banded`.  `out`, an earlier result, is reused with its rows
    from `top` on zeroed.  A may also be a `FoldedMatrix`, n x n for the
    k unknowns of its fold.
    """
    n = A.shape[1]
    shape = (top + kl + ku + 1, n)
    if out is not None:
        out[top:] = 0.0  # gbsv sets its fill-in rows itself
        ab = out
    else:
        # zeros from an anonymous mapping, unmapped when the array dies: a
        # freed malloc chunk of this size (1.5 MB for gbsv at nx2 = 32,
        # ell = 8) makes glibc keep up to twice that in its heap afterwards.
        # Populated up front, since the fill writes every page anyway: one
        # call in place of a page fault per page
        ab = np.ndarray(shape, order="F", buffer=mmap.mmap(
            -1, 8 * shape[0] * n, mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
            | getattr(mmap, "MAP_POPULATE", 0)))
    add_to_band(ab, A, 1.0, kl, ku, top)
    return ab


def add_to_band(ab, A, scale, kl, ku, top=0):
    """Adds `scale` times the `dia_array` A to `ab`, a result of
    `lapack_band` with the same layout, in place: each diagonal is a whole
    band row (with no scaled copy at scale 1).

    A `FoldedMatrix` Q^T H Q adds the rows of H over the first k columns,
    then the entries that the fold moves, one `np.add.at`; the entries of H
    in rows k and beyond that the first fill leaves in those columns lie
    below the k x k matrix, where LAPACK reads nothing.
    """
    fold = None
    if isinstance(A, FoldedMatrix):
        A, fold = A.H, A.fold
    n = ab.shape[1]
    for o, v in zip(A.offsets, A.data):
        if -kl <= o <= ku:
            v = v[:n]
            ab[top + ku - o] += v if scale == 1.0 else scale * v
    if fold is not None:
        rows, cols, src = fold.moved
        np.add.at(ab, (top + ku + rows - cols, cols),
                  scale * A.data.ravel()[src])


class FoldedMatrix:
    """Q^T H Q for a `dia_array` H of a half mesh and a `fold` that defines
    Q (`eigensolve._FoldedQuotient`: the k unknowns, their `gather` and the
    `moved` entries): what the descent's step reads of a matrix
    (`offsets`, `shape`, `diagonal`, `@`) and `add_to_band` fills into its
    band."""

    def __init__(self, H, fold):
        self.H, self.fold = H, fold
        self.offsets, self.shape = H.offsets, (fold.k, fold.k)

    def diagonal(self):
        rows, cols, src = self.fold.moved
        d = self.H.diagonal()[:self.fold.k].copy()  # not a view of H
        on = rows == cols
        np.add.at(d, cols[on], self.H.data.ravel()[src[on]])
        return d

    def __matmul__(self, z):
        g = self.fold.gather
        return np.bincount(g, weights=self.H @ z[g], minlength=self.fold.k)


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
