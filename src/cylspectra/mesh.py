"""Tensor-product quadrilateral meshes of finite and half cylinders.

The computational domains are ``(-ell, ell) x omega`` (full cylinder),
``(0, ell) x omega`` / ``(-ell, 0) x omega`` (half cylinders), with the
cross section fixed to ``omega = (-1/2, 1/2)`` so that reflection symmetry
of coefficient fields is expressible.  Grids are uniform in each direction;
unit-width slabs from the left end support decay diagnostics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError

OMEGA_HALF_WIDTH = 0.5
# the fewest cross-section cells of any mesh, config or cross-section solve
MIN_NX2 = 4


class Shape(enum.Enum):
    FULL_CYLINDER = "full"
    HALF_PLUS = "half_plus"
    HALF_MINUS = "half_minus"
    CROSS_SECTION = "cross_section"


class BC(enum.Enum):
    MIXED = "mixed"                # u = 0 on the lateral boundary, natural ends
    DIRICHLET_ALL = "dirichlet"    # u = 0 on the whole boundary
    HALF_CYLINDER = "half"         # u = 0 on lateral boundary and far end


@dataclass(frozen=True)
class DomainSpec:
    """Validated description of a domain and its boundary conditions.

    Parameters
    ----------
    shape : Shape
        Full cylinder, one of the half cylinders, or the bare cross section.
    ell : float
        Half-length of the full cylinder, or length of a half cylinder;
        positive and finite for every shape, though the cross section does
        not use it.
    bc : BC
        Boundary-condition tag; must be compatible with `shape`.
    cells_per_unit : int
        Axial cells per unit length (>= 2); a cylinder's axial `length`
        must be a whole number of cells.
    nx2 : int
        Cross-section cells (>= MIN_NX2).
    """

    shape: Shape
    ell: float
    bc: BC
    cells_per_unit: int
    nx2: int

    def __post_init__(self):
        if not 0 < self.ell < np.inf:
            raise ConfigurationError(
                f"ell must be positive and finite, got {self.ell}")
        check_resolution(self.nx2, self.cells_per_unit)
        if self.shape is Shape.FULL_CYLINDER:
            if self.bc not in (BC.MIXED, BC.DIRICHLET_ALL):
                raise ConfigurationError(
                    f"full cylinder supports mixed or dirichlet bc, got {self.bc}")
        elif self.shape in (Shape.HALF_PLUS, Shape.HALF_MINUS):
            if self.bc is not BC.HALF_CYLINDER:
                raise ConfigurationError(
                    f"half cylinders require the half-cylinder bc, got {self.bc}")
        elif self.bc is not BC.DIRICHLET_ALL:
            # 1D problem handled by eigensolve.cross_section_ground_state;
            # its boundary condition is Dirichlet at both interval ends.
            raise ConfigurationError(
                "cross section uses Dirichlet ends; set bc=DIRICHLET_ALL")
        if self.shape is not Shape.CROSS_SECTION:
            cells = self.cells_per_unit * self.length
            if abs(round(cells) - cells) > 1e-9:
                raise ConfigurationError(
                    "axial length times cells_per_unit must be a whole "
                    f"number of cells, got {cells}")

    @property
    def length(self):
        """Axial length: 2 ell for the full cylinder, else ell."""
        return (2.0 if self.shape is Shape.FULL_CYLINDER else 1.0) * self.ell


def check_resolution(nx2, cells_per_unit=2):
    """`ConfigurationError` unless there are at least MIN_NX2 cross-section
    cells and 2 axial cells per unit length; the default passes the latter,
    for the cross section, which has no axis."""
    if nx2 < MIN_NX2:
        raise ConfigurationError(f"nx2 must be >= {MIN_NX2}, got {nx2}")
    if cells_per_unit < 2:
        raise ConfigurationError(
            f"cells_per_unit must be >= 2, got {cells_per_unit}")


class CylinderMesh:
    """Uniform tensor-product grid with boundary tags.

    Attributes
    ----------
    x1, x2 : ndarray
        Node coordinates along the axis and across the section.
    dirichlet_mask : ndarray of bool, shape (n1, n2)
        True where the nodal value is constrained to zero.
    n_free : int
        Unconstrained nodes, the unknowns of every solve; at least one, else
        `ConfigurationError` (a full Dirichlet cylinder one cell long).
    n_slabs : int
        Unit slabs from the left end, the last one partial where the length
        is no whole number: axial cell i lies in slab i // cells_per_unit.
    """

    def __init__(self, spec: DomainSpec):
        if spec.shape is Shape.CROSS_SECTION:
            raise ConfigurationError(
                "cross-section problems are one-dimensional; "
                "use eigensolve.cross_section_ground_state")
        self.spec = spec
        length = spec.length
        x1_lo = 0.0 if spec.shape is Shape.HALF_PLUS else -float(spec.ell)
        x1_hi = x1_lo + length
        n_cells1 = int(round(spec.cells_per_unit * length))
        self.n_cells1 = n_cells1
        self.n_cells2 = spec.nx2
        self.x1 = np.linspace(x1_lo, x1_hi, n_cells1 + 1)
        self.x2 = np.linspace(-OMEGA_HALF_WIDTH, OMEGA_HALF_WIDTH, spec.nx2 + 1)
        self.h1 = length / n_cells1
        self.h2 = 2.0 * OMEGA_HALF_WIDTH / spec.nx2

        n1, n2 = self.x1.size, self.x2.size
        mask = np.zeros((n1, n2), dtype=bool)
        mask[:, 0] = True
        mask[:, -1] = True
        if spec.bc is BC.DIRICHLET_ALL:
            mask[0, :] = True
            mask[-1, :] = True
        elif spec.bc is BC.HALF_CYLINDER:
            far = -1 if spec.shape is Shape.HALF_PLUS else 0
            mask[far, :] = True
        self.dirichlet_mask = mask

        self.n_free = int((~mask).sum())
        if not self.n_free:
            raise ConfigurationError(
                f"the {spec.shape.value} {spec.bc.value} domain of "
                f"{n_cells1} axial cell(s) has no free node")
        self.n_slabs = -(-n_cells1 // spec.cells_per_unit)

    def expand(self, free_values):
        """Free-DOF vector -> full nodal grid with zeros at masked nodes."""
        free_values = np.asarray(free_values, dtype=float)
        if free_values.shape != (self.n_free,):
            raise DimensionMismatchError(
                f"expected {self.n_free} free values, got {free_values.shape}")
        grid = np.zeros(self.dirichlet_mask.shape)
        grid[~self.dirichlet_mask] = free_values
        return grid

    def restrict(self, grid):
        """Full nodal grid -> free-DOF vector."""
        grid = np.asarray(grid, dtype=float)
        if grid.shape != self.dirichlet_mask.shape:
            raise DimensionMismatchError(
                f"expected grid of shape {self.dirichlet_mask.shape}, "
                f"got {grid.shape}")
        return grid[~self.dirichlet_mask].copy()


@dataclass
class SlabProfile:
    """Per-unit-slab integrals of a discrete field, ordered from the left end.

    `grad_energy` holds the plain gradient p-norm of each slab,
    `a_energy` the coefficient-weighted energy, `p_mass` the p-th power mass.
    """

    grad_energy: np.ndarray
    p_mass: np.ndarray
    a_energy: np.ndarray

    def __len__(self):
        return len(self.grad_energy)


def build_mesh(spec: DomainSpec) -> CylinderMesh:
    """Build the tensor grid and boundary masks for `spec`."""
    return CylinderMesh(spec)


def slab_integrals(mesh, coeffs, u, p) -> SlabProfile:
    """Integrate |grad u|^p, |u|^p and the A-weighted energy per unit slab.

    `u` may be a DiscreteField on `mesh` or a full nodal grid (test mode,
    boundary mask not applied).  The slab sums reproduce the corresponding
    whole-domain integrals to quadrature roundoff.
    """
    from . import discretization as disc

    grid = u if isinstance(u, np.ndarray) else mesh.expand(u.values)
    per_cell = disc.cell_integrals(mesh, coeffs, grid, p)
    slab_of = np.arange(mesh.n_cells1) // mesh.spec.cells_per_unit
    grad_e = np.zeros(mesh.n_slabs)
    mass = np.zeros(mesh.n_slabs)
    a_e = np.zeros(mesh.n_slabs)
    np.add.at(grad_e, slab_of, per_cell["grad_p"].sum(axis=1))
    np.add.at(mass, slab_of, per_cell["p_mass"].sum(axis=1))
    np.add.at(a_e, slab_of, per_cell["a_energy"].sum(axis=1))
    return SlabProfile(grad_e, mass, a_e)
