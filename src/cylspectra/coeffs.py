"""Symmetric 2x2 coefficient fields A(x2) and the built-in families.

A(x2) = [[a11, a12], [a12, a22]] depends on the cross-section variable only.
Built-in families realize the regimes of interest: `identity` (decoupled),
`constant_offdiag` (two-sided gap, reflection symmetric), `linear_offdiag`
(one-sided gap), `grad_aligned` (off-diagonal entry proportional to the
derivative of the cross-section ground state), and `tabulated` (piecewise
linear through user samples).  `satisfies_symmetry_S` tests A(-x2) = A(x2)
to the constant `SYMMETRY_TOL`.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError

ELLIPTICITY_SAMPLES = 1024
SYMMETRY_TOL = 1e-9


class FamilyKind(enum.Enum):
    IDENTITY = "identity"
    CONSTANT_OFFDIAG = "constant_offdiag"
    LINEAR_OFFDIAG = "linear_offdiag"
    GRAD_ALIGNED = "grad_aligned"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class CoefficientFamily:
    kind: FamilyKind
    c: float = 0.0
    samples: tuple = ()  # rows (x2, a11, a12, a22) for TABULATED

    def label(self):
        if self.kind is FamilyKind.IDENTITY:
            return "identity"
        if self.kind is FamilyKind.TABULATED:
            return "tabulated"
        return f"{self.kind.value}({self.c!r})"


class CoefficientField:
    """Sampled-on-demand entries of A(x2) and their ellipticity margin,
    `lambda_margin`, computed once at construction."""

    def __init__(self, a11, a12, a22, label="custom"):
        self.a11 = a11
        self.a12 = a12
        self.a22 = a22
        self.label = label
        self.lambda_margin = ellipticity_margin(self)
        if not self.lambda_margin > 0:
            raise ConfigurationError(
                f"coefficients are not uniformly elliptic "
                f"(margin {self.lambda_margin:.6g} <= 0)")

    def entries(self, x2):
        x2 = np.asarray(x2, dtype=float)
        return self.a11(x2), self.a12(x2), self.a22(x2)


def _const(value):
    return lambda x2: np.full_like(np.asarray(x2, dtype=float), value)


def make_coefficients(family: CoefficientFamily, cross=None) -> CoefficientField:
    """Construct the coefficient field of a family.

    `grad_aligned` needs a previously computed cross-section ground state:
    its off-diagonal entry is ``c * W'(x2)``, with the piecewise-constant
    element slope interpolated linearly between cell midpoints.
    """
    kind, c = family.kind, family.c
    if kind is FamilyKind.IDENTITY:
        return CoefficientField(_const(1.0), _const(0.0), _const(1.0),
                                label=family.label())
    if kind is FamilyKind.CONSTANT_OFFDIAG:
        return CoefficientField(_const(1.0), _const(c), _const(1.0),
                                label=family.label())
    if kind is FamilyKind.LINEAR_OFFDIAG:
        return CoefficientField(_const(1.0), lambda x2: c * np.asarray(x2, dtype=float),
                                _const(1.0), label=family.label())
    if kind is FamilyKind.GRAD_ALIGNED:
        if cross is None:
            raise ConfigurationError(
                "grad_aligned requires a cross-section ground state")
        mid = cross.cell_midpoints
        slope = cross.w_slope
        a12 = lambda x2: c * np.interp(np.asarray(x2, dtype=float), mid, slope)
        return CoefficientField(_const(1.0), a12, _const(1.0),
                                label=family.label())
    if kind is FamilyKind.TABULATED:
        return _tabulated_field(np.asarray(family.samples, dtype=float))
    raise ConfigurationError(f"unknown family kind {kind}")


def _tabulated_field(samples):
    if samples.ndim != 2 or samples.shape[1] != 4:
        raise DimensionMismatchError(
            "tabulated samples must be rows of (x2, a11, a12, a22)")
    x = samples[:, 0]
    if not np.all(np.diff(x) > 0):
        raise ConfigurationError("tabulated x2 samples must be increasing")
    if x[0] > -0.5 + 1e-12 or x[-1] < 0.5 - 1e-12:
        raise ConfigurationError("tabulated samples must cover [-1/2, 1/2]")

    def entry(col):
        return lambda x2: np.interp(np.asarray(x2, dtype=float), x, samples[:, col])

    return CoefficientField(entry(1), entry(2), entry(3), label="tabulated")


def load_tabulated_csv(path) -> CoefficientField:
    """Read a `x2,a11,a12,a22` CSV (sorted by x2 covering [-1/2, 1/2]); a
    malformed one raises `ConfigurationError` naming `path`."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or [h.strip() for h in rows[0]] != ["x2", "a11", "a12", "a22"]:
        raise ConfigurationError(
            f"expected header x2,a11,a12,a22 in {path}, got {rows[:1]}")
    try:
        return _tabulated_field(np.array(rows[1:], dtype=float))
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def ellipticity_margin(field: CoefficientField) -> float:
    """Smallest eigenvalue of A(x2) over `ELLIPTICITY_SAMPLES` equispaced
    points of the cross section."""
    x2 = np.linspace(-0.5, 0.5, ELLIPTICITY_SAMPLES)
    a11, a12, a22 = field.entries(x2)
    radius = np.sqrt(0.25 * (a11 - a22) ** 2 + a12 ** 2)
    return float(np.min(0.5 * (a11 + a22) - radius))


def satisfies_symmetry_S(field: CoefficientField) -> bool:
    """True iff A(-x2) = A(x2) entrywise within `SYMMETRY_TOL` on a
    symmetric sample."""
    x2 = np.linspace(0.0, 0.5, 257)
    for entry in (field.a11, field.a12, field.a22):
        if np.max(np.abs(entry(-x2) - entry(x2))) > SYMMETRY_TOL:
            return False
    return True


def reflect_axis(field: CoefficientField) -> CoefficientField:
    """Coefficients of the axis-reflected problem: a12 negated, rest kept.

    An involution; the ellipticity margin is unchanged because the
    eigenvalues of a symmetric 2x2 matrix do not see the off-diagonal sign.
    """
    a12 = field.a12
    out = CoefficientField(field.a11, lambda x2: -a12(x2), field.a22,
                           label=f"reflect[{field.label}]")
    return out
