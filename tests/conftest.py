import numpy as np
import pytest

import cylspectra as cs


@pytest.fixture(scope="session")
def identity_field():
    return cs.make_coefficients(cs.CoefficientFamily(cs.FamilyKind.IDENTITY))


@pytest.fixture(scope="session")
def offdiag_field():
    return cs.make_coefficients(
        cs.CoefficientFamily(cs.FamilyKind.CONSTANT_OFFDIAG, 0.3))


@pytest.fixture(scope="session")
def linear_field():
    return cs.make_coefficients(
        cs.CoefficientFamily(cs.FamilyKind.LINEAR_OFFDIAG, 0.8))


@pytest.fixture
def small_mixed_mesh():
    return cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, 1, cs.BC.MIXED, 3, 6))


def random_field(mesh, seed):
    rng = np.random.default_rng(seed)
    return cs.DiscreteField(rng.standard_normal(mesh.n_free), mesh)


def dense_from_band(ab, kl, ku, top):
    """The matrix of LAPACK band storage: (i, j) at row top + ku + i - j."""
    n = ab.shape[1]
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            H[i, j] = ab[top + ku + i - j, j]
    return H


def own_field(kind=cs.FamilyKind.CONSTANT_OFFDIAG, c=0.3):
    """A field for one test.  `cross_section_ground_state` caches each
    section on its field, so the session fields above keep the sections of
    every test before; a test that counts or patches the section solve
    builds its own field, and its counts do not depend on test order."""
    return cs.make_coefficients(cs.CoefficientFamily(kind, c))


def count_section_solves(monkeypatch):
    """Records (nx2, p) of every engine run on the one-cell cylinder that
    `cross_section_ground_state` solves a section on: the solves, not the
    calls, of which a cached section answers all but the first."""
    from cylspectra import eigensolve as es
    solves, quotient = [], es._quotient

    def counted(mesh, coeffs, p):
        if mesh.n_cells1 == 1:
            solves.append((mesh.n_cells2, p))
        return quotient(mesh, coeffs, p)

    monkeypatch.setattr(es, "_quotient", counted)
    return solves
