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
