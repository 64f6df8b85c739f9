import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylspectra as cs
from cylspectra.errors import ConfigurationError, DimensionMismatchError


def family(kind, c=0.0):
    return cs.make_coefficients(cs.CoefficientFamily(kind, c))


def test_identity_margin(identity_field):
    assert identity_field.lambda_margin == pytest.approx(1.0)
    assert cs.ellipticity_margin(identity_field) == pytest.approx(1.0)


def test_constant_offdiag_margin(offdiag_field):
    assert offdiag_field.lambda_margin == pytest.approx(0.7, abs=1e-12)


def test_linear_offdiag_margin(linear_field):
    assert linear_field.lambda_margin == pytest.approx(0.6, abs=1e-12)


def test_tabulated_margin_closed_form():
    samples = [(-0.5, 2.0, 1.0, 1.0), (0.5, 2.0, 1.0, 1.0)]
    field = cs.make_coefficients(
        cs.CoefficientFamily(cs.FamilyKind.TABULATED, samples=tuple(samples)))
    assert field.lambda_margin == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-12)


def test_nonelliptic_rejected():
    with pytest.raises(ConfigurationError):
        family(cs.FamilyKind.CONSTANT_OFFDIAG, 1.0)


def test_symmetry_S(identity_field, offdiag_field, linear_field):
    assert cs.satisfies_symmetry_S(identity_field)
    assert cs.satisfies_symmetry_S(offdiag_field)
    assert not cs.satisfies_symmetry_S(linear_field)


def test_reflect_basics(identity_field, offdiag_field):
    refl = cs.reflect_axis(identity_field)
    x2 = np.linspace(-0.5, 0.5, 33)
    for a, b in zip(refl.entries(x2), identity_field.entries(x2)):
        assert np.allclose(a, b)
    rc = cs.reflect_axis(offdiag_field)
    assert np.allclose(rc.a12(x2), -0.3)
    assert rc.lambda_margin == offdiag_field.lambda_margin


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(-0.6, 0.6))
def test_reflect_involution_and_margin(c_const, c_lin):
    a12 = lambda x2: c_const + c_lin * np.asarray(x2)
    try:
        field = cs.CoefficientField(
            lambda x2: np.ones_like(np.asarray(x2, dtype=float)), a12,
            lambda x2: np.ones_like(np.asarray(x2, dtype=float)))
    except ConfigurationError:
        return  # not elliptic; nothing to check
    twice = cs.reflect_axis(cs.reflect_axis(field))
    x2 = np.linspace(-0.5, 0.5, 65)
    assert np.array_equal(twice.a12(x2), field.a12(x2))
    assert cs.reflect_axis(field).lambda_margin == field.lambda_margin


def test_grad_aligned_needs_cross(identity_field):
    with pytest.raises(ConfigurationError):
        cs.make_coefficients(cs.CoefficientFamily(cs.FamilyKind.GRAD_ALIGNED, 0.1))
    cross = cs.cross_section_ground_state(16, identity_field, 2)
    field = cs.make_coefficients(
        cs.CoefficientFamily(cs.FamilyKind.GRAD_ALIGNED, 0.1), cross=cross)
    assert field.lambda_margin > 0
    # gap integrand of the aligned family is pointwise nonnegative
    mids = cross.cell_midpoints
    vals = field.a12(mids) * cross.w_slope
    assert np.all(vals >= -1e-14)


def test_tabulated_csv_roundtrip(tmp_path):
    path = tmp_path / "coeffs.csv"
    x = np.linspace(-0.5, 0.5, 21)
    rows = ["x2,a11,a12,a22"]
    rows += [f"{xi},{1.5},{0.2 * xi},{1.0}" for xi in x]
    path.write_text("\n".join(rows) + "\n")
    field = cs.load_tabulated_csv(path)
    probe = np.linspace(-0.5, 0.5, 101)
    assert np.allclose(field.a11(probe), 1.5)
    assert np.allclose(field.a12(probe), 0.2 * probe, atol=1e-12)


def test_tabulated_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,a,b,c\n-0.5,1,0,1\n0.5,1,0,1\n")
    with pytest.raises(ConfigurationError):
        cs.load_tabulated_csv(path)


def test_tabulated_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigurationError, match="empty.csv"):
        cs.load_tabulated_csv(path)


@pytest.mark.parametrize("samples, error", [
    (((-0.5, 1, 0, 1), (0.5, 1, 0, 1), (0.5, 1, 0, 1)), ConfigurationError),
    (((-0.5, 1, 0), (0.5, 1, 0)), DimensionMismatchError),
], ids=["x2_not_increasing", "three_columns"])
def test_tabulated_samples_validated(samples, error):
    with pytest.raises(error):
        cs.make_coefficients(
            cs.CoefficientFamily(cs.FamilyKind.TABULATED, samples=samples))


def test_tabulated_partial_cover_rejected():
    samples = ((-0.25, 1, 0, 1), (0.5, 1, 0, 1))
    with pytest.raises(ConfigurationError):
        cs.make_coefficients(
            cs.CoefficientFamily(cs.FamilyKind.TABULATED, samples=samples))
