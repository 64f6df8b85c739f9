# The eigenvalue gap on growing cylinders.
#
# With a circulating coefficient matrix (constant off-diagonal entry) the
# first mixed eigenvalue of the cylinder stays strictly below the
# cross-section level as the cylinder grows; with the identity matrix the
# two coincide for every length.  The half-cylinder values chase the same
# limit from above.

import cylspectra as cs
from cylspectra import asymptotics as asy

RES = (32, 4)  # (nx2, cells_per_unit); modest so the demo runs in seconds
ELLS = [2, 4, 8]

for label, family in [
        ("identity", cs.CoefficientFamily(cs.FamilyKind.IDENTITY)),
        ("constant_offdiag(0.3)",
         cs.CoefficientFamily(cs.FamilyKind.CONSTANT_OFFDIAG, 0.3))]:
    coeffs = cs.make_coefficients(family)
    rows = asy.sweep_lambda(ELLS, coeffs, 2.0, RES)
    print(f"== {label}, p = 2, mu1 = {rows[0].mu1:.6f}")
    print(f"{'ell':>4} {'lam_mixed':>11} {'lam_dirichlet':>13} "
          f"{'lam_half':>11} {'gap':>9} {'d_plus':>7}")
    for row in rows:
        print(f"{row.ell:4.0f} {row.lambda_mixed:11.6f} "
              f"{row.lambda_dirichlet:13.6f} {row.lambda_half_plus:11.6f} "
              f"{row.gap:9.6f} {row.d_plus:7.4f}")
    print()

# the gap limit equals the extrapolated half-cylinder value
coeffs = cs.make_coefficients(
    cs.CoefficientFamily(cs.FamilyKind.CONSTANT_OFFDIAG, 0.3))
est = asy.nu_infinity_estimate(cs.Side.PLUS, coeffs, 2.0, [4, 8, 12], RES)
print("half-cylinder ladder:", [f"{v:.6f}" for _, v in est.ladder])
print(f"extrapolated semi-infinite value: {est.extrapolated:.6f} "
      f"(monotone: {est.monotone_ok})")
