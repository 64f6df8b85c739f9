# One-sided gap and end concentration.
#
# For a12(x2) = 0.8 x2 the sign test  integral |a22 W'^2|^{(p-2)/2}(a12 W') W
# is negative: the minus-side half-cylinder problem gaps below mu1 while the
# plus side does not.  The full-cylinder eigenfunction responds by piling all
# of its mass onto the end the minus problem models (the right end), and the
# translated end profile converges to the half-cylinder minimizer.

import cylspectra as cs
from cylspectra import asymptotics as asy

RES = (32, 4)
family = cs.make_coefficients(
    cs.CoefficientFamily(cs.FamilyKind.LINEAR_OFFDIAG, 0.8))
cross = cs.cross_section_ground_state(32, family, 2)

gi = asy.gap_integral_I2(cross, family)
print(f"gap integral: {gi.value:+.6f}  (a12 W' vanishes: {gi.a12_gradw_vanishes})")
print(f"mu1 = {cross.mu1:.6f}\n")

for side in (cs.Side.PLUS, cs.Side.MINUS):
    est = asy.nu_infinity_estimate(side, family, 2, [4, 8, 12], RES)
    print(f"side {side.value:>5}: ladder "
          + " -> ".join(f"{v:.5f}" for _, v in est.ladder)
          + f", extrapolated {est.extrapolated:.5f}")

print("\nmass split of the mixed eigenfunction (d_plus = left-end share):")
half = cs.half_cylinder_eigen(cs.Side.MINUS, 8, RES, family, 2)
for ell in (2, 4, 8):
    mesh = cs.build_mesh(cs.DomainSpec(
        cs.Shape.FULL_CYLINDER, ell, cs.BC.MIXED, RES[1], RES[0]))
    r = cs.linear_spectrum(mesh, family, 1)[0]
    split = asy.end_mass_split(r.field, mesh, family, 2)
    dist = asy.translate_distance(r.field, half.field, cs.Side.MINUS,
                                  min(ell, 4), 2)
    print(f"  ell = {ell:2d}: d_plus = {split.d_plus:.6f}, "
          f"d_minus = {split.d_minus:.6f}, "
          f"L2 distance of right-end profile to half minimizer: {dist:.2e}")

print("\nreflecting the coefficients (a12 -> -a12) swaps the two sides:")
refl = cs.reflect_axis(family)
lam_m = cs.half_cylinder_eigen(cs.Side.MINUS, 8, RES, family, 2).lam
lam_p = cs.half_cylinder_eigen(cs.Side.PLUS, 8, RES, refl, 2).lam
print(f"  lam_minus(F) = {lam_m:.10f}")
print(f"  lam_plus(reflected F) = {lam_p:.10f}")
