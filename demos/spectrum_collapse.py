# Collapse of the higher eigenvalues (p = 2) and the beta2 bound (p = 3).
#
# On a symmetric coefficient family every fixed-index eigenvalue of the
# mixed problem converges to the same limit as the first one: the modes
# become combinations of one-end boundary layers whose interaction dies
# with the length.  For p = 3 the same mechanism caps the second min-max
# value by the worse of the two half-cylinder eigenvalues.

import cylspectra as cs
from cylspectra import asymptotics as asy

RES = (32, 4)
family = cs.make_coefficients(
    cs.CoefficientFamily(cs.FamilyKind.CONSTANT_OFFDIAG, 0.3))

print("p = 2 spectrum of the mixed problem (first three modes)")
print(f"{'ell':>4} {'lam1':>11} {'lam2':>11} {'lam3':>11} "
      f"{'lam2-lam1':>10} {'lam3-lam1':>10}")
for ell in (2, 4, 8):
    mesh = cs.build_mesh(cs.DomainSpec(
        cs.Shape.FULL_CYLINDER, ell, cs.BC.MIXED, RES[1], RES[0]))
    lams = [r.lam for r in cs.linear_spectrum(mesh, family, 3)]
    print(f"{ell:4d} {lams[0]:11.6f} {lams[1]:11.6f} {lams[2]:11.6f} "
          f"{lams[1] - lams[0]:10.6f} {lams[2] - lams[0]:10.6f}")

print("\np = 3: second min-max value bounded by half-cylinder solves")
print(f"{'ell':>4} {'lam_mixed':>12} {'beta2 upper':>12} {'difference':>11}")
for ell in (2, 4, 8):
    mesh = cs.build_mesh(cs.DomainSpec(
        cs.Shape.FULL_CYLINDER, ell, cs.BC.MIXED, RES[1], RES[0]))
    lam1 = cs.minimize_rayleigh(mesh, family, 3).lam
    beta2 = asy.beta2_upper_bound(ell, RES, family, 3).value
    print(f"{ell:4d} {lam1:12.6f} {beta2:12.6f} {beta2 - lam1:11.6f}")
