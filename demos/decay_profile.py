# Slab-by-slab decay of the first mixed eigenfunction.
#
# In the gap regime the eigenfunction lives in boundary layers at the
# cylinder ends; its per-slab energies fall off geometrically toward the
# middle.  The fitted ratio alpha and the tiny interior mass quantify this.

import numpy as np

import cylspectra as cs
from cylspectra import asymptotics as asy

RES = (32, 4)
ELL = 10
family = cs.make_coefficients(
    cs.CoefficientFamily(cs.FamilyKind.LINEAR_OFFDIAG, 0.8))

mesh = cs.build_mesh(cs.DomainSpec(
    cs.Shape.FULL_CYLINDER, ELL, cs.BC.MIXED, RES[1], RES[0]))
result = cs.linear_spectrum(mesh, family, 1)[0]
profile = asy.orient_profile(
    cs.slab_integrals(mesh, family, result.field, 2.0))

print(f"lambda_mixed = {result.lam:.8f}")
print(f"{'slab':>4} {'grad energy':>12} {'p mass':>10}")
for i in range(len(profile)):
    bar = "#" * max(1, int(40 * profile.p_mass[i] / profile.p_mass.max()))
    print(f"{i:4d} {profile.grad_energy[i]:12.3e} "
          f"{profile.p_mass[i]:10.3e}  {bar}")

fit = asy.fit_decay(profile, asy.default_window(ELL))
print(f"\nfitted decay ratio alpha = {fit.alpha_hat:.4f} "
      f"(r^2 = {fit.r_squared:.5f}, window {fit.window})")
interior = float(profile.p_mass[ELL - 2:ELL + 2].sum())
print(f"p-mass of the central slab block: {interior:.2e}")

# identity coefficients give a flat profile and are flagged as no-decay
ident = cs.make_coefficients(cs.CoefficientFamily(cs.FamilyKind.IDENTITY))
r0 = cs.linear_spectrum(mesh, ident, 1)[0]
flat = cs.slab_integrals(mesh, ident, r0.field, 2.0)
flat_fit = asy.fit_decay(asy.orient_profile(flat), asy.default_window(ELL))
print(f"\nidentity family: alpha = {flat_fit.alpha_hat:.6f}, "
      f"no_decay flag = {flat_fit.no_decay}")
