"""Weak bi-coherent states: distributional coherent states built on the
two families.

Phi(z) and Psi(z) act on test functions through everywhere-convergent
coherent series.  They satisfy the lowering eigen-relations weakly and
reproduce <f, g> when integrated over the complex plane against the flat
measure dz / pi.
"""

import math

import numpy as np

import pseudobosons as pb
from pseudobosons import GrowthProfile, WeakStateQuery
from pseudobosons.bicoherent import pairing_series

print("== general growth-profile utilities ==")
prof = GrowthProfile.pseudo_bosonic()
print(f"  N(|z|=1) for alpha_n = sqrt(n): {pb.coherent_norm(1.0, prof):.12f}"
      f"  (= e^-0.5 = {math.exp(-0.5):.12f})")
print(f"  convergence radius: {pb.convergence_radius(prof)}")
devs = pb.moment_check(lambda r: r * np.exp(-r * r) / math.pi, prof, 8)
print(f"  radial moments vs k!/(2 pi), k <= 8: max |dev| = "
      f"{np.max(np.abs(devs)):.2e}")

g = pb.TestFunction(center=0.0, width=1.0)

print()
print("== weak pairings over a z-grid (sinh model) ==")
m2 = pb.build_builtin("example2")
series = pairing_series(m2, [g], "phi")[0]  # the ket series <g, phi_n>
for z in (0.0, 1.0, 1 + 1j, 2j):
    v = series.bra(complex(z))
    print(f"  <Phi({z}), g> = {v:+.10f}")

print()
print("== weak eigen-relations <a+g, Phi(z)> = z <g, Phi(z)> ==")
for name in ("example1", "example2"):
    m = pb.build_builtin(name)
    for z in (0.7, 1 + 1j):
        res = pb.eigen_relation_residual(m, z, g)
        print(f"  {name} z={z}: rel_phi={res.relative_phi:.2e} "
              f"rel_psi={res.relative_psi:.2e}")

print()
print("== resolution of the identity, (1/pi) integral over |z| <= R ==")
for name in ("example1", "example2"):
    m = pb.build_builtin(name)
    r = pb.resolution_of_identity(m, g, g, R=6.0)
    print(f"  {name}: <f,f> = {r.reference.real:.8f}")
    for radius, vpp, vpf in r.trace:
        print(f"    R={radius:.0f}: dev(phi,psi)={abs(vpp - r.reference):.2e}"
              f" dev(psi,phi)={abs(vpf - r.reference):.2e}")

print()
print("== bosonic sanity: everything collapses to classical formulas ==")
mb = pb.build_builtin("bosonic")
res = pb.eigen_relation_residual(mb, 2.0, g)
print(f"  coherent eigen-relation at z=2: {res.relative_phi:.2e}")
v = pb.weak_pairing(WeakStateQuery(z=1.5, side="Phi", model=mb), g)
print(f"  <Phi(1.5), g> = {v:+.12f}")
