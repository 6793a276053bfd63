"""Generate the two eigenfunction families and verify biorthonormality.

phi_n = pi_n phi_0 / sqrt(n!) and psi_n = sigma_n psi_0 / sqrt(n!), with
pi_n / sigma_n given both by a first-order recursion and by Hermite
closed forms.  The two code paths are independent and must agree; the
compatibility form <psi_m, phi_n> must be the identity matrix, with the
normalization product each model derives from its vacuum pairing.
"""

import math

import numpy as np

import pseudobosons as pb
from pseudobosons import StateFamily, pi_sigma_closed, pi_sigma_recursive

m1 = pb.build_builtin("example1")
m2 = pb.build_builtin("example2")

print("== recursion vs closed form (independent evaluators) ==")
for name, m in (("example1", m1), ("example2", m2)):
    worst = 0.0
    for side in ("pi", "sigma"):
        for n in (3, 9, 15):
            for x in np.linspace(-3, 3, 31):
                rec = pi_sigma_recursive(m, side, n, float(x), 0).value
                clo = pi_sigma_closed(m, side, n, float(x), 0).value
                worst = max(worst, abs(rec - clo) / (1 + abs(clo)))
    print(f"  {name}: max relative deviation {worst:.2e}")

print()
print("== sinh model proportionality sigma_n = 2^n pi_n ==")
for n in (1, 4, 8):
    x = 0.9
    r = (pi_sigma_closed(m2, "sigma", n, x, 0).value
         / pi_sigma_closed(m2, "pi", n, x, 0).value)
    print(f"  n={n}: sigma_n/pi_n = {r.real:.6f} (expect {2**n})")

print()
print("== normalization products from the vacuum pairing ==")
for name, m, closed in (
    ("example1", m1, 1 / math.sqrt(2 * math.pi)),
    ("example2", m2, math.e / (2 * math.sqrt(math.pi))),
):
    print(f"  {name}: {m.norm_product.real:.12f}  "
          f"(closed form {closed:.12f})")

print()
print("== biorthonormality matrix <psi_m, phi_n>, N = 8 ==")
for name, m in (("example1", m1), ("example2", m2)):
    G, dev = pb.biorthonormality_matrix(m, 8)
    print(f"  {name}: max |G - I| = {dev:.2e}")

print()
print("== ladder relations at level n = 4 ==")
phi = StateFamily(m2, "phi", max_n=6)
psi = StateFamily(m2, "psi", max_n=6)
res = pb.verify_ladder(phi, psi, 4, np.linspace(-3, 3, 81))
print(f"  b phi_4 -> sqrt(5) phi_5 : {res.raise_phi:.2e}")
print(f"  a phi_4 -> sqrt(4) phi_3 : {res.lower_phi:.2e}")
print(f"  a+ psi_4 -> sqrt(5) psi_5: {res.raise_psi:.2e}")
print(f"  b+ psi_4 -> sqrt(4) psi_3: {res.lower_psi:.2e}")
