"""The non-self-adjoint Hamiltonians H = b a and H^dag = a^dag b^dag.

Their second-order coefficients are assembled by jet arithmetic from the
model's coefficient functions and cross-checked against the explicitly
printed operators for the three reference models; phi_n / psi_n are
eigenfunctions with integer eigenvalues, and the partner product a b
shifts the tower up by one.
"""

import numpy as np

import pseudobosons as pb
from pseudobosons import hamiltonian_coeffs

print("== derived coefficients vs printed operators ==")
for name in ("constant_k", "example1", "example2"):
    dev = pb.builtin_hamiltonian_crosscheck(name, k=1.0)
    print(f"  {name:<12} max coefficient deviation {dev:.2e}")

print()
print("== sample coefficients of H for the rational model ==")
m1 = pb.build_builtin("example1")
xs = np.array([-1.0, 0.0, 1.0])
c2, c1, c0 = hamiltonian_coeffs(m1, "H").values(xs)
for x, a, b, c in zip(xs, c2, c1, c0):
    print(f"  x={x:+.1f}: k2={a.real:+.6f} k1={b.real:+.6f} k0={c.real:+.6f}")

print()
print("== eigenvalue residuals sup|(H - n) phi_n| / sup|phi_n| ==")
m2 = pb.build_builtin("example2")
levels = (0, 5, 12)  # a sequence of levels: one family evaluation each
for name, m, grid in (("example1", m1, np.linspace(-4, 4, 161)),
                      ("example2", m2, np.linspace(-3, 3, 161))):
    r_h = pb.eigen_residual(m, "H", levels, grid)
    r_d = pb.eigen_residual(m, "H_dag", levels, grid)
    for n, rh, rd in zip(levels, r_h, r_d):
        print(f"  {name} n={n:<2}  H: {rh:.2e}   H^dag: {rd:.2e}")

print()
print("== partner product (a b) phi_n = (n + 1) phi_n ==")
levels = (0, 3, 7)
for n, r in zip(levels, pb.hsusy_shift_check(m2, levels,
                                             np.linspace(-3, 3, 121))):
    print(f"  example2 n={n}: residual {r:.2e}")
