"""Quasi-basis expansions: reconstructing <f, g> from the two families.

Neither family is a basis (the psi_n are not even square-integrable),
but for compactly supported smooth f, g the partial sums

    S_N = sum_{n <= N} <f, phi_n> <psi_n, g>

converge to <f, g>, in either ordering.  The mechanism is a change of
variables that maps every pairing onto harmonic-oscillator coefficients;
the transform identities below are the computable core of that proof.
They need no special flavor: rho = c u comes from the model's own
recursion lead, so example1 given as raw expressions, or gauge-transformed
(beta_a - alpha_a w', beta_b + alpha_b w', w = x^2/10), obeys them too.
"""

import numpy as np

import pseudobosons as pb
from pseudobosons.quad import (
    integrate_line,
    oscillator_en,
    state_overlaps,
    transform_identity_factors,
    transform_pm,
    transform_support,
)

f = pb.TestFunction(center=0.0, width=1.2)
g = pb.TestFunction(center=0.3, width=1.0)

models = {name: pb.build_builtin(name) for name in ("example1", "example2")}
models["raw example1"] = pb.from_expressions(
    "1/(1+x^2)", "x + x^3/3", "1/(1+x^2)", "-2*x/(1+x^2)^2")
models["gauged example1"] = pb.from_expressions(
    "1/(1+x^2)", "x + x^3/3 - x/(5*(1+x^2))", "1/(1+x^2)",
    "-2*x/(1+x^2)^2 + x/(5*(1+x^2))")

print("== partial-sum convergence |S_N - <f,g>| ==")
for name in ("example1", "example2"):
    m = models[name]
    for ordering in ("phi_psi", "psi_phi"):
        r = pb.quasi_basis_sum(m, f, g, 40, ordering)
        devs = np.abs(r.partial_sums - r.reference)
        trace = " ".join(f"N={k}:{devs[k]:.1e}" for k in (5, 10, 20, 40))
        print(f"  {name}/{ordering}: {trace}")

print()
print("== transform identities onto the oscillator basis ==")
for name, m in models.items():
    k_phi, k_psi, c = transform_identity_factors(m)
    lo, hi = transform_support(m, f)
    direct = state_overlaps(m, f, "phi", 5, state_in_bra=False)
    worst = 0.0
    for n in range(6):
        osc = integrate_line(
            lambda s, _n=n: np.conj(transform_pm(m, f, "plus", s))
            * oscillator_en(_n, s), lo, hi).value
        worst = max(worst, abs(direct[n] - k_phi * c ** (-0.5 * n) * osc))
    print(f"  {name}: <f, phi_n> vs K c^(-n/2) <f_plus, e_n>: {worst:.2e}")

print()
print("== the paired transform collapses to the plain pairing ==")
for name, m in models.items():
    r = pb.quasi_basis_sum(m, f, g, 5, "phi_psi")
    print(f"  {name}: <f_plus, g_minus> = {r.transform_pair_value.real:+.10f}"
          f"  expected {r.transform_pair_expected.real:+.10f}")
