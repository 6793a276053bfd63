"""Custom models from coefficient expressions.

The expression grammar covers rational arithmetic, integer powers,
exp/sinh/cosh/tanh/sqrt, the imaginary unit, and antideriv(e) for
antiderivatives vanishing at 0, evaluated by one vector-valued quadrature
over the segments between the requested points and 0; a value depends
only on the points requested, not on earlier calls.  An equal-alpha model
needs only alpha(x); the vacua and the closed forms are derived from it,
and so is rho = c u, the scaled lead of the pi recursion, for this model
and for any other whose rho is real.
"""

import numpy as np

import pseudobosons as pb

print("== equal-alpha model from alpha(x) = 1/(1 + x^2), all numeric ==")
m = pb.proportional_model("1/(1+x^2)", name="rational")
rep = pb.check_pb_conditions(m, np.linspace(-3, 3, 101))
print(f"  conditions: {rep.verdict} (max residual {rep.max_abs:.2e})")
print(f"  rho(1) = c u(1), u = antideriv(1/alpha) by quadrature: "
      f"{pb.rho_eval(m, 1.0):.15f}"
      f"  (closed form 4/3 = {4/3:.15f})")
print(f"  rho^-1(4/3) by safeguarded root finding: "
      f"{pb.rho_invert(m, 4/3):.15f}")
value = pb.fix_normalization(m)
print(f"  normalization product: {value.real:.12f} "
      f"(equal-alpha closed form 1/sqrt(2 pi) = {1/np.sqrt(2*np.pi):.12f})")
G, dev = pb.biorthonormality_matrix(m, 5)
print(f"  biorthonormality N=5: max |G - I| = {dev:.2e}")

print()
print("== proportional model alpha_a = 3 alpha_b, alpha_b = 1/(2 + x^2) ==")
mp = pb.proportional_model("1/(2 + x^2)", ratio=3.0, name="ratio3")
rep = pb.check_pb_conditions(mp, np.linspace(-3, 3, 61))
G, dev = pb.biorthonormality_matrix(mp, 4)
print(f"  conditions: {rep.verdict}, biorthonormality dev {dev:.2e}")

print()
print("== fully general model from four raw expressions ==")
mg = pb.from_expressions(
    alpha_a="1/cosh(x)",
    beta_a="2*sinh(x)",
    alpha_b="1/(2*cosh(x))",
    beta_b="-sinh(x)/(2*cosh(x)^2)",
    name="raw-sinh",
)
rep = pb.check_pb_conditions(mg, np.linspace(-2.5, 2.5, 81))
print(f"  conditions: {rep.verdict}")
G, dev = pb.biorthonormality_matrix(mg, 3)
print(f"  biorthonormality via generic vacua + Hermite closed form: "
      f"dev {dev:.2e}")

print()
print("== parse errors carry positions ==")
try:
    pb.parse_expr("x + ")
except pb.ExpressionSyntaxError as exc:
    print(f"  {exc}")
try:
    pb.parse_expr("foo(x)")
except pb.ExpressionSyntaxError as exc:
    print(f"  {exc}")
