"""Non-self-adjoint Hamiltonians H = b a and H^dag = a^dag b^dag.

Both factorizations are second-order differential operators

    H      = -k2(x) d^2/dx^2 + k1(x) d/dx + k0(x)
    H^dag  = -q2(x) d^2/dx^2 + q1(x) d/dx + q0(x)

with coefficients assembled by jet arithmetic from order-1 jets of the
model's coefficient functions (no symbolic expansion, which would swell
badly for rational alphas).  H takes the pairs (p, q) = (a, b) in

    k2 = alpha_a alpha_b
    k1 = alpha_p beta_q - alpha_q beta_p - 2 alpha_p alpha_q'
    k0 = beta_a beta_b - (beta_p alpha_q)'

and H^dag is the same formula with the pairs swapped, (p, q) = (b, a),
then conjugated:

    q2 = conj(alpha_a alpha_b)
    q1 = conj(alpha_b beta_a - alpha_a beta_b - 2 alpha_b alpha_a')
    q0 = conj(beta_a beta_b - (beta_b alpha_a)')

k1 and q1 are the printed forms: composing the ladder factors of
:data:`model.LADDER_OPS` instead adds alpha_a alpha_b' - alpha_a' alpha_b,
the residual of the first coefficient condition, to k1.

phi_n are eigenfunctions of H and psi_n of H^dag, with eigenvalue n; the
partner product ab acts on phi_n with eigenvalue n + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jets import Jet
from .model import (ModelError, PBModel, _coefficients, apply_ladder,
                    build_builtin)
from .states import GridJets, StateFamily, _relative_sup

__all__ = [
    "HamiltonianCoeffs",
    "hamiltonian_coeffs",
    "apply_hamiltonian",
    "eigen_residual",
    "hsusy_shift_check",
    "printed_hamiltonian_crosscheck",
    "builtin_hamiltonian_crosscheck",
    "PRINTED_HAMILTONIANS",
]

JetFn = Callable[[float, int], Jet]


@dataclass
class HamiltonianCoeffs:
    """The coefficients (c2, c1, c0) of H or H^dag."""

    model: PBModel
    side: str  # 'H' | 'H_dag'

    def __post_init__(self):
        if self.side not in ("H", "H_dag"):
            raise ModelError(f"side must be 'H' or 'H_dag', not {self.side!r}")

    def values(self, xs, *, jets=None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c2, c1, c0) on the points xs; ``jets``, the prebuilt
        :class:`GridJets` of the model on xs, supplies the order-1
        coefficient jets instead of evaluating them."""
        xs = np.asarray(xs, dtype=float)
        coeff = _coefficients(self.model, xs, jets)
        aa, ba, ab, bb = (coeff(name, 1) for name in ("alpha_a", "beta_a",
                                                      "alpha_b", "beta_b"))
        # the pairs (p, q) of the formula: (a, b) for H, (b, a) for H^dag
        ap, bp, aq, bq = ((aa, ba, ab, bb) if self.side == "H"
                          else (ab, bb, aa, ba))
        # the symmetric products keep the operand order (a, b) on both
        # sides: numpy's complex product is not bitwise commutative
        coeffs = (aa.value * ab.value,
                  ap.value * bq.value - aq.value * bp.value
                  - 2.0 * ap.value * aq.derivative(1),
                  ba.value * bb.value - (bp * aq).derivative(1))
        return tuple(c if self.side == "H" else np.conj(c) for c in coeffs)


hamiltonian_coeffs = HamiltonianCoeffs


def _hamiltonian_on(coeffs, fj: Jet):
    """-c2 f'' + c1 f' + c0 f from the coefficients and an order-2 jet."""
    c2, c1, c0 = coeffs
    return -c2 * fj.derivative(2) + c1 * fj.derivative(1) + c0 * fj.value


def apply_hamiltonian(m: PBModel, side: str, f: JetFn, x) -> complex:
    """-c2 f'' + c1 f' + c0 f at x (a point or an array); agrees with
    composing the two ladder factors (b after a, or a^dag after b^dag)
    when the first coefficient condition holds."""
    return _hamiltonian_on(HamiltonianCoeffs(m, side).values(x), f(x, 2))


def _state_jets(m: PBModel, side: str, ns, grid, jets) -> list:
    """The order-2 jets of levels ``ns`` of ``side`` on the grid: one
    family call, or truncations of the prebuilt ``jets``."""
    if jets is None:
        return StateFamily(m, side, max_n=max(ns, default=0)).jet(ns, grid, 2)
    jets.check(m, grid)
    return jets.states(side, ns, 2)


def eigen_residual(m: PBModel, side: str, n, grid, *,
                   jets: GridJets | None = None):
    """Relative sup-norm residual of the eigenvalue equation at level n:
    sup |(H - n) phi_n| / sup |phi_n| (psi_n and H^dag on the dagger
    side), over the effective support of the state.

    ``n`` may be a sequence of levels: the family is then evaluated once
    for all of them, the coefficients of H are read once, and the list of
    their residuals is returned, each equal to the single-level one.
    ``jets``, the :class:`GridJets` of m on this grid, replaces both
    evaluations with truncations of its own."""
    grid = np.asarray(grid, dtype=float)
    ns = [int(k) for k in np.ravel(n)]
    fjs = _state_jets(m, "phi" if side == "H" else "psi", ns, grid, jets)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = HamiltonianCoeffs(m, side).values(grid, jets=jets)
        out = [_relative_sup(_hamiltonian_on(coeffs, fj) - k * fj.value,
                             fj.value, k) for k, fj in zip(ns, fjs)]
    return out[0] if np.ndim(n) == 0 else out


def hsusy_shift_check(m: PBModel, n, grid, *,
                      jets: GridJets | None = None):
    """Relative sup residual of (a b) phi_n = (n + 1) phi_n, the partner
    product whose spectrum is shifted up by one unit.

    ``n`` may be a sequence of levels, evaluated in one family call; the
    list of their residuals is returned, each equal to the single-level
    one.  ``jets``, the :class:`GridJets` of m on this grid, replaces the
    evaluations of the states and coefficients with truncations."""
    grid = np.asarray(grid, dtype=float)
    ns = [int(k) for k in np.ravel(n)]
    # level k once, as the operand and as the reference; each operator is
    # one call for every level
    heres = _state_jets(m, "phi", ns, grid, jets)
    with np.errstate(over="ignore", invalid="ignore"):
        b_heres = apply_ladder(m, "b", [lambda *_, h=h: h for h in heres],
                               grid, 1, jets=jets)
        vals = apply_ladder(m, "a", [lambda *_, j=j: j for j in b_heres],
                            grid, 0, jets=jets)
        out = [_relative_sup(val.value - (k + 1) * here.value, here.value, k)
               for k, here, val in zip(ns, heres, vals)]
    return out[0] if np.ndim(n) == 0 else out


# ----------------------------------------------------------------------
# Cross-checks against the explicitly printed operator coefficients
# ----------------------------------------------------------------------

def _printed_constant_k(k: float):
    def h(xs):
        one = np.ones_like(xs)
        return one, k - xs, k * xs - 1.0

    def h_dag(xs):
        one = np.ones_like(xs)
        return one, xs - k, k * xs

    return h, h_dag


def _printed_example1():
    def h(xs):
        d = 1.0 + xs * xs
        k2 = 1.0 / d ** 2
        k1 = -xs * (-3.0 + 7.0 * xs**2 + 5.0 * xs**4 + xs**6) / (3.0 * d**3)
        k0 = np.full_like(xs, -1.0)
        return k2, k1, k0

    def h_dag(xs):
        d = 1.0 + xs * xs
        q2 = 1.0 / d ** 2
        q1 = xs * (21.0 + 7.0 * xs**2 + 5.0 * xs**4 + xs**6) / (3.0 * d**3)
        q0 = -2.0 * (-3.0 + 18.0 * xs**2 + 7.0 * xs**4 + 5.0 * xs**6
                     + xs**8) / (3.0 * d**4)
        return q2, q1, q0

    return h, h_dag


def _printed_example2():
    def h(xs):
        ch = np.cosh(xs)
        sech2 = 1.0 / ch**2
        k2 = 0.5 * sech2
        k1 = 0.5 * (sech2 - 2.0) * np.tanh(xs)
        k0 = np.full_like(xs, -1.0)
        return k2, k1, k0

    def h_dag(xs):
        ch = np.cosh(xs)
        sech2 = 1.0 / ch**2
        q2 = 0.5 * sech2
        q1 = (1.5 * sech2 + 1.0) * np.tanh(xs)
        q0 = -(1.0 / (8.0 * ch**4)) * (-9.0 + 4.0 * np.cosh(2.0 * xs)
                                       + np.cosh(4.0 * xs))
        return q2, q1, q0

    return h, h_dag


PRINTED_HAMILTONIANS = ("example1", "example2", "constant_k")


def _printed_forms(name: str, k: float):
    if name == "constant_k":
        return _printed_constant_k(k)
    if name == "example1":
        return _printed_example1()
    if name == "example2":
        return _printed_example2()
    raise ModelError(
        f"no printed Hamiltonian for {name!r}; known: {PRINTED_HAMILTONIANS}"
    )


def printed_hamiltonian_crosscheck(m: PBModel, name: str, *, k: float = 1.0,
                                   grid=None,
                                   jets: GridJets | None = None) -> float:
    """Maximum pointwise deviation, over all six coefficients of H and
    H^dag, between the printed operators ``name`` (with parameter ``k`` for
    constant_k) and the ones derived from the coefficients of model m;
    ``jets`` is passed on to :meth:`HamiltonianCoeffs.values`."""
    printed_h, printed_hdag = _printed_forms(name, k)
    if grid is None:
        grid = np.linspace(-3.0, 3.0, 241)
    grid = np.asarray(grid, dtype=float)
    worst = 0.0
    for side, printed in (("H", printed_h), ("H_dag", printed_hdag)):
        derived = HamiltonianCoeffs(m, side).values(grid, jets=jets)
        for got, want in zip(derived, printed(grid)):
            worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def builtin_hamiltonian_crosscheck(name: str, *, k: float = 1.0,
                                   grid=None) -> float:
    """:func:`printed_hamiltonian_crosscheck` on the builtin model that
    the printed operators ``name`` describe."""
    _printed_forms(name, k)  # reject unknown names before building
    if name == "constant_k":
        m = build_builtin("constant_alpha", alpha_a=1.0, alpha_b=1.0, k=k)
    else:
        m = build_builtin(name)
    return printed_hamiltonian_crosscheck(m, name, k=k, grid=grid)
