"""Biorthogonal eigenfunction families.

The lowering vacuum phi_0 (killed by a) and the raising-side vacuum psi_0
(killed by b^dag) generate two families

    phi_n = pi_n phi_0 / sqrt(n!),     psi_n = sigma_n psi_0 / sqrt(n!),

where the polynomial-like factors satisfy first-order recursions driven
by theta = alpha_a beta_b + alpha_b beta_a:

    pi_n    = (theta/alpha_a - alpha_b') pi_{n-1}    - alpha_b pi_{n-1}'
    sigma_n = conj(theta/alpha_b - alpha_a') sigma_{n-1}
              - conj(alpha_a) sigma_{n-1}'

with pi_0 = sigma_0 = 1.  For constant-alpha and proportional-alpha
models both sequences collapse to Hermite polynomials of a rescaled
argument; the recursive and closed-form evaluators are kept as
independent code paths and their agreement is part of the test suite.

Note the sigma_n sequence multiplies psi_0 (not phi_0): the recursion is
exactly what repeated application of a^dag to psi_0 produces, which the
n = 1 case shows directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import quad
from .jets import Jet, jet_hermite, sqrt_factorial
from .model import (
    ConstantAlphaFlavor,
    ModelError,
    PBModel,
    ProportionalFlavor,
    apply_ladder,
)
from .quad import compatibility_form, hermite_value

__all__ = [
    "StateFamily",
    "LadderResiduals",
    "vacuum",
    "pi_sigma_recursive",
    "pi_sigma_closed",
    "eval_state",
    "fix_normalization",
    "verify_ladder",
    "pair_envelope",
]


def vacuum(m: PBModel, side: str, x: float, order: int) -> Jet:
    """Jet of the unnormalized vacuum: phi side solves a phi_0 = 0, psi
    side solves b^dag psi_0 = 0."""
    return m.vacuum_jet(side, x, order)


# ----------------------------------------------------------------------
# pi_n / sigma_n
# ----------------------------------------------------------------------

def _recursion_coefficients(m: PBModel, side: str, x: float,
                            order: int) -> tuple[Jet, Jet]:
    """Jets of the two recursion coefficients at the given order:

        pi side:    lead = theta/alpha_a - alpha_b',  damp = alpha_b
        sigma side: lead = conj(theta/alpha_b - alpha_a'),
                    damp = conj(alpha_a)

    For constant-alpha and proportional flavors these expressions are
    simplified through the flavor's defining constraints (theta = x + k,
    respectively beta_a = rho and beta_b = alpha_b') before evaluation.
    The simplification matters numerically: the raw quotient leaves
    eps-size residue in Taylor coefficients that are exactly zero, and
    the per-level derivative in the recursion amplifies such residue
    factorially by the time it reaches the value slot.
    """
    # sigma is pi with the pairs a and b swapped, then conjugated
    flavor = m.flavor
    if isinstance(flavor, ConstantAlphaFlavor):
        ax, ay, k = flavor.alpha_a, flavor.alpha_b, flavor.k
        if side == "sigma":
            ax, ay, k = ay.conjugate(), ax.conjugate(), k.conjugate()
        return (Jet.variable(x, order) + k) / ax, Jet.constant(ay, x, order)
    if isinstance(flavor, ProportionalFlavor) and m.rho is not None:
        rho = m.rho.eval_jet(x, order)
        ab = m.alpha_b.eval_jet(x, order)
        if side == "pi":
            return rho * (1.0 / flavor.ratio), ab
        return rho, ab * flavor.ratio  # real alpha: conjugation is a no-op
    x_pair, y_pair = ("a", "b") if side == "pi" else ("b", "a")
    ay = m.coefficient("alpha_" + y_pair).eval_jet(x, order + 1)
    lead = (m.theta_jet(x, order)
            / m.coefficient("alpha_" + x_pair).eval_jet(x, order) - ay.deriv())
    damp = ay.truncate(order)
    if side == "sigma":
        lead, damp = lead.conjugate(), damp.conjugate()
    return lead, damp


def pi_sigma_recursive(m: PBModel, side: str, n: int, x: float,
                       order: int) -> Jet:
    """Recursive evaluation; level k is computed at order (order + n - k),
    so one derivative order is spent per level."""
    if side not in ("pi", "sigma"):
        raise ModelError(f"side must be 'pi' or 'sigma', not {side!r}")
    if n < 0:
        raise ModelError("n must be nonnegative")
    top = order + n
    out = Jet.constant(1.0, x, top)
    if n == 0:
        return out
    lead, damp = _recursion_coefficients(m, side, x, top - 1)
    for k in range(1, n + 1):
        p = top - k
        out = (lead.truncate(p) * out.truncate(p)
               - damp.truncate(p) * out.deriv().truncate(p))
    return out


def _principal_power_sqrt(base: complex, n: int) -> complex:
    """sqrt(base**n) with the principal square root."""
    return cmath.sqrt(base ** n)


def _closed_form(m: PBModel, side: str):
    """Parameters of the Hermite closed forms pi_n / sigma_n =
    pref(n) H_n(scale * t) as (pref, k, scale), with t = x + k for
    constant-alpha models and t = rho(x) (k None) for proportional ones."""
    flavor = m.flavor
    if not _has_closed_form(m):
        raise ModelError(
            f"no closed form for flavor {flavor.kind!r}; use pi_sigma_recursive"
        )
    if side not in ("pi", "sigma"):
        raise ModelError(f"side must be 'pi' or 'sigma', not {side!r}")
    if isinstance(flavor, ConstantAlphaFlavor):
        aa, ab, k = flavor.alpha_a, flavor.alpha_b, flavor.k
        if side == "sigma":  # the pairs swapped, then conjugated
            aa, ab, k = ab.conjugate(), aa.conjugate(), k.conjugate()
        return (lambda n: _principal_power_sqrt(ab / (2.0 * aa), n),
                k, 1.0 / cmath.sqrt(2.0 * aa * ab))
    if m.rho is None:
        raise ModelError("proportional model lacks a rho expression")
    c = flavor.ratio
    return (lambda n: (2.0 * c) ** (-0.5 * n) if side == "pi"
            else (0.5 * c) ** (0.5 * n)), None, 1.0 / math.sqrt(2.0 * c)


def pi_sigma_closed(m: PBModel, side: str, n: int, x: float,
                    order: int) -> Jet:
    """Hermite closed forms.

    constant_alpha:   pi_n    = sqrt((alpha_b/(2 alpha_a))^n)
                                 * H_n((x+k)/sqrt(2 alpha_a alpha_b))
                      sigma_n = sqrt((conj(alpha_a)/(2 conj(alpha_b)))^n)
                                 * H_n((x+conj(k))/sqrt(2 conj(alpha_a alpha_b)))
    proportional c:   pi_n    = (2c)^(-n/2) H_n(rho(x)/sqrt(2c))
                      sigma_n = (c/2)^(+n/2) H_n(rho(x)/sqrt(2c))

    Complex square roots are principal.  Only these flavors carry
    closed forms; anything else must use the recursive evaluator.
    """
    pref, k, scale = _closed_form(m, side)
    t = m.rho.eval_jet(x, order) if k is None else Jet.variable(x, order) + k
    return jet_hermite(t * scale, n) * pref(n)


def _has_closed_form(m: PBModel) -> bool:
    return isinstance(m.flavor, (ConstantAlphaFlavor, ProportionalFlavor))


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------

@dataclass
class StateFamily:
    """Lazily evaluated phi- or psi-side family.

    The phi side carries normalization N_phi = 1; the psi side carries
    N_psi = conj(norm_product) once the model's normalization has been
    fixed, so that conj(N_psi) N_phi equals the stored product.
    """

    model: PBModel
    side: str  # 'phi' | 'psi'
    max_n: int = 20

    def __post_init__(self):
        if self.side not in ("phi", "psi"):
            raise ModelError(f"side must be 'phi' or 'psi', not {self.side!r}")

    @property
    def normalization(self) -> complex:
        if self.side == "phi":
            return 1.0 + 0.0j
        prod = self.model.norm_product
        return 1.0 + 0.0j if prod is None else complex(prod).conjugate()

    @property
    def _poly_side(self) -> str:
        return "pi" if self.side == "phi" else "sigma"

    def _check_n(self, n: int):
        if not 0 <= n <= self.max_n:
            raise ModelError(f"n = {n} outside 0..max_n = {self.max_n}")

    def jet(self, n: int, x, order: int) -> Jet:
        """Jet of the n-th state at a point or at every point of an array."""
        self._check_n(n)
        if _has_closed_form(self.model):
            poly = pi_sigma_closed(self.model, self._poly_side, n, x, order)
        else:
            poly = pi_sigma_recursive(self.model, self._poly_side, n, x, order)
        vac = vacuum(self.model, self.side, x, order)
        return poly * vac * (self.normalization / sqrt_factorial(n))

    def jet_fn(self, n: int) -> Callable[[float, int], Jet]:
        self._check_n(n)
        return lambda x, order: self.jet(n, x, order)

    def values_fn(self, n: int) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized pointwise evaluator of level n (one row of
        :meth:`values_all`)."""
        self._check_n(n)
        return lambda xs: self._levels([n], xs)[0]

    def values_all(self, xs) -> np.ndarray:
        """(max_n + 1, npts) values of every level on the points ``xs``."""
        return self._levels(range(self.max_n + 1), xs)

    def _levels(self, ns, xs) -> np.ndarray:
        """Stacked values of the levels ``ns``: one Hermite recurrence for
        all of them in the closed-form flavors, one pi/sigma recursion
        otherwise.  Level k of that recursion, run to the top level, has
        the same low-order Taylor coefficients as a recursion stopped at
        k, so each row is bitwise ``jet(n, xs, 0).value``."""
        xs = np.asarray(xs, dtype=float)
        m = self.model
        if not _has_closed_form(m):
            top = max(ns)
            poly = Jet.constant(1.0, xs, top)
            polys = [poly]
            if top:
                lead, damp = _recursion_coefficients(m, self._poly_side, xs,
                                                     top - 1)
            for p in range(top - 1, -1, -1):
                poly = (lead.truncate(p) * poly.truncate(p)
                        - damp.truncate(p) * poly.deriv().truncate(p))
                polys.append(poly)
            vac = vacuum(m, self.side, xs, 0)
            return np.stack([
                (polys[n].truncate(0) * vac
                 * (self.normalization / sqrt_factorial(n))).value
                for n in ns])
        pref, k, scale = _closed_form(m, self._poly_side)
        t = quad.rho_values(m, xs) if k is None else xs + k
        vac = m.vacuum_values(self.side, xs)
        norm = np.array([self.normalization / sqrt_factorial(n) * pref(n)
                         for n in ns])
        return (norm.reshape((-1,) + (1,) * xs.ndim)
                * hermite_value(ns, t * scale) * vac)

    def values(self, n: int, xs) -> np.ndarray:
        return self.values_fn(n)(np.asarray(xs, dtype=float))


def eval_state(fam: StateFamily, n: int, x: float, order: int) -> Jet:
    """phi_n or psi_n as a jet, including the 1/sqrt(n!) factor and the
    family normalization."""
    return fam.jet(n, x, order)


# ----------------------------------------------------------------------
# Normalization and envelopes
# ----------------------------------------------------------------------

def pair_envelope(m: PBModel, degree: int) -> Optional[Callable[[float], float]]:
    """Decay envelope for |psi_m(x) phi_n(x)|-type integrands with
    m + n <= degree; None when the model has no closed-form structure to
    exploit (the integrator then samples the integrand itself)."""
    if not _has_closed_form(m):
        return None
    flavor = m.flavor

    def envelope(x: float) -> float:
        xs = np.array([float(x)])
        base = abs(complex(m.phi_vacuum_values(xs)[0])
                   * complex(m.psi_vacuum_values(xs)[0]))
        if isinstance(flavor, ConstantAlphaFlavor):
            y = (x + flavor.k) / cmath.sqrt(2.0 * flavor.alpha_a * flavor.alpha_b)
        else:
            y = quad.rho_values(m, xs)[0] / math.sqrt(2.0 * flavor.ratio)
        return base * max(1.0, 2.0 * abs(y)) ** degree

    return envelope


def fix_normalization(m: PBModel) -> complex:
    """Fix conj(N_psi) * N_phi = 1 / <psi_0, phi_0> (computed with unit
    constants) and store it on the model."""
    try:
        res = compatibility_form(
            m, m.psi_vacuum_values, m.phi_vacuum_values,
            envelope=pair_envelope(m, 0),
        )
    except quad.QuadratureError as exc:
        raise ModelError(f"vacuum pairing diverges: {exc}") from exc
    overlap = res.value
    if overlap == 0 or not np.isfinite(abs(overlap)):
        raise ModelError(f"vacuum pairing is degenerate: {overlap}")
    m.norm_product = 1.0 / overlap
    return m.norm_product


# ----------------------------------------------------------------------
# Ladder relations
# ----------------------------------------------------------------------

@dataclass
class LadderResiduals:
    """Relative sup-norm residuals of the four ladder relations at level n:
    b phi_n = sqrt(n+1) phi_{n+1}, a phi_n = sqrt(n) phi_{n-1},
    a^dag psi_n = sqrt(n+1) psi_{n+1}, b^dag psi_n = sqrt(n) psi_{n-1}."""

    raise_phi: float
    lower_phi: float
    raise_psi: float
    lower_psi: float

    @property
    def max(self) -> float:
        """The largest residual, nan if any is nan."""
        return float(np.max([self.raise_phi, self.lower_phi,
                             self.raise_psi, self.lower_psi]))


def verify_ladder(phi_fam: StateFamily, psi_fam: StateFamily, n: int,
                  grid) -> LadderResiduals:
    grid = np.asarray(grid, dtype=float)
    m = phi_fam.model

    def residuals(fam, raising, lowering):
        # level n once, as the operand of both operators and as the scale
        here = fam.jet(n, grid, 1)
        scale = max(np.max(np.abs(here.value)), 1e-300)
        up = math.sqrt(n + 1) * fam.jet(n + 1, grid, 0).value
        down = math.sqrt(n) * fam.jet(n - 1, grid, 0).value if n > 0 else 0.0
        return [float(np.max(np.abs(
            apply_ladder(m, op, lambda *_: here, grid, 0).value - target))
            / scale) for op, target in ((raising, up), (lowering, down))]

    raise_phi, lower_phi = residuals(phi_fam, "b", "a")
    raise_psi, lower_psi = residuals(psi_fam, "a_dag", "b_dag")
    return LadderResiduals(raise_phi, lower_phi, raise_psi, lower_psi)
