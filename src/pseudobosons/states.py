"""Biorthogonal eigenfunction families.

The lowering vacuum phi_0 (killed by a) and the raising-side vacuum psi_0
(killed by b^dag) generate two families

    phi_n = pi_n phi_0 / sqrt(n!),     psi_n = sigma_n psi_0 / sqrt(n!),

where the polynomial-like factors satisfy first-order recursions driven
by theta = alpha_a beta_b + alpha_b beta_a:

    pi_n    = (theta/alpha_a - alpha_b') pi_{n-1}    - alpha_b pi_{n-1}'
    sigma_n = conj(theta/alpha_b - alpha_a') sigma_{n-1}
              - conj(alpha_a) sigma_{n-1}'

with pi_0 = sigma_0 = 1.  Write each as u p_{n-1} - d p_{n-1}' (lead u,
damp d).  On every model that passes the two coefficient conditions,
d u' = kappa is constant (1/c on the pi side, conj(c) on the sigma side,
with alpha_a = c alpha_b), and induction on H_{n+1} = 2y H_n - H_n' gives
one Hermite closed form

    p_n = s^n H_n(u / (2s)),     s = sqrt(kappa / 2),

for both sides and every flavor (any square root: the form is even in
s).  kappa is a model constant: ``PBModel`` reads it once, on first use,
at x = 0, the point where the vacua and ``Antideriv`` are anchored, so s
is a plain number and no square root is taken per point.
The families are evaluated from it as N (sqrt(2) s)^n h_n(y) times the
vacuum, y = u/(2s), with h_n = H_n / sqrt(2^n n!) in double range where
H_n is not.  One Hermite recurrence (``jets.hermite_coeffs``) gives the
jets of h_n at any order, and the state values are its order-0 rows
(``quad.hermite_value``); :func:`pi_sigma_recursive` runs the recursion
itself, i.e. b^n phi_0, as the independent reference route.

Note the sigma_n sequence multiplies psi_0 (not phi_0): the recursion is
exactly what repeated application of a^dag to psi_0 produces, which the
n = 1 case shows directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import quad
from .jets import (Jet, _mul_coeffs, as_number, hermite_coeffs, jet_hermite,
                   sqrt_factorial)
from .model import ModelError, PBModel, apply_ladder
from .quad import compatibility_form, hermite_value

__all__ = [
    "StateFamily",
    "GridJets",
    "LadderResiduals",
    "vacuum",
    "pi_sigma_recursive",
    "pi_sigma_closed",
    "eval_state",
    "vacuum_pairing",
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
    lead, damp = m.lead_jet(side, x, top - 1), m.damp_jet(side, x, top - 1)
    for k in range(1, n + 1):
        p = top - k
        out = (lead.truncate(p) * out.truncate(p)
               - damp.truncate(p) * out.deriv().truncate(p))
    return out


def _hermite_scale(m: PBModel, side: str) -> complex:
    """s = sqrt(kappa / 2) of the closed form, from the model's kappa."""
    if side not in ("pi", "sigma"):
        raise ModelError(f"side must be 'pi' or 'sigma', not {side!r}")
    kappa = m.kappa[side]
    if kappa == 0 or not cmath.isfinite(kappa):
        raise ModelError(
            f"{side} closed form: kappa = (damp * lead')(0) = {kappa}; it "
            "must be finite and nonzero, with both alphas nonzero and "
            "regular at x = 0")
    return cmath.sqrt(0.5 * kappa)


def _hermite_argument(m: PBModel, side: str, x, order: int):
    """s and the jet of the Hermite argument y = u / (2s) at x: real where
    u and s are (``jets.as_number``)."""
    s = _hermite_scale(m, side)
    return s, m.lead_jet(side, x, order) * as_number(0.5 / s)


def pi_sigma_closed(m: PBModel, side: str, n: int, x: float, order: int):
    """Hermite closed form p_n = s^n H_n(u / (2s)), s = sqrt(kappa / 2),
    with u the lead coefficient of the recursion and kappa = d u' its
    constant product with the damp, read from the model (see the module
    docstring).  It reduces to

    constant_alpha:   u = (x+k)/alpha_a,  kappa = alpha_b/alpha_a
    proportional c:   u = rho/c,          kappa = 1/c     (pi side)

    and holds wherever the coefficient conditions do; a kappa of 0 or
    one that is not finite is a ModelError.  It is evaluated at the one
    level ``n`` as h_n(y) (sqrt(2) s)^n sqrt(n!).
    """
    s, y = _hermite_argument(m, side, x, order)
    return jet_hermite(y, n) * as_number((math.sqrt(2.0) * s) ** n
                                         * sqrt_factorial(n))


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------

@dataclass
class StateFamily:
    """Lazily evaluated phi- or psi-side family.

    The phi side carries normalization N_phi = 1 and the psi side
    N_psi = conj(model.norm_product), so that conj(N_psi) N_phi is the
    model's normalization product.  Levels come from the Hermite closed
    form.
    """

    model: PBModel
    side: str  # 'phi' | 'psi'
    max_n: int = 20

    def __post_init__(self):
        if self.side not in ("phi", "psi"):
            raise ModelError(f"side must be 'phi' or 'psi', not {self.side!r}")

    @property
    def normalization(self) -> complex:
        return 1.0 + 0.0j if self.side == "phi" else \
            complex(self.model.norm_product).conjugate()

    @property
    def _poly_side(self) -> str:
        return "pi" if self.side == "phi" else "sigma"

    def _check_n(self, n: int):
        if not 0 <= n <= self.max_n:
            raise ModelError(f"n = {n} outside 0..max_n = {self.max_n}")

    def jet(self, n, x, order: int):
        """Jet of the n-th state at a point or at every point of an array.

        ``n`` may be a sequence of levels: one vacuum jet, one lead jet and
        one Hermite recurrence then serve them all, and they come back as
        one stacked jet (see ``Jet.stack``), its base x broadcast along a
        leading level axis, each row equal to the single-level result.  A
        state beyond double range reads inf or nan, without a warning."""
        ns = [int(k) for k in np.ravel(n)]
        for k in ns:
            self._check_n(k)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = self._states(ns, x, order)
        if np.ndim(n) == 0:
            return Jet(x, rows[:, 0])
        return Jet(np.broadcast_to(x, (len(ns),) + np.shape(x)), rows)

    def _states(self, ns, x, order: int) -> np.ndarray:
        """Coefficients of the levels ``ns`` at x along axis 1, as in a
        stacked jet: the rows h_n(y) of one Hermite recurrence at
        y = u / (2s), scaled in place by the stacked constants
        N (sqrt(2) s)^n, times the vacuum jet; at order 0 through
        ``quad.hermite_value`` and all in place.  The constants are formed
        in complex arithmetic and stacked in float64 where all are
        exactly real, so a real one is the real part of the complex one;
        the rows run complex only where y, a constant or the vacuum is."""
        s, y = _hermite_argument(self.model, self._poly_side, x, order)
        scales = np.array([as_number(self.normalization
                                     * (math.sqrt(2.0) * s) ** k)
                           for k in ns])
        vac = self._vacuum(x, order).coeffs[:, None]
        u = y.coeffs.astype(np.result_type(y.coeffs, scales, vac),
                            copy=False)
        rows = hermite_coeffs(ns, u) if order \
            else hermite_value(ns, u[0])[None]
        rows *= np.reshape(scales, (-1,) + (1,) * (u.ndim - 1))
        if order:
            return _mul_coeffs(rows, vac)
        rows *= vac
        return rows

    def _vacuum(self, x, order: int) -> Jet:
        return self.model.vacuum_jet(self.side, x, order)

    def jet_fn(self, n: int) -> Callable[[float, int], Jet]:
        self._check_n(n)
        return lambda x, order: self.jet(n, x, order)

    def values_fn(self, n: int) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized pointwise evaluator of level n (one row of
        :meth:`values_all`)."""
        self._check_n(n)
        return lambda xs: self._states([n], xs, 0)[0, 0]

    def values_all(self, xs) -> np.ndarray:
        """(max_n + 1, npts) values of every level on the points ``xs``,
        each row equal to ``jet(n, xs, 0).value``: float64 where the
        states are exactly real (the Hermite argument, the level scales
        and the vacuum all are, as on bosonic, example1 and example2),
        complex128 wherever one of them is not."""
        return self._states(range(self.max_n + 1), xs, 0)[0]

    def values(self, n: int, xs) -> np.ndarray:
        return self.values_fn(n)(np.asarray(xs, dtype=float))


@dataclass
class _SharedVacuum(StateFamily):
    """A family that reads its vacuum jet, on the points where it is
    evaluated, from ``vacua()``: the ``PBModel.joint_vacuum_jets`` that a
    caller needing both families on the same points evaluates once.  A
    side with a closed-form vacuum, which that dict lacks, evaluates its
    own."""

    vacua: Callable[[], dict] = field(kw_only=True)

    def _vacuum(self, x, order: int) -> Jet:
        if getattr(self.model, "vacuum_" + self.side) is not None:
            return super()._vacuum(x, order)
        return self.vacua()[self.side].truncate(order)


def shared_families(m: PBModel, max_n: int, vacua: Callable[[], dict]):
    """The phi and psi families of m up to ``max_n``, both reading their
    vacuum jets from ``vacua()`` (see :class:`_SharedVacuum`)."""
    return tuple(_SharedVacuum(m, side, max_n, vacua=vacua)
                 for side in ("phi", "psi"))


def eval_state(fam: StateFamily, n: int, x: float, order: int) -> Jet:
    """phi_n or psi_n as a jet, including the 1/sqrt(n!) factor and the
    family normalization."""
    return fam.jet(n, x, order)


# ----------------------------------------------------------------------
# Jets shared by the grid checks of one run
# ----------------------------------------------------------------------

# the highest order at which a grid check reads each coefficient: the
# second condition and b applied to an order-1 jet read alpha_b''
COEFFICIENT_ORDERS = {"alpha_a": 1, "beta_a": 1, "alpha_b": 2, "beta_b": 1}
STATE_ORDER = 2  # H and the partner product ab are second order


def keep_outcome(compute):
    """compute() or the exception it raised, kept as a value."""
    try:
        return compute()
    except Exception as exc:  # re-raised by every read
        return exc


def read_outcome(outcome):
    """A value kept by :func:`keep_outcome`, or its exception raised."""
    if isinstance(outcome, Exception):
        raise outcome.with_traceback(None)
    return outcome


@dataclass(frozen=True, eq=False)
class GridJets:
    """The jets that the grid checks of one run read, each evaluated once
    on ``grid``: the four coefficient jets at :data:`COEFFICIENT_ORDERS`
    and, per side, the states of levels 0..n_max at :data:`STATE_ORDER`
    as the one stacked jet of a :meth:`StateFamily.jet` call, whose
    leading axis is the level.

    A check reads truncations of them, and the levels it needs as rows
    of the stacked jets.  Truncation is exact (see
    :mod:`pseudobosons.jets`), so it gets bitwise the jets it would
    evaluate itself.  Each group is evaluated on first read and kept with
    its outcome: one that raised re-raises the same error on every read,
    per coefficient and per side, as the check's own evaluation would.
    The vacua of the sides without a closed form are one joint
    evaluation that both sides read, as each side's own evaluation makes
    it (see ``PBModel.vacuum_jets``)."""

    model: PBModel
    grid: np.ndarray
    n_max: int

    def check(self, m: PBModel, grid) -> None:
        """ModelError unless these are the jets of ``m`` on ``grid``."""
        if m is not self.model or not np.array_equal(grid, self.grid):
            raise ModelError("prebuilt grid jets belong to another model "
                             "or grid")

    @cached_property
    def _coefficients(self) -> dict:
        return {name: keep_outcome(lambda name=name, order=order:
                                   self.model.coefficient(name).eval_jet(
                                       self.grid, order))
                for name, order in COEFFICIENT_ORDERS.items()}

    @cached_property
    def _vacua(self):
        return keep_outcome(lambda: self.model.joint_vacuum_jets(
            self.grid, STATE_ORDER))

    def _side(self, side: str):
        fam = _SharedVacuum(self.model, side, self.n_max,
                            vacua=lambda: read_outcome(self._vacua))
        return keep_outcome(lambda: fam.jet(range(self.n_max + 1),
                                            self.grid, STATE_ORDER))

    @cached_property
    def _phi(self):
        return self._side("phi")

    @cached_property
    def _psi(self):
        return self._side("psi")

    def coefficient(self, name: str, order: int) -> Jet:
        """The jet of coefficient ``name`` on the grid at ``order``."""
        return read_outcome(self._coefficients[name]).truncate(order)

    def states(self, side: str, ns, order: int) -> Jet:
        """The stacked jet of levels ``ns`` of ``side`` ('phi' or 'psi')
        on the grid at ``order``, one row per level in the order of
        ``ns``."""
        for k in ns:
            if not 0 <= k <= self.n_max:
                raise ModelError(f"n = {k} outside 0..max_n = {self.n_max}")
        levels = read_outcome(self._phi if side == "phi" else self._psi)
        return levels.truncate(order).take(ns)


# ----------------------------------------------------------------------
# Normalization and envelopes
# ----------------------------------------------------------------------

def pair_envelope(m: PBModel, degree: int) -> Callable:
    """Decay envelope for |psi_m(x) phi_n(x)|-type integrands with
    m + n <= degree: |phi_0 psi_0| max(1, 2|y|)^degree at the Hermite
    argument y = u/(2s), whose modulus is the same on both sides.

    It maps an array of points to an array of bounds, formed in log space,
    log|phi_0| + log|psi_0| + degree log max(1, 2|y|) from the model's
    log|vacuum| of both sides (one joint evaluation), and exponentiated
    once: a high degree can neither overflow the power nor meet an
    underflowed vacuum as inf * 0, and a growing vacuum (one that does
    not pair) reads inf without a warning."""
    _hermite_scale(m, "pi")  # a kappa of 0 or not finite fails here

    def envelope(xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        log_phi, log_psi = m.log_abs_vacua(xs)
        log_env = log_phi + log_psi
        if degree:
            y = _hermite_argument(m, "pi", xs, 0)[1].value
            log_env += degree * np.log(np.maximum(1.0, 2.0 * np.abs(y)))
        with np.errstate(over="ignore"):  # beyond double range: inf
            return np.exp(log_env)

    return envelope


PAIRING_TOL = 1e-12  # absolute tolerance of the vacuum pairing integral


def integrate_vacuum_pairing(m: PBModel):
    """Integrate <psi_0, phi_0> of the unnormalized vacua: the
    IntegralResult, or, where the pairing diverges (the vacua are not
    compatible), the ModelError saying so, returned and not raised.
    ``PBModel.pairing_outcome`` stores this; everything else reads it
    through :func:`vacuum_pairing`.  Its integrand evaluates both vacua
    at once."""
    def vacua(xs):
        return [v.value for v in m.vacuum_jets(xs, 0, ("psi", "phi"))]

    try:
        return compatibility_form(m, vacua, None,
                                  envelope=pair_envelope(m, 0),
                                  tol=PAIRING_TOL)
    except quad.QuadratureError as exc:
        error = ModelError(f"vacuum pairing diverges: {exc}")
        error.__cause__ = exc
        return error


def vacuum_pairing(m: PBModel) -> quad.IntegralResult:
    """<psi_0, phi_0> of the unnormalized vacua with its error estimate,
    integrated once per model (``PBModel.pairing_outcome``); one that
    diverges re-raises the model's stored ModelError."""
    return read_outcome(m.pairing_outcome)


def fix_normalization(m: PBModel) -> complex:
    """The normalization product conj(N_psi) * N_phi = 1 / <psi_0, phi_0>
    (computed with unit constants) from the model's stored vacuum
    pairing.  It assigns nothing itself: the model derives its pairing on
    first use, and ``PBModel.norm_product`` is this value."""
    overlap = vacuum_pairing(m).value
    if overlap == 0 or not np.isfinite(abs(overlap)):
        raise ModelError(f"vacuum pairing is degenerate: {overlap}")
    return 1.0 / overlap


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


_TAIL_FLOOR = 1e-250  # below this |state| the residual is 0/0 noise


def _relative_sup(residual, state, ns) -> list:
    """sup |residual| / sup |state| along the last axis, one ratio per
    row of the stacked levels ``ns``, with the points where |state| is
    below the tail floor counted as 0 (their residual may not be
    finite).  A state below the floor on the whole grid leaves nothing to
    compare and is a ModelError naming the first such level of ``ns``."""
    mag = np.abs(state)
    res = np.where(mag < _TAIL_FLOOR, 0.0, np.abs(residual))
    sup = np.max(mag, axis=-1)
    vanished = sup < _TAIL_FLOOR
    if vanished.any():
        i = int(np.argmax(vanished))
        raise ModelError(f"state level {ns[i]} vanished on the whole grid "
                         f"(sup |state| = {sup[i]:.3g})")
    with np.errstate(invalid="ignore"):  # inf / inf is nan, as for floats
        return (np.max(res, axis=-1) / sup).tolist()


def refuse_non_finite_levels(side: str, ns, grid, values) -> None:
    """A ModelError naming the first level of ``ns`` whose row of
    ``values`` (one row per level, one column per grid point) is not
    finite somewhere on the grid, and its such point nearest 0."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad.any(axis=-1)))
        xs = grid[bad[i]]
        raise ModelError(f"{side} level {ns[i]} is not finite at x = "
                         f"{xs[np.argmin(np.abs(xs))]:.6g}: it leaves "
                         "double range there")


def _stacked_levels(fam: StateFamily, ns, grid, order: int,
                    jets: GridJets | None) -> Jet:
    """The levels ``ns`` of the family on the grid at ``order`` as one
    stacked jet: one family call, or a selection of the prebuilt
    ``jets``.  A level whose value is not finite somewhere on the grid
    leaves no residual to compare (see :func:`refuse_non_finite_levels`)."""
    if jets is None:
        levels = fam.jet(ns, grid, order)
    else:
        jets.check(fam.model, grid)
        levels = jets.states(fam.side, ns, order)
    refuse_non_finite_levels(fam.side, ns, grid, levels.value)
    return levels


def verify_ladder(phi_fam: StateFamily, psi_fam: StateFamily, n, grid, *,
                  jets: GridJets | None = None):
    """The :class:`LadderResiduals` of level ``n`` on the grid.

    ``n`` may be a sequence of levels: each family is then evaluated once,
    at order 1, on every level n-1..n+1 the relations reach, each
    operator is applied once to the stacked levels, and the list of their
    residuals is returned, each equal to the single-level one.  ``jets``,
    the :class:`GridJets` of the model on this grid, replaces those
    evaluations and the coefficient jets with selections of its own."""
    grid = np.asarray(grid, dtype=float)
    m = phi_fam.model
    ns = [int(k) for k in np.ravel(n)]
    if not ns:
        return []
    reach = sorted({j for k in ns for j in (k - 1, k, k + 1) if j >= 0})
    at = {k: i for i, k in enumerate(reach)}  # level -> row of reach
    here = [at[k] for k in ns]
    above = [at[k + 1] for k in ns]
    below = [at.get(k - 1, 0) for k in ns]  # level 0's row is zeroed
    rise = np.array([math.sqrt(k + 1) for k in ns])[:, None]
    fall = np.array([math.sqrt(k) for k in ns])[:, None]

    def residuals(fam, raising, lowering):
        levels = _stacked_levels(fam, reach, grid, 1, jets)
        operand = levels.take(here)  # as operand and as the scale
        raised = apply_ladder(m, raising, lambda *_: operand, grid, 0,
                              jets=jets)
        lowered = apply_ladder(m, lowering, lambda *_: operand, grid, 0,
                               jets=jets)
        values = levels.value
        prev = values[below]
        prev[np.equal(ns, 0)] = 0.0  # a phi_0 = 0
        up = raised.value - rise * values[above]
        down = lowered.value - fall * prev
        return zip(_relative_sup(up, operand.value, ns),
                   _relative_sup(down, operand.value, ns))

    out = [LadderResiduals(*phi, *psi) for phi, psi in
           zip(residuals(phi_fam, "b", "a"),
               residuals(psi_fam, "a_dag", "b_dag"))]
    return out[0] if np.ndim(n) == 0 else out
