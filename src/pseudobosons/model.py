"""Ladder-operator models.

A model is a pair of first-order differential operators

    a = alpha_a(x) d/dx + beta_a(x)
    b = -d/dx alpha_b(x) + beta_b(x)

together with their formal adjoints

    a^dag = -d/dx conj(alpha_a(x)) + conj(beta_a(x))
    b^dag = conj(alpha_b(x)) d/dx + conj(beta_b(x)).

The pair satisfies [a, b] f = f on C^2 functions exactly when the two
coefficient conditions checked by :func:`check_pb_conditions` hold.  The
formal adjoints are taken as definitions; no Hilbert-space domain
bookkeeping is attempted.

Built-in models cover the harmonic oscillator, its shifted and Swanson
variants, general constant coefficients, and the two worked
variable-coefficient examples (a rational-alpha equal-alpha model and a
proportional sinh model).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, partialmethod
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Union

import numpy as np

from . import expressions as ex
from .expressions import FunctionExpr, parse_expr
from .jets import Jet, JetError

__all__ = [
    "ModelError",
    "GeneralFlavor",
    "ConstantAlphaFlavor",
    "ProportionalFlavor",
    "PBModel",
    "LadderOp",
    "LADDER_OPS",
    "VACUUM_KILLER",
    "ConditionReport",
    "CommutatorStats",
    "parse_expr",
    "build_builtin",
    "from_expressions",
    "proportional_model",
    "check_pb_conditions",
    "apply_ladder",
    "commutator_residual",
    "BUILTIN_NAMES",
]


class ModelError(Exception):
    """Invalid model construction or use."""


@dataclass(frozen=True)
class GeneralFlavor:
    kind = "general"


@dataclass(frozen=True)
class ConstantAlphaFlavor:
    """Constant alpha_a, alpha_b with theta(x) = x + k."""

    alpha_a: complex
    alpha_b: complex
    k: complex
    kind = "constant_alpha"


@dataclass(frozen=True)
class ProportionalFlavor:
    """alpha_a = ratio * alpha_b with real alpha_b, beta_a = rho =
    antideriv(1/alpha_b) and beta_b = alpha_b'.  ratio == 1 is the
    equal-alpha case.  Only :meth:`PBModel.lead_jet` reads it (u = rho/c)."""

    ratio: float

    @property
    def kind(self) -> str:
        return "equal_alpha" if self.ratio == 1.0 else "proportional"


Flavor = Union[GeneralFlavor, ConstantAlphaFlavor, ProportionalFlavor]


class LadderOp(NamedTuple):
    """One of the four operators: its coefficient pair ('a' or 'b'),
    whether it has the raising form -(alpha f)' + beta f rather than the
    lowering form alpha f' + beta f, and whether the pair is conjugated."""

    pair: str
    raising: bool
    conjugated: bool


LADDER_OPS = {
    "a": LadderOp("a", False, False),
    "b": LadderOp("b", True, False),
    "a_dag": LadderOp("a", True, True),
    "b_dag": LadderOp("b", False, True),
}

# the operator whose kernel is each side's vacuum
VACUUM_KILLER = {"phi": "a", "psi": "b_dag"}


@dataclass(frozen=True)
class PBModel:
    """The four coefficient functions plus registered derived data: closed
    vacua and an exact rho inverse (rho = c u itself is always derived).
    A model is an immutable value: ``kappa``, ``pairing_outcome`` and
    ``norm_product`` are derived from its fields on first use, so building
    one integrates nothing and no result depends on what ran before it.
    The vacuum pairing <psi_0, phi_0> is integrated at most once per
    model, whether it converges or diverges."""

    alpha_a: FunctionExpr
    beta_a: FunctionExpr
    alpha_b: FunctionExpr
    beta_b: FunctionExpr
    flavor: Flavor = field(default_factory=GeneralFlavor)
    name: str = "custom"
    rho_inverse: Optional[Callable] = None  # maps a rho value back to x
    vacuum_phi: Optional[FunctionExpr] = None
    vacuum_psi: Optional[FunctionExpr] = None

    @cached_property
    def kappa(self) -> Mapping[str, complex]:
        """side -> d u' of the recursion p_n = u p_{n-1} - d p_{n-1}', a
        constant where the conditions hold, read at x = 0 (the anchor of the
        vacua and of Antideriv); nan where it cannot be evaluated there."""
        kappa = {}
        for side in ("pi", "sigma"):
            try:
                kappa[side] = complex(
                    self.damp_jet(side, 0.0, 0).value
                    * self.lead_jet(side, 0.0, 1).derivative(1))
            except (JetError, ex.ExpressionError):
                kappa[side] = complex("nan")
        return MappingProxyType(kappa)

    @cached_property
    def pairing_outcome(self):
        """The outcome of the vacuum pairing <psi_0, phi_0>: its
        ``quad.IntegralResult``, or the ModelError saying that it diverges
        (the vacua are not compatible).  The error is stored as a value,
        because a cached_property caches no exception;
        ``states.vacuum_pairing`` raises it on every read."""
        from . import states  # deferred: states imports this module

        return states.integrate_vacuum_pairing(self)

    @cached_property
    def norm_product(self) -> complex:
        """conj(N_psi) N_phi = 1/<psi_0, phi_0> (see fix_normalization),
        read from ``pairing_outcome``; where that pairing diverges, every
        use re-raises its stored ModelError without integrating again."""
        from . import states  # deferred: states imports this module

        return states.fix_normalization(self)

    # -- coefficient access --------------------------------------------

    def coefficient(self, which: str) -> FunctionExpr:
        try:
            return {"alpha_a": self.alpha_a, "beta_a": self.beta_a,
                    "alpha_b": self.alpha_b, "beta_b": self.beta_b}[which]
        except KeyError:
            raise ModelError(f"unknown coefficient {which!r}") from None

    def theta_jet(self, x: float, order: int) -> Jet:
        """theta = alpha_a beta_b + alpha_b beta_a."""
        return (self.alpha_a.eval_jet(x, order) * self.beta_b.eval_jet(x, order)
                + self.alpha_b.eval_jet(x, order) * self.beta_a.eval_jet(x, order))

    def theta_values(self, xs) -> np.ndarray:
        return self.theta_jet(np.asarray(xs, dtype=float), 0).value

    # -- coefficients of the pi/sigma recursions --------------------------

    def lead_jet(self, side: str, x, order: int) -> Jet:
        """Jet of the lead u of the recursion of ``side`` at the given order:

            pi side:    u = theta/alpha_a - alpha_b'
            sigma side: u = conj(theta/alpha_b - alpha_a')

        For constant-alpha and proportional flavors the expression is
        simplified through the flavor's defining constraints (theta = x + k,
        respectively beta_a = antideriv(1/alpha_b) and beta_b = alpha_b')
        before evaluation.
        The simplification matters to the recursion: the raw quotient leaves
        eps-size residue in Taylor coefficients that are exactly zero, and
        the per-level derivative amplifies such residue factorially by the
        time it reaches the value slot.  The Hermite closed form needs u
        only to the requested order, where the residue stays at eps.
        """
        # sigma is pi with the pairs a and b swapped, then conjugated
        flavor = self.flavor
        if isinstance(flavor, ConstantAlphaFlavor):
            ax, k = flavor.alpha_a, flavor.k
            if side == "sigma":
                ax, k = flavor.alpha_b.conjugate(), k.conjugate()
            return (Jet.variable(x, order) + k) / ax
        if isinstance(flavor, ProportionalFlavor):
            rho = self.beta_a.eval_jet(x, order)
            # real alpha: conjugation is a no-op
            return rho * (1.0 / flavor.ratio) if side == "pi" else rho
        x_pair, y_pair = ("a", "b") if side == "pi" else ("b", "a")
        ay = self.coefficient("alpha_" + y_pair).eval_jet(x, order + 1)
        lead = (self.theta_jet(x, order)
                / self.coefficient("alpha_" + x_pair).eval_jet(x, order)
                - ay.deriv())
        return lead.conjugate() if side == "sigma" else lead

    def damp_jet(self, side: str, x, order: int) -> Jet:
        """Jet of the damp d of the recursion of ``side``: alpha_b on the
        pi side, conj(alpha_a) on the sigma side."""
        damp = self.coefficient("alpha_b" if side == "pi" else "alpha_a") \
            .eval_jet(x, order)
        return damp.conjugate() if side == "sigma" else damp

    # -- vacua -----------------------------------------------------------

    def _vacuum(self, side: str) -> tuple[FunctionExpr, bool]:
        """The unnormalized vacuum of ``side`` as (expression, conjugated):
        the kernel of its annihilating operator (a for phi, b^dag for psi).

        Built-ins register explicit closed forms (vacuum_psi evaluates to
        psi_0 directly).  Otherwise both annihilators have the lowering
        form alpha f' + beta f, whose kernel is exp(-antideriv(beta/alpha))
        with the constant fixed by F(0) = 0; the conjugated pair of b^dag
        conjugates the result, since x is real."""
        if side not in VACUUM_KILLER:
            raise ModelError(f"side must be 'phi' or 'psi', not {side!r}")
        closed = self.vacuum_phi if side == "phi" else self.vacuum_psi
        if closed is not None:
            return closed, False
        op = LADDER_OPS[VACUUM_KILLER[side]]
        ratio = ex.BinOp("/", self.coefficient("beta_" + op.pair),
                         self.coefficient("alpha_" + op.pair))
        return _exp_of_neg(ex.Antideriv(ratio)), op.conjugated

    def vacuum_jet(self, side: str, x, order: int) -> Jet:
        expr, conjugated = self._vacuum(side)
        vac = expr.eval_jet(x, order)
        return vac.conjugate() if conjugated else vac

    def vacuum_values(self, side: str, xs) -> np.ndarray:
        expr, conjugated = self._vacuum(side)
        vals = expr.eval_values(xs)
        return np.conj(vals) if conjugated else vals

    def log_abs_vacuum_values(self, side: str, xs) -> np.ndarray:
        """log|vacuum| on a float array.  A vacuum exp(g) is never formed:
        log|exp(g)| = Re g, so a vacuum beyond double range has a finite
        log and no numpy overflow warning.  Another closed form that
        vanishes reads -inf."""
        expr, _ = self._vacuum(side)
        if isinstance(expr, ex.Call) and expr.func == "exp":
            return expr.arg.eval_values(xs).real
        with np.errstate(divide="ignore"):
            return np.log(np.abs(expr.eval_values(xs)))

    phi_vacuum_jet = partialmethod(vacuum_jet, "phi")
    psi_vacuum_jet = partialmethod(vacuum_jet, "psi")
    phi_vacuum_values = partialmethod(vacuum_values, "phi")
    psi_vacuum_values = partialmethod(vacuum_values, "psi")


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

BUILTIN_NAMES = ("bosonic", "shifted", "swanson", "constant_alpha",
                 "example1", "example2")


def _expr(src_or_tree) -> FunctionExpr:
    if isinstance(src_or_tree, FunctionExpr):
        return src_or_tree
    return parse_expr(src_or_tree)


def _exp_of_neg(inner: FunctionExpr) -> FunctionExpr:
    return ex.Call("exp", ex.BinOp("-", ex.Const(0.0), inner))


def build_builtin(name: str, **params) -> PBModel:
    """Construct a named built-in model.

    bosonic                        a = (d/dx + x)/sqrt(2), b = a^dag
    shifted(alpha, beta)           oscillator with complex shifts
    swanson(theta)                 complex-rotated oscillator, |theta| < pi/4
    constant_alpha(alpha_a, alpha_b, k)
                                   constant coefficients, theta(x) = x + k
    example1                       alpha = 1/(1+x^2), beta_a = x + x^3/3
    example2                       alpha_a = 2 alpha_b = 1/cosh(x)
    """
    if name == "bosonic":
        _check_no_extra(name, params)
        return build_builtin("shifted", alpha=0.0, beta=0.0, _name="bosonic")

    if name == "shifted":
        al = complex(params.pop("alpha", 0.0))
        be = complex(params.pop("beta", 0.0))
        _check_no_extra(name, params, allow={"_name"})
        inv = 1.0 / math.sqrt(2.0)
        x = ex.Var()
        half_x = ex.BinOp("*", ex.Const(inv), x)
        model_name = params.get("_name", "shifted")
        return PBModel(
            alpha_a=ex.Const(inv),
            beta_a=_maybe_shift(half_x, al),
            alpha_b=ex.Const(inv),
            beta_b=_maybe_shift(half_x, be),
            flavor=ConstantAlphaFlavor(inv, inv, (al + be) * inv),
            name=model_name,
            vacuum_phi=_exp_of_neg(_quadratic(0.5, al * math.sqrt(2.0))),
            vacuum_psi=_exp_of_neg(_quadratic(0.5, be.conjugate() * math.sqrt(2.0))),
        )

    if name == "swanson":
        th = float(_required(name, params, "theta"))
        _check_no_extra(name, params)
        if not abs(th) < math.pi / 4:
            raise ModelError("swanson requires |theta| < pi/4")
        inv = 1.0 / math.sqrt(2.0)
        ca = cmath.exp(-1j * th) * inv
        cb = cmath.exp(1j * th) * inv
        x = ex.Var()
        return PBModel(
            alpha_a=ex.Const(ca),
            beta_a=ex.BinOp("*", ex.Const(cb), x),
            alpha_b=ex.Const(ca),
            beta_b=ex.BinOp("*", ex.Const(cb), x),
            flavor=ConstantAlphaFlavor(ca, ca, 0.0),
            name="swanson",
            vacuum_phi=_exp_of_neg(_quadratic(0.5 * cmath.exp(2j * th), 0.0)),
            vacuum_psi=_exp_of_neg(_quadratic(0.5 * cmath.exp(-2j * th), 0.0)),
        )

    if name == "constant_alpha":
        aa = complex(_required(name, params, "alpha_a"))
        ab = complex(_required(name, params, "alpha_b"))
        k = complex(params.pop("k", 0.0))
        _check_no_extra(name, params)
        if aa == 0 or ab == 0:
            raise ModelError("constant_alpha requires nonzero alphas")
        x = ex.Var()
        prod = aa * ab
        return PBModel(
            alpha_a=ex.Const(aa),
            beta_a=ex.BinOp("*", ex.Const(1.0 / ab), x),
            alpha_b=ex.Const(ab),
            beta_b=ex.Const(k / aa),
            flavor=ConstantAlphaFlavor(aa, ab, k),
            name="constant_alpha",
            vacuum_phi=_exp_of_neg(_quadratic(0.5 / prod, 0.0)),
            vacuum_psi=_exp_of_neg(
                _quadratic(0.0, (k / prod).conjugate())),
        )

    if name == "example1":
        _check_no_extra(name, params)
        return PBModel(
            alpha_a=parse_expr("1/(1+x^2)"),
            beta_a=parse_expr("x + x^3/3"),
            alpha_b=parse_expr("1/(1+x^2)"),
            beta_b=parse_expr("-2*x/(1+x^2)^2"),
            flavor=ProportionalFlavor(1.0),
            name="example1",
            rho_inverse=_example1_rho_inverse,
            vacuum_phi=parse_expr("exp(-(x + x^3/3)^2/2)"),
            vacuum_psi=parse_expr("1 + x^2"),
        )

    if name == "example2":
        _check_no_extra(name, params)
        return PBModel(
            alpha_a=parse_expr("1/cosh(x)"),
            beta_a=parse_expr("2*sinh(x)"),
            alpha_b=parse_expr("1/(2*cosh(x))"),
            beta_b=parse_expr("-sinh(x)/(2*cosh(x)^2)"),
            flavor=ProportionalFlavor(2.0),
            name="example2",
            rho_inverse=lambda u: np.arcsinh(np.asarray(u, dtype=float) / 2.0),
            vacuum_phi=parse_expr("exp(-cosh(x)^2)"),
            vacuum_psi=parse_expr("2*cosh(x)"),
        )

    raise ModelError(f"unknown builtin {name!r}; known: {BUILTIN_NAMES}")


def _required(name, params, key):
    """The parameter ``key`` popped from ``params``; a ModelError naming it
    when the builtin ``name`` was given none."""
    if key not in params:
        raise ModelError(f"missing parameter for {name!r}: {key!r}")
    return params.pop(key)


def _check_no_extra(name, params, allow=frozenset()):
    extra = set(params) - set(allow)
    if extra:
        raise ModelError(f"unexpected parameters for {name!r}: {sorted(extra)}")


def _maybe_shift(expr: FunctionExpr, c: complex) -> FunctionExpr:
    if c == 0:
        return expr
    return ex.BinOp("+", expr, ex.Const(c))


def _quadratic(c2: complex, c1: complex) -> FunctionExpr:
    """c2*x^2 + c1*x as an expression tree (dropping zero parts)."""
    x = ex.Var()
    terms = []
    if c2 != 0:
        terms.append(ex.BinOp("*", ex.Const(c2), ex.Pow(x, 2)))
    if c1 != 0:
        terms.append(ex.BinOp("*", ex.Const(c1), x))
    if not terms:
        return ex.Const(0.0)
    node = terms[0]
    for t in terms[1:]:
        node = ex.BinOp("+", node, t)
    return node


def _example1_rho_inverse(u):
    """Real root of x + x^3/3 = u (Cardano, arranged to avoid
    cancellation for large |u|)."""
    u = np.asarray(u, dtype=float)
    root = np.sqrt(4.0 + 9.0 * u * u)
    v = (3.0 * u + root) / 2.0          # always >= 1 in magnitude for u >= 0
    v = np.where(u >= 0, v, 1.0 / ((root - 3.0 * u) / 2.0))
    w = 1.0 / v
    return np.cbrt(v) - np.cbrt(w)


def from_expressions(alpha_a, beta_a, alpha_b, beta_b, *,
                     name: str = "custom") -> PBModel:
    """General model from four coefficient expressions (source text or
    parsed trees)."""
    return PBModel(
        alpha_a=_expr(alpha_a), beta_a=_expr(beta_a),
        alpha_b=_expr(alpha_b), beta_b=_expr(beta_b),
        flavor=GeneralFlavor(), name=name,
    )


def proportional_model(alpha_b, *, ratio: float = 1.0,
                       name: str = "proportional") -> PBModel:
    """Model with alpha_a = ratio * alpha_b, beta_a = rho =
    antideriv(1/alpha_b), beta_b = alpha_b'.

    alpha_b must be real and strictly positive; ratio = 1 gives the
    equal-alpha construction.
    """
    ab = _expr(alpha_b)
    probe = ab.eval_values(np.linspace(-3, 3, 31))
    if np.max(np.abs(probe.imag)) > 1e-12 or np.min(probe.real) <= 0:
        raise ModelError("proportional models need real positive alpha_b")
    ratio = float(ratio)
    aa = ab if ratio == 1.0 else ex.BinOp("*", ex.Const(ratio), ab)
    rho = ex.Antideriv(ex.BinOp("/", ex.Const(1.0), ab))
    c = ratio
    vac_phi = _exp_of_neg(
        ex.BinOp("*", ex.Const(0.5 / c), ex.Pow(rho, 2)))
    vac_psi = ex.BinOp("/", ex.Const(1.0), ab)
    return PBModel(
        alpha_a=aa, beta_a=rho, alpha_b=ab, beta_b=ex.Deriv(ab),
        flavor=ProportionalFlavor(ratio), name=name,
        vacuum_phi=vac_phi, vacuum_psi=vac_psi,
    )


# ----------------------------------------------------------------------
# Pseudo-bosonic conditions and operator application
# ----------------------------------------------------------------------

@dataclass
class ConditionReport:
    """Pointwise residuals of the two coefficient conditions

        r1 = alpha_a alpha_b' - alpha_a' alpha_b
        r2 = alpha_a beta_b' + alpha_b beta_a' - 1 - alpha_a alpha_b''
    """

    grid: np.ndarray
    residual1: np.ndarray
    residual2: np.ndarray
    max_abs1: float
    max_abs2: float
    tol: float
    passed: bool

    @property
    def max_abs(self) -> float:
        return max(self.max_abs1, self.max_abs2)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _coefficients(m: PBModel, x, jets) -> Callable[[str, int], Jet]:
    """(name, order) -> the jet of that coefficient at x: evaluated, or a
    truncation of ``jets``, the prebuilt ``states.GridJets`` of m on the
    points x, where one is given."""
    if jets is None:
        return lambda name, order: m.coefficient(name).eval_jet(x, order)
    jets.check(m, x)
    return jets.coefficient


def check_pb_conditions(m: PBModel, grid, tol: float = 1e-10, *,
                        jets=None) -> ConditionReport:
    """The two conditions on the grid; ``jets`` (a ``states.GridJets`` of
    m on this grid) supplies the coefficient jets instead of evaluating
    them."""
    grid = np.asarray(grid, dtype=float)
    coeff = _coefficients(m, grid, jets)
    aa = coeff("alpha_a", 1)
    ab = coeff("alpha_b", 2)
    ba = coeff("beta_a", 1)
    bb = coeff("beta_b", 1)
    r1 = aa.value * ab.derivative(1) - aa.derivative(1) * ab.value
    r2 = (aa.value * bb.derivative(1) + ab.value * ba.derivative(1) - 1.0
          - aa.value * ab.derivative(2))
    m1 = float(np.max(np.abs(r1)))
    m2 = float(np.max(np.abs(r2)))
    return ConditionReport(grid, r1, r2, m1, m2, tol,
                           passed=(m1 < tol and m2 < tol))


def apply_ladder(m: PBModel, which: str, f, x, order: int, *, jets=None):
    """Apply one of the four operators of :data:`LADDER_OPS` to a
    jet-valued function at a point or at every point of an array.

    ``f`` is a callable (x, order) -> Jet; one derivative order is
    consumed, so ``f`` is evaluated at order + 1.  Its jet may be a
    stacked one (see ``Jet.stack``) with rows on x: the operator then
    acts on every row in one pass.

        a:     alpha_a f' + beta_a f
        b:     -(alpha_b f)' + beta_b f
        a_dag: -(conj(alpha_a) f)' + conj(beta_a) f
        b_dag: conj(alpha_b) f' + conj(beta_b) f

    ``f`` may also be a sequence of such callables: their jets are then
    stacked, the operator is applied once, and the list of the rows of
    the result is returned, each bitwise the single-callable result.  A
    single callable returns a Jet.  ``jets``, the prebuilt
    ``states.GridJets`` of m on the points x, supplies alpha and beta as
    truncations instead of evaluating them.
    """
    try:
        op = LADDER_OPS[which]
    except KeyError:
        raise ModelError(f"unknown ladder operator {which!r}") from None
    coeff = _coefficients(m, x, jets)
    alpha = coeff("alpha_" + op.pair, order + op.raising)
    beta = coeff("beta_" + op.pair, order)
    if op.conjugated:
        alpha, beta = alpha.conjugate(), beta.conjugate()
    if callable(f):
        return _ladder_on(op, alpha, beta, f(x, order + 1), order)
    fjs = [fn(x, order + 1) for fn in f]
    return _ladder_on(op, alpha, beta, Jet.stack(fjs), order).rows() \
        if fjs else []


def _ladder_on(op: LadderOp, alpha: Jet, beta: Jet, fj: Jet,
               order: int) -> Jet:
    """The operator with coefficient jets alpha and beta applied to the
    jet fj, which may stack rows on their base."""
    if np.shape(fj.base) != np.shape(alpha.base):
        alpha, beta = alpha.broadcast(fj.base), beta.broadcast(fj.base)
    lead = -((alpha * fj).deriv()) if op.raising else alpha * fj.deriv()
    return lead + beta * fj.truncate(order)


@dataclass
class CommutatorStats:
    grid: np.ndarray
    residuals: np.ndarray
    sup_abs: float


def commutator_residual(m: PBModel, f, grid, *, jets=None):
    """sup over the grid of |(ab - ba) f(x) - f(x)| for a C^2 function f
    given as a jet-valued callable that accepts arrays; f is evaluated
    once, at order 2, and its value read from that jet.

    ``f`` may also be a sequence of such callables: their jets are then
    stacked (see ``Jet.stack``), each of the four operator applications
    is one :func:`apply_ladder` call for all of them, and the list of
    their stats is returned, each bitwise the single-callable one.
    ``jets`` is passed on to :func:`apply_ladder`."""
    grid = np.asarray(grid, dtype=float)
    fs = [f] if callable(f) else list(f)
    if not fs:
        return []
    fj = Jet.stack([fn(grid, 2) for fn in fs])

    def product(outer, inner):
        once = apply_ladder(m, inner, lambda *_: fj, grid, 1, jets=jets)
        return apply_ladder(m, outer, lambda *_: once, grid, 0,
                            jets=jets).value

    res = np.abs(product("a", "b") - product("b", "a") - fj.value)
    out = [CommutatorStats(grid, row, float(np.max(row))) for row in res]
    return out[0] if callable(f) else out
