"""Coefficient-function expression language.

The four coefficient functions of a ladder-operator model are small
closed-form expressions of one real variable.  This module provides the
expression trees, a recursive-descent parser for the documented grammar,
a printer whose output reparses to a structurally identical tree, and one
evaluator: exact jets (values plus derivatives) at a point or batched
over a whole grid, with plain values as the order-0 jet.

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x' | 'i' | func '(' expr ')' | '(' expr ')'
    func   := exp | sinh | cosh | tanh | sqrt | antideriv

A leading minus is accepted as sugar for ``0 - ...``.  ``antideriv(e)``
denotes the antiderivative of ``e`` vanishing at 0; it is evaluated
numerically unless the model registers a closed form.  An internal
``Deriv`` node (not part of the grammar) represents exact differentiation
of a subtree and is used when a model derives one coefficient from
another.
"""

from __future__ import annotations

import operator

import numpy as np

from . import quad
from .jets import (
    Jet,
    JetError,
    as_number,
    jet_cosh,
    jet_exp,
    jet_powi,
    jet_sinh,
    jet_sqrt,
    jet_tanh,
    real_base,
)

__all__ = [
    "FunctionExpr",
    "Const",
    "Var",
    "BinOp",
    "Pow",
    "Call",
    "Antideriv",
    "Deriv",
    "ExpressionError",
    "ExpressionSyntaxError",
    "ExpressionDomainError",
    "parse_expr",
    "to_source",
    "same_structure",
]


class ExpressionError(Exception):
    """Base class for expression-language failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed source text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ExpressionDomainError(ExpressionError):
    """Evaluation hit a pole or singularity; carries the offending subtree."""

    def __init__(self, message: str, node: "FunctionExpr", x: float):
        super().__init__(f"{message} in '{to_source(node)}' at x = {x}")
        self.node = node
        self.x = x


def _first_zero(x, u: Jet) -> float:
    """The first point of x where the jet u has a zero value."""
    bad = np.ravel(u.coeffs[0] == 0)
    return float(np.ravel(x)[np.argmax(bad)])


class FunctionExpr:
    """Base expression node.

    Each node has one evaluator, ``eval_jet(x, order)``, for a float or a
    float array x; values and first derivatives are its orders 0 and 1.
    Jets follow the dtype rule of :mod:`pseudobosons.jets`: an exactly
    real expression evaluates in float64.
    """

    __slots__ = ()

    def eval_jet(self, x, order: int) -> Jet:
        raise NotImplementedError

    def eval_values(self, xs) -> np.ndarray:
        """Values on a float array: the order-0 jet."""
        return self.eval_jet(real_base(xs), 0).value

    def eval_dual(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """(values, first derivative) on a float array: the order-1 jet."""
        j = self.eval_jet(real_base(xs), 1)
        return j.value, j.derivative(1)

    def __call__(self, xs):
        return self.eval_values(xs)


class Const(FunctionExpr):
    """A constant: ``value`` is complex, ``number`` the same value as a
    float where it is exactly real."""

    __slots__ = ("value", "number")

    def __init__(self, value: complex):
        self.value = complex(value)
        self.number = as_number(self.value)

    def eval_jet(self, x, order):
        return Jet.constant(self.number, x, order)


class Var(FunctionExpr):
    __slots__ = ()

    def eval_jet(self, x, order):
        return Jet.variable(x, order)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


class BinOp(FunctionExpr):
    """A binary operation.  A ``Const`` operand of + - *, or a nonzero
    ``Const`` divisor or numerator, is applied as a number, with no
    constant jet."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: FunctionExpr, right: FunctionExpr):
        if op not in "+-*/":
            raise ValueError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval_jet(self, x, order):
        op, left, right = self.op, self.left, self.right
        if type(right) is Const and (op != "/" or right.number != 0):
            return _BINARY[op](left.eval_jet(x, order), right.number)
        a = left.number if type(left) is Const \
            and (op != "/" or left.number != 0) else left.eval_jet(x, order)
        b = right.eval_jet(x, order)
        if op != "/":
            return _BINARY[op](a, b)
        try:
            return a / b
        except JetError:
            raise ExpressionDomainError("division by zero", self.right,
                                        _first_zero(x, b)) from None


class Pow(FunctionExpr):
    __slots__ = ("base_expr", "exponent")

    def __init__(self, base_expr: FunctionExpr, exponent: int):
        self.base_expr = base_expr
        self.exponent = int(exponent)

    def eval_jet(self, x, order):
        u = self.base_expr.eval_jet(x, order)
        try:
            return jet_powi(u, self.exponent)
        except JetError:
            raise ExpressionDomainError("zero raised to a negative power",
                                        self.base_expr,
                                        _first_zero(x, u)) from None


_JET_CALLS = {
    "exp": jet_exp,
    "sinh": jet_sinh,
    "cosh": jet_cosh,
    "tanh": jet_tanh,
    "sqrt": jet_sqrt,
}


class Call(FunctionExpr):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: FunctionExpr):
        if func not in _JET_CALLS:
            raise ValueError(f"unknown function {func!r}")
        self.func = func
        self.arg = arg

    def eval_jet(self, x, order):
        u = self.arg.eval_jet(x, order)
        try:
            return _JET_CALLS[self.func](u)
        except JetError:  # only sqrt can fail: a zero of its argument
            raise ExpressionDomainError("sqrt at a zero", self.arg,
                                        _first_zero(x, u)) from None


class Deriv(FunctionExpr):
    """Exact derivative of a subtree (internal node, not in the grammar)."""

    __slots__ = ("arg",)

    def __init__(self, arg: FunctionExpr):
        self.arg = arg

    def eval_jet(self, x, order):
        return self.arg.eval_jet(x, order + 1).deriv()


# the extra knots of every Antideriv table: the dyadic seeds of one
# integral over [-2^60, 2^60] (159 knots), 1/4 apart on [-1, 1], four
# to an octave out to 16 and one to an octave beyond
_LATTICE = quad._seed_breakpoints(-2.0**60, 2.0**60)


class Antideriv(FunctionExpr):
    """Antiderivative with value 0 at x = 0, evaluated by adaptive
    quadrature.

    Each call builds its own table: the sorted unique points, 0, and the
    knots of a fixed lattice (``_LATTICE``) that lie between them and
    0 cut the line into segments, all of them are integrated in one
    vector-valued quadrature, and cumulative sums run outward from 0.
    Only the requested points are read from the table.  Each segment is
    mapped to t in [0, 1], and the first pass is one 15-point Kronrod
    panel over [0, 1]; a panel is bisected only where some segment misses
    its share of the tolerance.  The lattice keeps every segment within a
    quarter of [-1, 1] or of an octave out to 16, and within one octave
    beyond, so the first pass of a smooth argument converges however far
    apart the points are; the knots already cut the line, so splitting
    [0, 1] into dyadic seed panels as well would quadruple the
    evaluations.  No state is kept between calls, so
    a value depends only on the set of points requested with it, not on
    their order, on duplicates or on earlier calls.

    The grammar gives a node one argument.  An internal node may take
    several, ``Antideriv(f, g, ...)``: they share the segment table and
    the quadrature (one component per segment and argument), so one pass
    serves them all, as the two vacua of a general model do.  The node's
    value is the antiderivative of its first argument, and
    :meth:`value_at` and :meth:`jets` give every argument's.
    """

    __slots__ = ("args",)

    def __init__(self, *args: FunctionExpr):
        self.args = args

    @property
    def arg(self) -> FunctionExpr:
        return self.args[0]

    def value_at(self, x):
        """Values at a float (a complex) or at every point of an array;
        for several arguments, one such value per argument along a new
        leading axis."""
        xs = real_base(x)
        finite = np.isfinite(xs)
        if not finite.all():
            raise ExpressionDomainError("non-finite point", self,
                                        float(xs[~finite].flat[0]))
        points = np.unique(np.append(xs.ravel(), 0.0))
        inside = (_LATTICE > points[0]) & (_LATTICE < points[-1])
        knots = np.union1d(points, _LATTICE[inside])
        lo, width = knots[:-1], np.diff(knots)
        values = np.zeros((len(self.args), knots.size), dtype=np.complex128)
        if lo.size:
            # segment k is t -> lo_k + width_k t on [0, 1]; component
            # i * len(lo) + k is argument i on segment k
            def segments(t):
                at = lo + width * t[:, None]
                return np.concatenate([f.eval_values(at) * width
                                       for f in self.args], axis=1)

            try:
                inc = quad.integrate_line(
                    segments, 0.0, 1.0, tol=1e-13, _first_edges=(0.0, 1.0)
                ).value.reshape(len(self.args), lo.size)
            except quad.QuadratureError as exc:
                raise self._diverged(exc, points, knots) from exc
            zero = int(np.searchsorted(knots, 0.0))
            values[:, zero + 1:] = np.cumsum(inc[:, zero:], axis=1)
            values[:, :zero] = -np.cumsum(inc[:, :zero][:, ::-1],
                                          axis=1)[:, ::-1]
        out = values[:, np.searchsorted(knots, xs)]
        if len(self.args) == 1:
            out = out[0]
        return complex(out) if out.ndim == 0 else out

    def _diverged(self, exc, points, knots) -> ExpressionDomainError:
        """The domain error of a quadrature that raised ``exc``: it names
        the argument and the segment with the worst error estimate, and
        the requested point nearest that segment on its side away from 0
        (at or beyond its outer end, which may be a lattice knot)."""
        segments = knots.size - 1
        i, k = divmod(int(np.argmax(np.broadcast_to(
            exc.error_estimate, (len(self.args) * segments,)))), segments)
        if knots[k] >= 0.0:
            bad = points[np.searchsorted(points, knots[k + 1])]
        else:
            bad = points[np.searchsorted(points, knots[k], "right") - 1]
        node = self if len(self.args) == 1 else Antideriv(self.args[i])
        return ExpressionDomainError(
            f"antiderivative does not converge ({exc})", node, float(bad))

    def jets(self, x, order: int, which=None) -> list:
        """The jets at x of the antiderivatives of the arguments at the
        indices ``which`` (default: all), from one :meth:`value_at`."""
        values = self.value_at(x)
        if len(self.args) == 1:
            values = [values]
        out = []
        for i in range(len(self.args)) if which is None else which:
            v = quad.real_if_exact(values[i])
            out.append(Jet(x, v[np.newaxis]) if order == 0 else
                       self.args[i].eval_jet(x, order - 1).antideriv(v))
        return out

    def eval_jet(self, x, order):
        return self.jets(x, order, (0,))[0]


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

_FUNCS = ("exp", "sinh", "cosh", "tanh", "sqrt", "antideriv")


class _Scanner:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def _line_col(self, pos: int) -> tuple[int, int]:
        upto = self.src[:pos]
        line = upto.count("\n") + 1
        col = pos - (upto.rfind("\n") + 1) + 1
        return line, col

    def error(self, message: str, pos: int | None = None):
        line, col = self._line_col(self.pos if pos is None else pos)
        raise ExpressionSyntaxError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def match(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.match(ch):
            got = self.peek() or "end of input"
            self.error(f"expected {ch!r}, found {got!r}")

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        src = self.src
        n = len(src)
        while self.pos < n and src[self.pos].isdigit():
            self.pos += 1
        if self.pos < n and src[self.pos] == ".":
            self.pos += 1
            while self.pos < n and src[self.pos].isdigit():
                self.pos += 1
        if self.pos == start or src[start : self.pos] == ".":
            self.error("expected a number", start)
        if self.pos < n and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and src[self.pos].isdigit():
                while self.pos < n and src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent after all
        return float(src[start : self.pos])

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.src) and self.src[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer exponent", start)
        return int(self.src[start : self.pos])

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isalpha():
            self.pos += 1
        return self.src[start : self.pos]


def parse_expr(src: str) -> FunctionExpr:
    """Parse source text into an expression tree.

    Raises :class:`ExpressionSyntaxError` with line/column on malformed
    input and on unknown identifiers.
    """
    sc = _Scanner(src)
    tree = _parse_sum(sc)
    sc.skip_ws()
    if sc.pos != len(sc.src):
        sc.error(f"unexpected trailing input {sc.src[sc.pos]!r}")
    return tree


def _parse_sum(sc: _Scanner) -> FunctionExpr:
    if sc.peek() == "-":  # leading minus: sugar for 0 - term
        sc.take()
        node = BinOp("-", Const(0.0), _parse_term(sc))
    else:
        node = _parse_term(sc)
    while True:
        ch = sc.peek()
        if ch in ("+", "-"):
            sc.take()
            node = BinOp(ch, node, _parse_term(sc))
        else:
            return node


def _parse_term(sc: _Scanner) -> FunctionExpr:
    node = _parse_factor(sc)
    while True:
        ch = sc.peek()
        if ch in ("*", "/"):
            sc.take()
            node = BinOp(ch, node, _parse_factor(sc))
        else:
            return node


def _parse_factor(sc: _Scanner) -> FunctionExpr:
    node = _parse_base(sc)
    if sc.peek() == "^":
        sc.take()
        node = Pow(node, sc.integer())
    return node


def _parse_base(sc: _Scanner) -> FunctionExpr:
    ch = sc.peek()
    if ch == "":
        sc.error("unexpected end of input")
    if ch == "(":
        sc.take()
        node = _parse_sum(sc)
        sc.expect(")")
        return node
    if ch.isdigit() or ch == ".":
        return Const(sc.number())
    if ch.isalpha():
        start = sc.pos
        name = sc.identifier()
        if name == "x":
            return Var()
        if name == "i":
            return Const(1j)
        if name in _FUNCS:
            sc.expect("(")
            arg = _parse_sum(sc)
            sc.expect(")")
            if name == "antideriv":
                return Antideriv(arg)
            return Call(name, arg)
        sc.error(f"unknown identifier {name!r}", start)
    sc.error(f"unexpected character {ch!r}")


# ----------------------------------------------------------------------
# Printer and structural comparison
# ----------------------------------------------------------------------

def _num_to_source(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


def to_source(expr: FunctionExpr) -> str:
    """Grammar-conformant source for a tree.

    For any tree the parser can produce, reparsing the printed source
    yields a structurally identical tree.  Programmatically built trees
    holding negative or complex constants print to valid, value-equal
    source (the grammar has no negative literals, so structure is not
    preserved for those).  ``Deriv`` nodes print for diagnostics only and
    do not reparse.
    """
    return _print(expr, 0)


def _print(e: FunctionExpr, parent_prec: int) -> str:
    # precedence: sum 1, term 2, power 3, atom 4
    if isinstance(e, Const):
        v = e.value
        if v.imag == 0:
            s = _num_to_source(v.real)
            prec = 4 if v.real >= 0 else 1
        elif v.real == 0 and v.imag == 1:
            s, prec = "i", 4
        elif v.real == 0:
            s = f"{_num_to_source(v.imag)}*i"
            prec = 2 if v.imag > 0 else 1
        else:
            sign = "+" if v.imag >= 0 else "-"
            s = (f"{_num_to_source(v.real)} {sign} "
                 f"{_num_to_source(abs(v.imag))}*i")
            prec = 1
        return f"({s})" if prec < parent_prec else s
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Call):
        return f"{e.func}({_print(e.arg, 0)})"
    if isinstance(e, Antideriv):  # several arguments: diagnostics only
        return f"antideriv({', '.join(_print(a, 0) for a in e.args)})"
    if isinstance(e, Deriv):
        return f"deriv({_print(e.arg, 0)})"
    if isinstance(e, Pow):
        base = _print(e.base_expr, 4)
        if isinstance(e.base_expr, Pow):  # '^' does not self-nest
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, BinOp):
        if e.op in "+-":
            prec = 1
            s = f"{_print(e.left, 1)} {e.op} {_print(e.right, 2)}"
        else:
            prec = 2
            s = f"{_print(e.left, 2)}{e.op}{_print(e.right, 3)}"
        return f"({s})" if prec < parent_prec else s
    raise TypeError(f"not an expression node: {e!r}")


def same_structure(a: FunctionExpr, b: FunctionExpr) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return a.value == b.value
    if isinstance(a, Var):
        return True
    if isinstance(a, BinOp):
        return (a.op == b.op and same_structure(a.left, b.left)
                and same_structure(a.right, b.right))
    if isinstance(a, Pow):
        return (a.exponent == b.exponent
                and same_structure(a.base_expr, b.base_expr))
    if isinstance(a, Call):
        return a.func == b.func and same_structure(a.arg, b.arg)
    if isinstance(a, Antideriv):
        return len(a.args) == len(b.args) and all(
            map(same_structure, a.args, b.args))
    if isinstance(a, Deriv):
        return same_structure(a.arg, b.arg)
    return False
