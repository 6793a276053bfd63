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


class Antideriv(FunctionExpr):
    """Antiderivative with value 0 at x = 0, evaluated by adaptive
    quadrature.

    Each call builds its own table: the sorted unique points together
    with 0 cut the line into segments, all of them are integrated in one
    vector-valued quadrature, and cumulative sums run outward from 0.
    Each segment is mapped to t in [0, 1], and the first pass is one
    15-point Kronrod panel over [0, 1]; a panel is bisected only where
    some segment misses its share of the tolerance.  The requested points
    already cut the line, so splitting [0, 1] into dyadic seed panels
    first would quadruple the evaluations of a smooth call.  No
    state is kept between calls, so a value depends only on the set of
    points requested with it, not on their order, on duplicates or on
    earlier calls.
    """

    __slots__ = ("arg",)

    def __init__(self, arg: FunctionExpr):
        self.arg = arg

    def value_at(self, x):
        """Values at a float (a complex) or at every point of an array."""
        from . import quad  # deferred: quad imports nothing back

        xs = real_base(x)
        finite = np.isfinite(xs)
        if not finite.all():
            raise ExpressionDomainError("non-finite point", self,
                                        float(xs[~finite].flat[0]))
        knots, where = np.unique(np.append(xs.ravel(), 0.0),
                                 return_inverse=True)
        lo, width = knots[:-1], np.diff(knots)
        values = np.zeros(knots.size, dtype=np.complex128)
        if lo.size:
            # segment k is t -> lo_k + width_k t on [0, 1]
            try:
                inc = quad.integrate_line(
                    lambda t: self.arg.eval_values(lo + width * t[:, None])
                    * width, 0.0, 1.0, tol=1e-13, _first_edges=(0.0, 1.0)
                ).value
            except quad.QuadratureError as exc:
                k = int(np.argmax(np.broadcast_to(exc.error_estimate,
                                                  lo.shape)))
                # the requested end of the worst segment: away from 0
                bad = knots[k + 1] if knots[k] >= 0.0 else knots[k]
                raise ExpressionDomainError(
                    f"antiderivative does not converge ({exc})", self,
                    float(bad)) from exc
            zero = int(np.searchsorted(knots, 0.0))
            values[zero + 1:] = np.cumsum(inc[zero:])
            values[:zero] = -np.cumsum(inc[:zero][::-1])[::-1]
        out = values[where[:-1]].reshape(xs.shape)
        return complex(out) if xs.ndim == 0 else out

    def eval_jet(self, x, order):
        from . import quad  # deferred, as in value_at

        v = quad.real_if_exact(self.value_at(x))
        if order == 0:
            return Jet(x, v[np.newaxis])
        return self.arg.eval_jet(x, order - 1).antideriv(v)


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
    if isinstance(e, Antideriv):
        return f"antideriv({_print(e.arg, 0)})"
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
    if isinstance(a, (Antideriv, Deriv)):
        return same_structure(a.arg, b.arg)
    return False
