"""Truncated univariate Taylor ("jet") arithmetic.

A jet stores the Taylor coefficients of a function at a real base point,
c_k = f^(k)(x) / k!, up to a fixed truncation order.  The base may also be
a float array: the coefficients then stack along axis 0, one column per
point, so a whole grid goes through one pass of the same recurrences, and
each column rounds exactly like the scalar jet at that point.  A stacked
jet (:meth:`Jet.stack`) adds a leading axis to such a base, one row per
level or test function, so one pass serves a whole family; a jet on the
grid joins it through :meth:`Jet.broadcast`.

All derivative propagation in this package happens through jets:
applying a first-order ladder operator consumes exactly one order,
applying a second-order Hamiltonian consumes two, and the state
recursions consume one order per level.  Truncation is exact: retained
coefficients never depend on the discarded ones.

Coefficients take the dtype of their inputs: float64 where every input
is exactly real (the real models' coefficients, their vacua and states),
complex128 as soon as a complex constant or scale, a complex coefficient
array, or the square root of a negative value enters (``jet_sqrt`` keeps
its principal branch by promoting).  A number operand counts as real when
its imaginary part is exactly 0.  Every real division is rounded as numpy's
complex division rounds it when all imaginary parts are 0, as a * (1 / b)
(Smith, CACM 5 (1962) 435), so real jet arithmetic equals the real part
of the complex arithmetic on the same inputs; exp, sinh, cosh and tanh
take numpy's real functions, which may differ from its complex ones in
the last bit.  Base points are real: a complex point is
a JetError, unless its imaginary part is exactly 0.  Conjugating a jet
coefficient-wise yields the jet of x -> conj(f(x)), which is valid because
base points and increments are real.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Jet",
    "JetError",
    "jet_exp",
    "jet_sinh",
    "jet_cosh",
    "jet_tanh",
    "jet_sqrt",
    "jet_powi",
    "jet_hermite",
    "hermite_coeffs",
    "sqrt_factorial",
    "as_number",
    "real_base",
]

_MAX_ORDER = 40  # the order capacity of every jet


class JetError(Exception):
    """Raised for invalid jet arithmetic (mismatched jets, singular division,
    or exceeded truncation-order capacity)."""


def _check_order(order: int) -> int:
    order = int(order)
    if order < 0:
        raise JetError("jet order must be nonnegative")
    if order > _MAX_ORDER:
        raise JetError(
            f"jet capacity exceeded: order {order} > max {_MAX_ORDER}")
    return order


class Jet:
    """Taylor coefficients c_0..c_order of a function at a real base point,
    or at every point of a float array at once.

    A scalar base carries coefficients of shape ``(order+1,)``; an array
    base of shape ``S`` carries ``(order+1, *S)``, and every operation
    works along axis 0 with the same recurrences.  Coefficients are
    float64, or complex128 when the given ones are complex.

    Shapes and the order capacity are validated here and wherever an
    order is requested (:meth:`constant`, :meth:`variable`,
    :meth:`antideriv`, :meth:`truncate`); the results of arithmetic on
    validated jets are trusted and built without re-checking.
    """

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        base = _as_base(base)
        shape = _shape(base)
        c = np.asarray(coeffs)
        c = c.astype(np.complex128 if c.dtype.kind == "c" else np.float64,
                     copy=False)
        if c.ndim != 1 + len(shape) or c.shape[1:] != shape \
                or c.shape[0] == 0:
            raise JetError(
                f"coefficients must have shape (order+1, *{shape}), "
                f"not {c.shape}"
            )
        _check_order(c.shape[0] - 1)
        self.base = base
        self.coeffs = c

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: complex, base, order: int) -> "Jet":
        """The jet of a constant: float64 unless ``value`` has a nonzero
        imaginary part."""
        base = _as_base(base)
        value = as_number(value)
        c = np.zeros((_check_order(order) + 1,) + _shape(base),
                     dtype=type(value))
        c[0] = value
        return _jet(base, c)

    @classmethod
    def variable(cls, base, order: int) -> "Jet":
        base = _as_base(base)
        c = np.zeros((_check_order(order) + 1,) + _shape(base))
        c[0] = base
        if order >= 1:
            c[1] = 1.0
        return _jet(base, c)

    @classmethod
    def stack(cls, jets) -> "Jet":
        """Jets of one base and order as one stacked jet: its base is
        theirs broadcast along a new leading axis, one row per jet, so one
        pass of any operation serves them all and each row rounds exactly
        like the jet it came from."""
        first = jets[0]
        for other in jets[1:]:
            first._check(other)
        return cls(_stacked_base(first.base, len(jets)),
                   np.stack([j.coeffs for j in jets], axis=1))

    # -- stacked jets -------------------------------------------------

    def take(self, rows) -> "Jet":
        """Rows ``rows`` of a stacked jet, as one stacked jet."""
        rows = list(rows)
        return Jet(_stacked_base(self.base[0], len(rows)),
                   self.coeffs[:, rows])

    def rows(self) -> list:
        """The jets of the rows of a stacked jet, as :meth:`stack` took
        them."""
        base = self.base[0]
        return [Jet(base, self.coeffs[:, i])
                for i in range(self.coeffs.shape[1])]

    def broadcast(self, base) -> "Jet":
        """This jet on every row of the stacked base ``base`` (one whose
        trailing axes are this jet's base), as a read-only view that
        shares ``base`` itself, so that arithmetic with the jets on it
        checks their bases by identity."""
        base = np.asarray(base, dtype=float)
        lead = base.ndim - np.ndim(self.base)
        if lead < 0 or base.shape[lead:] != np.shape(self.base):
            raise JetError(f"cannot broadcast a jet on base shape "
                           f"{np.shape(self.base)} to {np.shape(base)}")
        # a base broadcast from one row is checked on that row alone
        if any(base.strides[:lead]):
            same = np.all(np.equal(base, self.base))
        else:
            same = _same_base(base[(0,) * lead], self.base)
        if not same:
            raise JetError("mismatched base points: the stacked base's rows "
                           "are not this jet's base")
        index = (slice(None),) + (None,) * lead
        return Jet(base, np.broadcast_to(self.coeffs[index],
                                         (self.order + 1,) + base.shape))

    # -- basic queries ------------------------------------------------

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def value(self):
        """f(base): a float or a complex (the coefficients' dtype) for a
        scalar base, an array for an array."""
        c0 = self.coeffs[0]
        return c0.item() if self.coeffs.ndim == 1 else c0

    def derivative(self, k: int = 1):
        """k-th derivative value, f^(k)(base) = k! * c_k."""
        if k > self.order:
            raise JetError(f"jet of order {self.order} has no derivative {k}")
        ck = self.coeffs[k] * float(math.factorial(k))
        return ck.item() if self.coeffs.ndim == 1 else ck

    def __repr__(self) -> str:
        return f"Jet(base={self.base!r}, coeffs={self.coeffs.tolist()!r})"

    # -- structural ops -----------------------------------------------

    def truncate(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise JetError("cannot truncate upwards")
        return Jet(self.base, self.coeffs[: _check_order(order) + 1])

    def deriv(self) -> "Jet":
        """Jet of f' at the same base point, one order lower."""
        if self.order == 0:
            raise JetError("insufficient jet order for a derivative")
        tail = self.coeffs[1:]
        return _jet(self.base, tail * _ramp(1, tail))

    def antideriv(self, value_at_base) -> "Jet":
        """Jet of an antiderivative F with F(base) = value_at_base."""
        _check_order(self.order + 1)
        if isinstance(value_at_base, _NUMBER):
            value_at_base = as_number(value_at_base)
        c = np.empty((self.order + 2,) + self.coeffs.shape[1:],
                     dtype=np.result_type(self.coeffs, value_at_base))
        c[0] = value_at_base
        c[1:] = _over(self.coeffs, _ramp(1, self.coeffs))
        return _jet(self.base, c)

    def conjugate(self) -> "Jet":
        """Jet of x -> conj(f(x)); valid because increments are real.  A
        real jet is its own conjugate."""
        if self.coeffs.dtype.kind == "f":
            return self
        return _jet(self.base, np.conj(self.coeffs))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Jet") -> None:
        if self.base is other.base \
                and self.coeffs.shape[0] == other.coeffs.shape[0]:
            return
        if not _same_base(self.base, other.base):
            raise JetError(
                f"mismatched base points: {self.base} vs {other.base}"
            )
        if other.order != self.order:
            raise JetError(
                f"mismatched orders: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, _NUMBER):
            other = as_number(other)
            c = self.coeffs.astype(np.complex128) if type(other) is complex \
                else self.coeffs.copy()
            c[0] += other
            return _jet(self.base, c)
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        return _jet(self.base, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.base, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, _NUMBER):
            return self + (-other)
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        return _jet(self.base, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return _jet(self.base, self.coeffs * as_number(other))
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        return _jet(self.base, _mul_coeffs(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        # the number stays the left factor: numpy's complex product is not
        # bitwise commutative
        if isinstance(other, _NUMBER):
            return _jet(self.base, as_number(other) * self.coeffs)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _NUMBER):
            return _jet(self.base, _over(self.coeffs, as_number(other)))
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        return _div(self, other)

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return _div(as_number(other), self)
        return NotImplemented


_NUMBER = (int, float, complex, np.number)


def as_number(value):
    """A number as a float where it is exactly real (its imaginary part is
    0, of either sign), else as a complex: the dtype rule of jets for a
    constant or a number operand."""
    if type(value) is float:
        return value
    value = complex(value)
    return value if value.imag else value.real


def _over(a, b):
    """a / b for coefficients a (an array or one row of one) and a divisor
    b: an array, a numpy scalar, an int or a float or complex number (see
    :func:`as_number`).  Where both are real it is rounded as a * (1 / b),
    as numpy's complex division rounds a quotient whose imaginary parts
    are all 0 (Smith, CACM 5 (1962) 435), so a real quotient is the real
    part of the complex one; the reciprocal of an exact 0 is inf, as
    numpy's.  This is the one place that rounds a jet's quotient."""
    if _is_real(a) and _is_real(b):
        return a * (_ONE / b)
    return a / b


_ONE = np.float64(1.0)  # its quotients are numpy's: 1 / 0 is inf


def _is_real(x) -> bool:
    dtype = getattr(x, "dtype", None)
    return type(x) is not complex if dtype is None else dtype.kind != "c"


def _jet(base, coeffs: np.ndarray) -> Jet:
    """A jet that only assigns: ``base`` is already a float or a float
    array and ``coeffs`` a float64 or complex128 array that fits it within
    capacity."""
    jet = object.__new__(Jet)
    jet.base = base
    jet.coeffs = coeffs
    return jet


def real_base(x) -> np.ndarray:
    """x, a point or an array of points, as a float array (0-d for a
    point).  A complex point is read as real where its imaginary part is
    exactly 0, and is a JetError naming it anywhere else: jets and the
    expressions built on them take real points, never a silent cast."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        bad = np.ravel(x.imag != 0)
        if bad.any():
            raise JetError(f"complex point {np.ravel(x)[np.argmax(bad)]}: "
                           "jets are taken at real points")
        x = x.real
    return x.astype(float, copy=False)


def _as_base(base):
    """A base point as a float, or a base array as a float array (the
    same object when it is one already), by :func:`real_base`."""
    if type(base) is float:
        return base
    base = real_base(base)
    return base if base.shape else float(base)


def _shape(base) -> tuple:
    """The shape of a base from :func:`_as_base`."""
    return () if type(base) is float else base.shape


def _same_base(a, b) -> bool:
    if a is b:
        return True
    if type(a) is float and type(b) is float:
        return a == b
    return np.shape(a) == np.shape(b) and bool(np.all(np.equal(a, b)))


def _stacked_base(row, count: int) -> np.ndarray:
    """``count`` copies of the base ``row`` along a new leading axis, as a
    read-only view."""
    return np.broadcast_to(row, (count,) + np.shape(row))


def _ramp(start: int, c: np.ndarray) -> np.ndarray:
    """start, start+1, ... along axis 0, shaped to broadcast against c."""
    k = np.arange(start, start + c.shape[0], dtype=float)
    return k.reshape((-1,) + (1,) * (c.ndim - 1))


def _dot0(a: np.ndarray, b: np.ndarray):
    """sum_i a[i] b[i] along axis 0, added strictly in order: an
    accumulation (not sum, which pairs terms differently for 1-d input)
    makes a scalar jet and each column of a batched one round
    identically."""
    if a.shape[0] == 0:
        return 0.0
    return np.add.accumulate(a * b)[-1]


# x + pad == x bitwise, for every x of the pad's dtype
_NEG_ZERO = {"f": -0.0, "c": complex(-0.0, -0.0)}


def _mul_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated Cauchy product c_k = sum_j a_j b_(k-j) along axis 0,
    accumulated in j order for scalar and batched jets alike.

    A scalar jet's product takes no Python loop: row j of an
    (n, 2n - 1) table holds a_j b and then -0.0; read with row stride
    2n - 2, column k of row j holds a_j b_(k-j) (-0.0 where j > k), and
    one accumulation over the rows adds the terms in j order."""
    n = a.shape[0]
    if a.ndim == 1 and n > 1:
        dtype = np.result_type(a, b)
        t = np.empty((n, 2 * n - 1), dtype=dtype)
        t[:, n:] = _NEG_ZERO[dtype.kind]
        np.multiply(a[:, None], b, out=t[:, :n])
        shifted = t.reshape(-1)[: n * (2 * n - 2)].reshape(n, -1)[:, :n]
        return np.add.accumulate(shifted)[-1]
    out = a[0] * b
    for j in range(1, n):
        out[j:] += a[j] * b[: n - j]
    return out


def _div(a, b: Jet) -> Jet:
    """a / b for a jet a of b's base and order, or a number a, which
    builds no constant jet: its higher coefficients are the number 0.0,
    so each 0.0 - sum rounds as the constant jet's would, signs of zeros
    included."""
    b0 = b.coeffs[0]
    if np.count_nonzero(b0) < np.size(b0):  # NaN is not zero
        raise JetError("division by a jet with zero constant term")
    if isinstance(a, Jet):
        base, a = a.base, a.coeffs
    else:
        base, a = b.base, [a] + [0.0] * b.order
    if len(a) == 1:
        return _jet(base, _over(a[0], b.coeffs))
    out = np.empty(b.coeffs.shape, dtype=np.result_type(a[0], b0))
    out[0] = _over(a[0], b0)
    for k in range(1, len(a)):
        acc = a[k] - _dot0(b.coeffs[1 : k + 1], out[k - 1 :: -1])
        out[k] = _over(acc, b0)
    return _jet(base, out)


# -- analytic compositions ---------------------------------------------
#
# These use the standard power-series recurrences driven by u' rather than
# a generic Faa di Bruno expansion; each is O(order^2) and exact for the
# retained coefficients.


# At order 0 each function is just its value, with no recurrence.


def _rate(u: Jet) -> np.ndarray:
    """k c_k, the coefficients that drive the recurrences through u'."""
    return _ramp(0, u.coeffs) * u.coeffs


def jet_exp(u: Jet) -> Jet:
    if not u.order:
        return _jet(u.base, np.exp(u.coeffs))
    f = np.empty_like(u.coeffs)
    f[0] = np.exp(u.coeffs[0])
    ku = _rate(u)
    for k in range(1, u.order + 1):
        f[k] = _over(_dot0(ku[1 : k + 1], f[k - 1 :: -1]), k)
    return _jet(u.base, f)


def _sinh_cosh(u: Jet) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of sinh(u) and cosh(u), whose recurrences feed each
    other."""
    s = np.empty_like(u.coeffs)
    c = np.empty_like(u.coeffs)
    s[0] = np.sinh(u.coeffs[0])
    c[0] = np.cosh(u.coeffs[0])
    ku = _rate(u)
    for k in range(1, u.order + 1):
        s[k] = _over(_dot0(ku[1 : k + 1], c[k - 1 :: -1]), k)
        c[k] = _over(_dot0(ku[1 : k + 1], s[k - 1 :: -1]), k)
    return s, c


def jet_sinh(u: Jet) -> Jet:
    if not u.order:
        return _jet(u.base, np.sinh(u.coeffs))
    return _jet(u.base, _sinh_cosh(u)[0])


def jet_cosh(u: Jet) -> Jet:
    if not u.order:
        return _jet(u.base, np.cosh(u.coeffs))
    return _jet(u.base, _sinh_cosh(u)[1])


def jet_tanh(u: Jet) -> Jet:
    """t = tanh(u) from t' = (1 - t^2) u', with w = 1 - t^2 carried along
    as its own series; finite wherever tanh(u_0) is (no sinh/cosh
    overflow)."""
    if not u.order:
        return _jet(u.base, np.tanh(u.coeffs))
    t = np.empty_like(u.coeffs)
    w = np.empty_like(u.coeffs)
    t[0] = np.tanh(u.coeffs[0])
    # the ufunc: numpy's scalar product rounds unlike a batched column's
    w[0] = 1.0 - np.multiply(t[0], t[0])
    ku = _rate(u)
    for k in range(1, u.order + 1):
        t[k] = _over(_dot0(ku[1 : k + 1], w[k - 1 :: -1]), k)
        w[k] = -_dot0(t[: k + 1], t[k::-1])
    return _jet(u.base, t)


def jet_sqrt(u: Jet) -> Jet:
    """The principal square root: real where u's value is real and
    positive everywhere, complex where it is negative somewhere."""
    c = u.coeffs
    if np.any(c[0] == 0):
        raise JetError("sqrt of a jet with zero constant term")
    if c.dtype.kind == "f" and np.any(c[0] < 0):
        c = c.astype(np.complex128)
    real = c.dtype.kind == "f"
    r = np.empty_like(c)
    r[0] = np.sqrt(c[0]) if real else np.sqrt(c[0] + 0j)  # principal branch
    for k in range(1, u.order + 1):
        r[k] = _over(c[k] - _dot0(r[1:k], r[k - 1 : 0 : -1]), 2 * r[0])
    return _jet(u.base, r)


def jet_powi(u: Jet, k: int) -> Jet:
    """Integer power by binary exponentiation; negative k via reciprocal."""
    k = int(k)
    if k < 0:
        return jet_powi(1.0 / u, -k)
    result = None
    square = u
    while k:
        if k & 1:
            result = square if result is None else result * square
        k >>= 1
        if k:
            square = square * square
    return Jet.constant(1.0, u.base, u.order) if result is None else result


def hermite_coeffs(ns, u: np.ndarray) -> np.ndarray:
    """The one Hermite recurrence: coefficients of h_k(u) = H_k(u) /
    sqrt(2^k k!) for the degrees k of ``ns``, stacked along axis 1 of the
    coefficients ``u`` (shape (order + 1, *S)), in u's dtype, by
    h_{k+1} = sqrt(2/(k+1)) u h_k - sqrt(k/(k+1)) h_{k-1} (Numerical
    Recipes 3rd ed., section 4.6), which stays in double range far past
    the degree where H_k leaves it.  It fills one array in place; degrees
    0..top in order return it, others a fresh selection of it."""
    ns = [int(k) for k in ns]
    if min(ns, default=0) < 0:
        raise JetError("Hermite degree must be nonnegative")
    top, order = max(ns, default=0), u.shape[0] - 1
    out = np.empty((top + 1,) + u.shape, dtype=u.dtype)  # degree first
    out[0] = 0.0
    out[0, 0] = 1.0
    # at order 0 the rows are values, and each step is elementwise
    h, v = (out, u) if order else (out[:, 0], u[0])
    if top:
        np.multiply(v, math.sqrt(2.0), out=h[1, ...])
        tmp = np.empty_like(v)
    for k in range(1, top):
        row = h[k + 1, ...]  # an array also where the rows are 0-d
        uh = _mul_coeffs(v, h[k]) if order else np.multiply(v, h[k], out=row)
        np.multiply(uh, math.sqrt(2.0 / (k + 1)), out=row)
        np.multiply(h[k - 1], math.sqrt(k / (k + 1)), out=tmp)
        np.subtract(row, tmp, out=row)
    out = out.swapaxes(0, 1)
    return out if ns == list(range(top + 1)) else out[:, ns]


def jet_hermite(u: Jet, n):
    """Jet of h_n(u) = H_n(u) / sqrt(2^n n!) from :func:`hermite_coeffs`.

    ``n`` is one degree, or a sequence of degrees: one recurrence then
    serves them all and the list of their jets is returned, each bitwise
    the single-degree result.
    """
    rows = hermite_coeffs(np.ravel(n), u.coeffs)
    out = [_jet(u.base, rows[:, i]) for i in range(rows.shape[1])]
    return out[0] if np.ndim(n) == 0 else out


def sqrt_factorial(n: int) -> float:
    """sqrt(n!) computed in log space; safe far beyond n = 170."""
    return math.exp(0.5 * math.lgamma(n + 1.0))
