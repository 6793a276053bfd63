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

Coefficients are complex throughout; real models simply carry zero
imaginary parts.  Conjugating a jet coefficient-wise yields the jet of
x -> conj(f(x)), which is valid because base points and increments are
real.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Jet",
    "JetError",
    "get_max_order",
    "set_max_order",
    "jet_exp",
    "jet_sinh",
    "jet_cosh",
    "jet_tanh",
    "jet_sqrt",
    "jet_powi",
    "jet_hermite",
    "sqrt_factorial",
]

_MAX_ORDER = 40


class JetError(Exception):
    """Raised for invalid jet arithmetic (mismatched jets, singular division,
    or exceeded truncation-order capacity)."""


def get_max_order() -> int:
    return _MAX_ORDER


def set_max_order(order: int) -> None:
    """Raise or lower the global jet-order capacity (default 40)."""
    global _MAX_ORDER
    if order < 0:
        raise ValueError("max order must be nonnegative")
    _MAX_ORDER = int(order)


def _check_order(order: int) -> int:
    order = int(order)
    if order < 0:
        raise JetError("jet order must be nonnegative")
    if order > _MAX_ORDER:
        raise JetError(
            f"jet capacity exceeded: order {order} > max {_MAX_ORDER} "
            "(raise it with jets.set_max_order)"
        )
    return order


class Jet:
    """Taylor coefficients c_0..c_order of a function at a real base point,
    or at every point of a float array at once.

    A scalar base carries coefficients of shape ``(order+1,)``; an array
    base of shape ``S`` carries ``(order+1, *S)``, and every operation
    works along axis 0 with the same recurrences.

    Shapes and the order capacity are validated here and wherever an
    order is requested (:meth:`constant`, :meth:`variable`,
    :meth:`antideriv`, :meth:`truncate`); the results of arithmetic on
    validated jets are trusted and built without re-checking.
    """

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        base = _as_base(base)
        shape = _shape(base)
        c = np.asarray(coeffs, dtype=np.complex128)
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
        base = _as_base(base)
        c = np.zeros((_check_order(order) + 1,) + _shape(base),
                     dtype=np.complex128)
        c[0] = value
        return _jet(base, c)

    @classmethod
    def variable(cls, base, order: int) -> "Jet":
        base = _as_base(base)
        c = np.zeros((_check_order(order) + 1,) + _shape(base),
                     dtype=np.complex128)
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
        """f(base): a complex for a scalar base, an array for an array."""
        c0 = self.coeffs[0]
        return complex(c0) if self.coeffs.ndim == 1 else c0

    def derivative(self, k: int = 1):
        """k-th derivative value, f^(k)(base) = k! * c_k."""
        if k > self.order:
            raise JetError(f"jet of order {self.order} has no derivative {k}")
        ck = self.coeffs[k] * float(math.factorial(k))
        return complex(ck) if self.coeffs.ndim == 1 else ck

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
        c = np.empty((self.order + 2,) + self.coeffs.shape[1:],
                     dtype=np.complex128)
        c[0] = value_at_base
        c[1:] = self.coeffs / _ramp(1, self.coeffs)
        return _jet(self.base, c)

    def conjugate(self) -> "Jet":
        """Jet of x -> conj(f(x)); valid because increments are real."""
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
            c = self.coeffs.copy()
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
            return _jet(self.base, self.coeffs * complex(other))
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        return _jet(self.base, _mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBER):
            return _jet(self.base, self.coeffs / complex(other))
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        return _div(self, other)

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return _div(Jet.constant(other, self.base, self.order), self)
        return NotImplemented


_NUMBER = (int, float, complex, np.number)


def _jet(base, coeffs: np.ndarray) -> Jet:
    """A jet that only assigns: ``base`` is already a float or a float
    array and ``coeffs`` a complex array that fits it within capacity."""
    jet = object.__new__(Jet)
    jet.base = base
    jet.coeffs = coeffs
    return jet


def _as_base(base):
    """A base point as a float, or a base array as a float array (the
    same object when it is one already)."""
    if type(base) is float:
        return base
    base = np.asarray(base, dtype=float)
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


_NEG_ZERO = complex(-0.0, -0.0)  # x + _NEG_ZERO == x bitwise, for every x


def _mul_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated Cauchy product c_k = sum_j a_j b_(k-j) along axis 0,
    accumulated in j order for scalar and batched jets alike.

    A scalar jet's product takes no Python loop: row j of an
    (n, 2n - 1) table holds a_j b and then -0.0; read with row stride
    2n - 2, column k of row j holds a_j b_(k-j) (-0.0 where j > k), and
    one accumulation over the rows adds the terms in j order."""
    n = a.shape[0]
    if a.ndim == 1 and n > 1:
        t = np.empty((n, 2 * n - 1), dtype=np.complex128)
        t[:, n:] = _NEG_ZERO
        np.multiply(a[:, None], b, out=t[:, :n])
        shifted = t.reshape(-1)[: n * (2 * n - 2)].reshape(n, -1)[:, :n]
        return np.add.accumulate(shifted)[-1]
    out = a[0] * b
    for j in range(1, n):
        out[j:] += a[j] * b[: n - j]
    return out


def _div(a: Jet, b: Jet) -> Jet:
    b0 = b.coeffs[0]
    if np.count_nonzero(b0) < np.size(b0):  # NaN is not zero
        raise JetError("division by a jet with zero constant term")
    if a.coeffs.shape[0] == 1:
        return _jet(a.base, a.coeffs / b.coeffs)
    out = np.empty_like(a.coeffs)
    out[0] = a.coeffs[0] / b0
    for k in range(1, a.order + 1):
        acc = a.coeffs[k] - _dot0(b.coeffs[1 : k + 1], out[k - 1 :: -1])
        out[k] = acc / b0
    return _jet(a.base, out)


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
        f[k] = _dot0(ku[1 : k + 1], f[k - 1 :: -1]) / k
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
        s[k] = _dot0(ku[1 : k + 1], c[k - 1 :: -1]) / k
        c[k] = _dot0(ku[1 : k + 1], s[k - 1 :: -1]) / k
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
        t[k] = _dot0(ku[1 : k + 1], w[k - 1 :: -1]) / k
        w[k] = -_dot0(t[: k + 1], t[k::-1])
    return _jet(u.base, t)


def jet_sqrt(u: Jet) -> Jet:
    if np.any(u.coeffs[0] == 0):
        raise JetError("sqrt of a jet with zero constant term")
    r = np.empty_like(u.coeffs)
    r[0] = np.sqrt(u.coeffs[0] + 0j)  # principal branch
    for k in range(1, u.order + 1):
        r[k] = (u.coeffs[k] - _dot0(r[1:k], r[k - 1 : 0 : -1])) / (2 * r[0])
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


def jet_hermite(u: Jet, n):
    """Jet of H_n(u) via the three-term recurrence
    H_{k+1}(y) = 2 y H_k(y) - 2 k H_{k-1}(y).

    The recurrence is used instead of expanded monomial coefficients to
    avoid catastrophic cancellation at moderate degree.  ``n`` is one
    degree, or a sequence of degrees: one recurrence then serves them all
    and the list of their jets is returned, each bitwise the single-degree
    result.
    """
    ns = [int(k) for k in np.ravel(n)]
    if any(k < 0 for k in ns):
        raise JetError("Hermite degree must be nonnegative")
    rows = [Jet.constant(1.0, u.base, u.order)]
    top = max(ns, default=0)
    if top:
        two_u = u * 2.0
        rows.append(two_u)
        for k in range(1, top):
            rows.append(two_u * rows[k] - (2.0 * k) * rows[k - 1])
    out = [rows[k] for k in ns]
    return out[0] if np.ndim(n) == 0 else out


def sqrt_factorial(n: int) -> float:
    """sqrt(n!) computed in log space; safe far beyond n = 170."""
    return math.exp(0.5 * math.lgamma(n + 1.0))
