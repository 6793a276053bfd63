import itertools
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from hypothesis import given, settings, strategies as st

from pseudobosons import jets
from pseudobosons.jets import (
    Jet,
    JetError,
    jet_cosh,
    jet_exp,
    jet_hermite,
    jet_sinh,
    jet_sqrt,
    jet_tanh,
)
from pseudobosons.expressions import parse_expr


def coeffs(j):
    return np.asarray(j.coeffs)


class TestExamples:
    def test_exp_series_at_zero(self):
        j = parse_expr("exp(x)").eval_jet(0.0, 3)
        assert np.allclose(coeffs(j), [1, 1, 0.5, 1 / 6], atol=1e-15)

    def test_constant_one(self):
        j = parse_expr("1").eval_jet(0.37, 2)
        assert np.allclose(coeffs(j), [1, 0, 0], atol=0)

    def test_rational_by_hand(self):
        # d/dx (1+x^2)^(-1) = -2x/(1+x^2)^2, so at x=1: value 1/2, slope -1/2
        j = parse_expr("1/(1+x^2)").eval_jet(1.0, 1)
        assert np.allclose(coeffs(j), [0.5, -0.5], atol=1e-15)

    def test_mul(self):
        a = Jet(0.0, [1, 1])
        b = Jet(0.0, [1, -1])
        assert np.allclose(coeffs(a * b), [1, 0], atol=0)

    def test_div_geometric(self):
        a = Jet(0.0, [1, 0, 0])
        b = Jet(0.0, [1, 0, 1])
        assert np.allclose(coeffs(a / b), [1, 0, -1], atol=0)

    def test_add_inverse(self):
        a = Jet(0.0, [2, 3])
        b = Jet(0.0, [-2, -3])
        assert np.allclose(coeffs(a + b), [0, 0], atol=0)

    def test_exp_compose(self):
        u = Jet(0.0, [0, 1, 0])
        assert np.allclose(coeffs(jet_exp(u)), [1, 1, 0.5], atol=1e-15)

    def test_hermite2_at_zero(self):
        # h_2(0) = H_2(0) / sqrt(2^2 2!) = -2 / sqrt(8)
        u = Jet(0.0, [0.0])
        want = hermval(0.0, [0, 0, 1]) / math.sqrt(8.0)
        assert np.allclose(coeffs(jet_hermite(u, 2)), [want])

    def test_sinh_series(self):
        u = Jet(0.0, [0, 1, 0, 0])
        assert np.allclose(coeffs(jet_sinh(u)), [0, 1, 0, 1 / 6],
                           atol=1e-15)


class TestTanhSaturation:
    @pytest.mark.parametrize("x", [800.0, -800.0])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_tanh_far_out(self, x, order):
        # sinh and cosh overflow here; tanh itself is +-1 with flat slope
        tree = parse_expr("tanh(x)")
        want = np.zeros(order + 1)
        want[0] = math.copysign(1.0, x)
        assert np.array_equal(tree.eval_jet(x, order).coeffs, want)
        assert tree.eval_values(np.array([x]))[0] == want[0]


class TestErrors:
    def test_mismatched_base(self):
        with pytest.raises(JetError, match="base"):
            Jet(0.0, [1, 2]) + Jet(1.0, [1, 2])

    def test_mismatched_order(self):
        with pytest.raises(JetError, match="order"):
            Jet(0.0, [1, 2]) * Jet(0.0, [1, 2, 3])

    def test_div_by_zero_constant_term(self):
        with pytest.raises(JetError, match="zero constant term"):
            Jet(0.0, [1.0, 0.0]) / Jet(0.0, [0.0, 1.0])

    @pytest.mark.parametrize("order", [0, 2])
    def test_division_zero_test(self, order):
        # -0.0 is zero, NaN is not, and one zero point of a batch is enough
        num = np.ones(order + 1)
        with pytest.raises(JetError, match="zero constant term"):
            Jet(0.0, num) / Jet(0.0, [complex(-0.0, -0.0)] + [1.0] * order)
        with pytest.raises(JetError, match="zero constant term"):
            Jet(np.zeros(3), np.ones((order + 1, 3))) \
                / Jet(np.zeros(3), [[1.0, 0.0, 2.0]] + [[1.0] * 3] * order)
        with np.errstate(invalid="ignore"):
            q = Jet(0.0, num) / Jet(0.0, [np.nan] + [1.0] * order)
        assert np.isnan(q.coeffs).all()

    def test_capacity(self):
        with pytest.raises(JetError, match="capacity"):
            Jet.constant(1.0, 0.0, jets.get_max_order() + 1)

    def test_capacity_configurable(self):
        old = jets.get_max_order()
        try:
            jets.set_max_order(old + 5)
            Jet.constant(1.0, 0.0, old + 5)
        finally:
            jets.set_max_order(old)

    def test_deriv_needs_order(self):
        with pytest.raises(JetError):
            Jet(0.0, [1.0]).deriv()

    def test_lowered_capacity_checked_wherever_an_order_is_requested(self):
        jet = Jet(0.0, [1.0, 2.0, 3.0])
        old = jets.get_max_order()
        try:
            jets.set_max_order(2)
            for make in (lambda: Jet(0.0, np.ones(4)),
                         lambda: Jet(np.zeros(5), np.ones((4, 5))),
                         lambda: Jet.constant(1.0, 0.0, 3),
                         lambda: Jet.variable(np.zeros(5), 3),
                         lambda: jet.antideriv(0.0)):
                with pytest.raises(JetError, match="capacity"):
                    make()
        finally:
            jets.set_max_order(old)

    @pytest.mark.parametrize("order", [-1, -2])
    def test_negative_truncation(self, order):
        with pytest.raises(JetError):
            Jet(0.0, [1.0, 2.0, 3.0]).truncate(order)


def _poly_expr(cs):
    # built programmatically: the grammar has no negative literals
    from pseudobosons.expressions import BinOp, Const, Pow, Var

    node = Const(cs[0])
    for k, c in enumerate(cs[1:], start=1):
        node = BinOp("+", node, BinOp("*", Const(c), Pow(Var(), k)))
    return node


small_floats = st.floats(min_value=-3, max_value=3,
                         allow_nan=False, allow_infinity=False)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(cs=st.lists(small_floats, min_size=1, max_size=6),
           x=small_floats, order=st.integers(0, 8))
    def test_polynomial_oracle(self, cs, x, order):
        # oracle: exact polynomial differentiation
        j = _poly_expr(cs).eval_jet(x, order)
        p = np.polynomial.Polynomial(cs)
        for k in range(order + 1):
            want = p.deriv(k)(x) / math.factorial(k) if k <= len(cs) else 0.0
            scale = 1.0 + abs(want)
            assert abs(j.coeffs[k] - want) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(cs=st.lists(small_floats, min_size=1, max_size=5),
           x=small_floats, n=st.integers(2, 8), k=st.integers(0, 2))
    def test_coefficients_independent_of_order(self, cs, x, n, k):
        k = min(k, n - 1)
        expr = _poly_expr(cs)
        low = expr.eval_jet(x, k)
        high = expr.eval_jet(x, n)
        assert abs(low.coeffs[k] - high.coeffs[k]) <= 1e-13 * (
            1 + abs(high.coeffs[k]))

    @settings(max_examples=60, deadline=None)
    @given(a=st.lists(small_floats, min_size=1, max_size=5),
           b=st.lists(small_floats, min_size=1, max_size=5),
           x=small_floats, order=st.integers(0, 6))
    def test_leibniz(self, a, b, x, order):
        from pseudobosons.expressions import BinOp

        ea, eb = _poly_expr(a), _poly_expr(b)
        direct = BinOp("*", ea, eb).eval_jet(x, order)
        via_mul = ea.eval_jet(x, order) * eb.eval_jet(x, order)
        assert np.allclose(direct.coeffs, via_mul.coeffs,
                           rtol=1e-12, atol=1e-12)


class TestAgainstMpmath:
    @pytest.mark.parametrize("fn,src", [
        ("exp", "exp(x)"),
        ("sinh", "sinh(x)"),
        ("cosh", "cosh(x)"),
        ("tanh", "tanh(x)"),
    ])
    def test_composition_coefficients(self, fn, src):
        # mpmath.taylor differentiates independently of the jet recurrences
        expr = parse_expr(f"{src[:-3]}(x + x^2/2)")
        for x in (-0.7, 0.0, 0.9):
            j = expr.eval_jet(x, 8)
            ref = mpmath.taylor(
                lambda t: getattr(mpmath, fn)(t + t * t / 2), x, 8)
            for k in range(9):
                assert abs(j.coeffs[k] - float(ref[k])) < 1e-11 * (
                    1 + abs(float(ref[k])))

    def test_sqrt_jet(self):
        expr = parse_expr("sqrt(1 + x^2)")
        j = expr.eval_jet(0.5, 6)
        ref = mpmath.taylor(lambda t: mpmath.sqrt(1 + t * t), 0.5, 6)
        assert np.allclose(j.coeffs, [float(r) for r in ref], atol=1e-13)

    def test_hermite_jet_matches_recurrence_values(self):
        u = Jet.variable(0.8, 3)
        j = jet_hermite(u, 7)
        h7 = lambda y: mpmath.hermite(7, y) / mpmath.sqrt(2**7 * 5040)
        ref = mpmath.taylor(h7, 0.8, 3)
        assert np.allclose(j.coeffs, [float(r) for r in ref],
                           rtol=1e-12, atol=1e-9)


def test_conjugate_is_pointwise_conjugation():
    expr = parse_expr("(1 + 2*i)*x + exp(x)")
    j = expr.eval_jet(0.4, 4)
    jc = j.conjugate()
    assert np.allclose(jc.coeffs, np.conj(j.coeffs), atol=0)


def test_antideriv_roundtrip_with_deriv():
    j = parse_expr("sinh(x)").eval_jet(0.3, 5)
    back = j.antideriv(123.0).deriv()
    assert np.allclose(back.coeffs, j.coeffs, atol=0)


# -- bitwise agreement of the scalar and batched paths -------------------

ORDERS = [0, 1, 2, 17, 40]


def _bits(c):
    """Coefficients as raw bits, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(c).view(np.uint64)


def _coeffs(rng, order, npts, nonzero_head=False):
    """Random complex coefficients (order+1, npts); about 30% of their
    real and of their imaginary parts are +0.0 or -0.0."""
    shape = (order + 1, npts)

    def part():
        zero = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        return np.where(rng.random(shape) < 0.3, zero,
                        0.5 * rng.standard_normal(shape))

    re, im = part(), part()
    if nonzero_head:
        re[0] = 1.0 + np.abs(re[0])
    return _complex(re, im)


def _complex(re, im):
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im  # keeps the sign of a zero imaginary part
    return out


def _loop_product(a, b):
    """The Cauchy product as one Python loop over j, for either shape."""
    n = a.shape[0]
    out = a[0] * b
    for j in range(1, n):
        out[j:] += a[j] * b[: n - j]
    return out


@pytest.mark.parametrize("order", ORDERS)
def test_scalar_product_matches_loop_and_batch_bitwise(order):
    rng = np.random.default_rng(order)
    a, b = _coeffs(rng, order, 6), _coeffs(rng, order, 6)
    xs = np.linspace(-1.0, 1.0, 6)
    batched = (Jet(xs, a) * Jet(xs, b)).coeffs
    assert np.array_equal(_bits(batched), _bits(_loop_product(a, b)))
    for i, x in enumerate(xs):
        scalar = (Jet(float(x), a[:, i]) * Jet(float(x), b[:, i])).coeffs
        assert np.array_equal(_bits(scalar),
                              _bits(_loop_product(a[:, i], b[:, i])))
        assert np.array_equal(_bits(scalar), _bits(batched[:, i]))


def test_scalar_product_keeps_signed_zeros():
    # every order-1 pair whose parts are -0.0, 0.0 or 1.0: a zero sum
    # keeps its sign only if the padding is exactly -0.0 in both parts
    parts = [complex(re, im) for re in (-0.0, 0.0, 1.0)
             for im in (-0.0, 0.0, 1.0)]
    for a0, a1, b0, b1 in itertools.product(parts, repeat=4):
        a, b = np.array([a0, a1]), np.array([b0, b1])
        assert np.array_equal(_bits((Jet(0.0, a) * Jet(0.0, b)).coeffs),
                              _bits(_loop_product(a, b))), (a, b)


_UNARY = {"exp": jet_exp, "sinh": jet_sinh, "cosh": jet_cosh,
          "tanh": jet_tanh, "sqrt": jet_sqrt}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("op", ["/", *_UNARY])
def test_scalar_equals_batched_column_bitwise(op, order):
    rng = np.random.default_rng(100 + order)
    xs = np.linspace(-1.0, 1.0, 6)
    u = _coeffs(rng, order, 6, nonzero_head=op == "sqrt")
    v = _coeffs(rng, order, 6, nonzero_head=True)
    if op == "/":
        def apply(base, cu, cv):
            return Jet(base, cu) / Jet(base, cv)
    else:
        def apply(base, cu, cv):
            return _UNARY[op](Jet(base, cu))
    batched = apply(xs, u, v).coeffs
    for i, x in enumerate(xs):
        scalar = apply(float(x), u[:, i], v[:, i]).coeffs
        assert np.array_equal(_bits(scalar), _bits(batched[:, i])), i


def _hermite_by_jet_arithmetic(u, top):
    """h_0..h_top of u by the recurrence written in jet arithmetic, one
    jet per degree: the reference the in-place recurrence must repeat."""
    rows = [Jet.constant(1.0, u.base, u.order), u * math.sqrt(2.0)]
    for k in range(1, top):
        rows.append(u * rows[k] * math.sqrt(2.0 / (k + 1))
                    - rows[k - 1] * math.sqrt(k / (k + 1)))
    return rows


@pytest.mark.parametrize("order", [0, 1, 3])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_hermite_recurrence_repeats_jet_arithmetic(order, kind):
    # one recurrence for values and jets: each degree's coefficients are
    # bitwise those of the jet arithmetic, at a point and on a grid, and
    # an order-0 row is hermite_value's
    from pseudobosons.quad import hermite_value

    rng = np.random.default_rng(order)
    c = _coeffs(rng, order, 9)
    c = c.real.copy() if kind == "real" else c
    xs = np.linspace(-2.0, 2.0, 9)
    for u in [Jet(xs, c)] + [Jet(float(x), c[:, i]) for i, x in
                             enumerate(xs[:3])]:
        got = jet_hermite(u, range(13))
        want = _hermite_by_jet_arithmetic(u, 12)
        assert np.array_equal(got[0].coeffs, want[0].coeffs)
        for k in range(1, 13):
            assert got[k].coeffs.dtype == want[k].coeffs.dtype
            assert np.array_equal(_bits(got[k].coeffs),
                                  _bits(want[k].coeffs)), k
        if order == 0:
            rows = hermite_value(range(13), u.coeffs[0])
            assert np.array_equal(_bits(rows),
                                  _bits(np.stack([j.value for j in got])))
