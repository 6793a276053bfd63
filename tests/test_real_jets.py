"""The dtype rule of jets: exactly real inputs give float64 coefficients,
complex ones complex128, and a real quotient rounds as the real part of
the complex one."""

import numpy as np
import pytest

from pseudobosons import build_builtin, from_expressions
from pseudobosons.expressions import (
    Antideriv,
    ExpressionDomainError,
    parse_expr,
)
from pseudobosons.jets import (
    Jet,
    JetError,
    _div,
    as_number,
    jet_exp,
    jet_sqrt,
)
from pseudobosons.states import GridJets

RAW_EXAMPLE1 = ("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)", "-2*x/(1+x^2)^2")
COEFFICIENTS = ("alpha_a", "beta_a", "alpha_b", "beta_b")


def _model(name):
    if name == "raw_example1":
        return from_expressions(*RAW_EXAMPLE1)
    if name == "complex_shifted":
        return build_builtin("shifted", alpha=0.3 + 0.5j, beta=0.1 - 0.4j)
    if name == "swanson":
        return build_builtin("swanson", theta=0.3)
    return build_builtin(name)


def _grid_jets(m):
    jets = GridJets(m, np.linspace(-2.0, 2.0, 41), 4)
    coeffs = {name: jets.coefficient(name, 1) for name in COEFFICIENTS}
    leads = [m.lead_jet(side, jets.grid, 2) for side in ("pi", "sigma")]
    vacua = [m.vacuum_jet(side, jets.grid, 2) for side in ("phi", "psi")]
    states = [jets.states(side, range(5), 2) for side in ("phi", "psi")]
    return coeffs, leads + vacua + states


@pytest.mark.parametrize("name", ["bosonic", "example1", "example2",
                                  "raw_example1"])
def test_real_models_carry_float64_jets(name):
    coeffs, others = _grid_jets(_model(name))
    for jet in [*coeffs.values(), *others]:
        assert jet.coeffs.dtype == np.float64


@pytest.mark.parametrize("name", ["swanson", "complex_shifted"])
def test_complex_models_carry_complex_jets(name):
    coeffs, others = _grid_jets(_model(name))
    for jet in others:  # leads, vacua and stacked states
        assert jet.coeffs.dtype == np.complex128
    # the shifted oscillator's alphas are the real 1/sqrt(2): only its
    # betas carry the complex shifts
    complex_coeffs = COEFFICIENTS if name == "swanson" \
        else ("beta_a", "beta_b")
    for cname, jet in coeffs.items():
        want = np.complex128 if cname in complex_coeffs else np.float64
        assert jet.coeffs.dtype == want, cname


def test_constants_follow_their_imaginary_part():
    xs = np.linspace(-1.0, 1.0, 5)
    assert Jet.constant(2.0, xs, 1).coeffs.dtype == np.float64
    assert Jet.constant(complex(2.0, -0.0), xs, 1).coeffs.dtype == np.float64
    assert Jet.constant(2.0 + 1j, xs, 1).coeffs.dtype == np.complex128
    x = Jet.variable(xs, 2)
    assert (x + 1j).coeffs.dtype == np.complex128
    assert (x * (3 + 0j)).coeffs.dtype == np.float64
    assert (x / (2 - 1j)).coeffs.dtype == np.complex128
    assert as_number(complex(-1.5, 0.0)) == -1.5
    assert type(as_number(complex(-1.5, 0.0))) is float


def test_sqrt_of_a_negative_value_takes_the_principal_branch():
    jet = parse_expr("sqrt(x - 2)").eval_jet(0.0, 2)
    assert jet.coeffs.dtype == np.complex128
    assert jet.value == pytest.approx(1.4142135623730951j, abs=1e-15)
    # d/dx sqrt(x - 2) = 1 / (2 sqrt(x - 2)) at 0
    assert jet.derivative(1) == pytest.approx(1 / (2 * 1.4142135623730951j))
    assert jet_sqrt(Jet.variable(4.0, 2)).coeffs.dtype == np.float64


def test_division_by_a_zero_constant_still_names_it():
    with pytest.raises(ExpressionDomainError,
                       match=r"division by zero in '0' at x = 1\.0"):
        parse_expr("x/0").eval_jet(np.array([1.0, 2.0]), 1)


def test_constant_operands_build_no_constant_jet(monkeypatch):
    def refuse(*args):
        raise AssertionError("a constant jet was built")

    xs = np.linspace(-1.0, 1.0, 7)
    monkeypatch.setattr(Jet, "constant", classmethod(refuse))
    got = parse_expr("2*x - 1 + x/4 - (0.5 - x)*3").eval_jet(xs, 1)
    assert np.array_equal(got.value, 2 * xs - 1 + xs * 0.25 - (0.5 - xs) * 3)
    assert np.array_equal(got.derivative(1), np.full(xs.shape, 5.25))


@pytest.mark.parametrize("source, number", [("1/(1+x^2)", 1.0),
                                            ("i/(1+x^2)", 1j)])
def test_number_numerator_builds_no_constant_jet(monkeypatch, source,
                                                 number):
    # the old route divided a constant jet of the numerator; the number
    # gives bitwise the same quotient, signs of zeros included
    expr = parse_expr(source)
    cases = [(x, order) for x in (np.linspace(-2.0, 2.0, 41), 0.0, -1.3)
             for order in range(4)]
    want = []
    for x, order in cases:
        den = expr.right.eval_jet(x, order)
        want.append(_div(Jet.constant(number, den.base, order), den).coeffs)

    def refuse(*args):
        raise AssertionError("a constant jet was built")

    monkeypatch.setattr(Jet, "constant", classmethod(refuse))
    for (x, order), w in zip(cases, want):
        got = expr.eval_jet(x, order).coeffs
        assert got.dtype == w.dtype and got.shape == w.shape
        assert np.array_equal(_bits(got), _bits(w)), (x, order)


def test_number_numerator_names_a_zero_divisor():
    with pytest.raises(ExpressionDomainError,
                       match=r"division by zero in 'x - 1' at x = 1\.0"):
        parse_expr("2/(x-1)").eval_jet(np.array([0.0, 1.0, 2.0]), 2)
    with pytest.raises(ExpressionDomainError,
                       match=r"division by zero in 'x - 1' at x = 1\.0"):
        parse_expr("i/(x-1)").eval_jet(1.0, 0)


# -- real arithmetic is the real part of complex arithmetic --------------

def _bits(c):
    return np.ascontiguousarray(c).view(np.uint64)


def _real_coeffs(rng, order, npts, nonzero_head=False):
    c = rng.standard_normal((order + 1, npts))
    if nonzero_head:
        c[0] = 0.5 + np.abs(c[0])
    return c


@pytest.mark.parametrize("order", [0, 1, 4, 9])
def test_real_division_is_the_real_part_of_the_complex_one(order):
    rng = np.random.default_rng(order)
    xs = np.linspace(-1.0, 1.0, 40)
    a = _real_coeffs(rng, order, xs.size)
    b = _real_coeffs(rng, order, xs.size, nonzero_head=True)
    for base, ca, cb in [(xs, a, b)] + [(float(x), a[:, i], b[:, i])
                                        for i, x in enumerate(xs[:5])]:
        real = Jet(base, ca) / Jet(base, cb)
        cplx = Jet(base, ca + 0j) / Jet(base, cb + 0j)
        assert real.coeffs.dtype == np.float64
        assert np.array_equal(_bits(real.coeffs), _bits(cplx.coeffs.real))
        # by a number, and the antiderivative's ramp
        for r, c in ((Jet(base, ca) / 3.7, Jet(base, ca + 0j) / 3.7),
                     (Jet(base, ca).antideriv(0.25),
                      Jet(base, ca + 0j).antideriv(0.25))):
            assert np.array_equal(_bits(r.coeffs), _bits(c.coeffs.real))


@pytest.mark.parametrize("order", [1, 4, 9])
def test_real_sqrt_is_the_real_part_of_the_complex_one(order):
    rng = np.random.default_rng(50 + order)
    xs = np.linspace(-1.0, 1.0, 40)
    u = _real_coeffs(rng, order, xs.size, nonzero_head=True)
    real = jet_sqrt(Jet(xs, u))
    assert real.coeffs.dtype == np.float64
    assert np.array_equal(_bits(real.coeffs),
                          _bits(jet_sqrt(Jet(xs, u + 0j)).coeffs.real))


@pytest.mark.parametrize("order", [0, 1, 4])
def test_real_scalar_equals_batched_column(order):
    rng = np.random.default_rng(90 + order)
    xs = np.linspace(-1.0, 1.0, 6)
    u = _real_coeffs(rng, order, xs.size)
    v = _real_coeffs(rng, order, xs.size, nonzero_head=True)
    for op in (lambda p, q: p * q, lambda p, q: p / q,
               lambda p, q: jet_exp(p), lambda p, q: jet_sqrt(q)):
        batched = op(Jet(xs, u), Jet(xs, v)).coeffs
        for i, x in enumerate(xs):
            scalar = op(Jet(float(x), u[:, i]), Jet(float(x), v[:, i])).coeffs
            assert np.array_equal(_bits(scalar), _bits(batched[:, i]))


# -- complex points are refused, not cast ------------------------------

@pytest.mark.filterwarnings("error")
class TestComplexPoints:
    def test_eval_jet_names_the_point(self):
        with pytest.raises(JetError, match=r"\(1\+1j\)"):
            parse_expr("x^2").eval_jet(np.array([0.5, 1 + 1j]), 1)

    def test_eval_values_and_dual_name_the_first_point(self):
        tree = parse_expr("x^2 + 1")
        for evaluate in (tree.eval_values, tree.eval_dual):
            with pytest.raises(JetError, match=r"complex point \(2-3j\)"):
                evaluate(np.array([0.0, 2 - 3j, 1j]))

    def test_antideriv_names_the_point(self):
        with pytest.raises(JetError, match=r"complex point 1j"):
            Antideriv(parse_expr("x")).value_at(np.array([1j]))

    def test_python_complex_base(self):
        with pytest.raises(JetError, match=r"\(1\+1j\)"):
            Jet.variable(1 + 1j, 1)

    def test_exactly_real_complex_points_are_read_as_real(self):
        xs = np.array([0.5, -1.0, 2.0])
        tree = parse_expr("x^2 - antideriv(x)")
        want = tree.eval_values(xs)
        assert want.dtype == np.float64
        got = tree.eval_values(xs + 0j)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert Jet.variable(complex(3.0, -0.0), 1).base == 3.0
