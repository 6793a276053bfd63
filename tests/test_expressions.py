import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudobosons import expressions as ex
from pseudobosons.expressions import (
    Antideriv,
    BinOp,
    Call,
    Const,
    ExpressionDomainError,
    ExpressionSyntaxError,
    Pow,
    Var,
    parse_expr,
    same_structure,
    to_source,
)


class TestParsing:
    def test_reciprocal_quadratic(self):
        tree = parse_expr("1/(1+x^2)")
        xs = np.array([0.0, 1.0, 2.0])
        assert np.allclose(tree.eval_values(xs), 1 / (1 + xs**2))

    def test_cubic_drift(self):
        tree = parse_expr("x + x^3/3")
        xs = np.linspace(-2, 2, 7)
        assert np.allclose(tree.eval_values(xs), xs + xs**3 / 3)

    def test_syntax_error_with_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expr("x +")
        assert err.value.line == 1
        assert err.value.column >= 3

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
            parse_expr("foo(x)")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expr("x ) y")

    def test_imaginary_unit(self):
        v = parse_expr("2*i + 1").eval_values(np.array([0.0]))[0]
        assert v == 1 + 2j

    def test_whitespace_insensitive(self):
        a = parse_expr("x+x ^ 3 / 3")
        b = parse_expr("x + x^3/3")
        assert same_structure(a, b)

    def test_leading_minus_sugar(self):
        tree = parse_expr("-2*x/(1+x^2)^2")
        xs = np.array([0.5, 1.5])
        assert np.allclose(tree.eval_values(xs), -2 * xs / (1 + xs**2) ** 2)

    def test_precedence(self):
        assert parse_expr("2 + 3*4^2").eval_values(np.array([0.0]))[0] == 50

    def test_negative_exponent(self):
        tree = parse_expr("x^-2")
        assert np.allclose(tree.eval_values(np.array([2.0])), [0.25])


def _expr_strategy():
    leaves = st.one_of(
        st.just(Var()),
        st.builds(Const, st.floats(min_value=0, max_value=9,
                                   allow_nan=False, allow_infinity=False)),
        st.just(Const(1j)),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda l, r, op: BinOp(op, l, r), children, children,
                      st.sampled_from("+-*/")),
            st.builds(lambda c, k: Pow(c, k), children,
                      st.integers(-3, 3)),
            st.builds(lambda c, f: Call(f, c), children,
                      st.sampled_from(["exp", "sinh", "cosh", "tanh", "sqrt"])),
            st.builds(Antideriv, children),
        )

    return st.recursive(leaves, extend, max_leaves=10)


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(tree=_expr_strategy())
    def test_print_parse_identity(self, tree):
        assert same_structure(parse_expr(to_source(tree)), tree)

    def test_examples_roundtrip(self):
        for src in ("1/(1+x^2)", "x + x^3/3", "2*sinh(x)",
                    "-sinh(x)/(2*cosh(x)^2)", "exp(-cosh(x)^2)",
                    "antideriv(1/(1+x^2))"):
            tree = parse_expr(src)
            assert same_structure(parse_expr(to_source(tree)), tree)

    def test_complex_constants_print_to_valid_source(self):
        for c in (0.5 - 0.25j, -1.5 + 2j, -0.75, -0.5j):
            tree = BinOp("*", Const(c), Var())
            reparsed = parse_expr(to_source(tree))
            x = np.array([1.7])
            assert np.allclose(reparsed.eval_values(x), tree.eval_values(x))


class TestEvaluation:
    def test_domain_error_reports_subexpression(self):
        tree = parse_expr("1/(x - 1)")
        with pytest.raises(ExpressionDomainError, match="x - 1"):
            tree.eval_jet(1.0, 2)

    def test_vectorized_matches_jets(self):
        tree = parse_expr("exp(-x^2/2)*(1 + tanh(x))")
        xs = np.linspace(-2, 2, 9)
        vec = tree.eval_values(xs)
        ptw = [tree.eval_jet(float(x), 0).value for x in xs]
        assert np.allclose(vec, ptw, atol=1e-15)

    def test_dual_matches_jets(self):
        tree = parse_expr("sqrt(1 + x^2)*sinh(x) + x^3/(2 + cosh(x))")
        xs = np.linspace(-2, 2, 9)
        v, d = tree.eval_dual(xs)
        for i, x in enumerate(xs):
            j = tree.eval_jet(float(x), 1)
            assert abs(v[i] - j.value) < 1e-14 * (1 + abs(j.value))
            assert abs(d[i] - j.derivative(1)) < 1e-13 * (1 + abs(j.derivative(1)))

    def test_antideriv_against_closed_form(self):
        # antideriv(1/(1+x^2)) = arctan(x), constant fixed by F(0) = 0
        tree = parse_expr("antideriv(1/(1+x^2))")
        xs = np.array([-3.0, -1.0, 0.0, 0.5, 2.0, 40.0, -40.0, 2.0, -1.0])
        got = tree.eval_values(xs)
        assert np.allclose(got, np.arctan(xs), atol=1e-12)

    def test_antideriv_depends_only_on_the_point_set(self):
        src = "antideriv(1/(1+x^2))"
        alone = parse_expr(src).value_at(3.0)
        tree = parse_expr(src)
        tree.eval_values(np.linspace(-5.0, 7.0, 13))  # other grids first
        tree.eval_jet(np.array([0.25, -2.5]), 3)
        assert tree.value_at(3.0) == alone
        on_grid = parse_expr(src).eval_values(np.array([-1.0, 0.5, 3.0, 2.0]))
        shuffled = tree.eval_values(np.array([3.0, -1.0, 3.0, 2.0, 0.5, -1.0]))
        assert np.array_equal(shuffled, on_grid[[2, 0, 2, 3, 1, 0]])
        assert abs(alone - np.arctan(3.0)) <= 1e-12

    def test_antideriv_nonconvergent_segment_names_the_point(self):
        from pseudobosons.quad import QuadratureError

        tree = parse_expr("antideriv(1/x)")
        with pytest.raises(ExpressionDomainError) as err:
            tree.value_at(1.0)
        assert err.value.x == 1.0
        assert "antideriv(1/x)" in str(err.value)
        assert isinstance(err.value.__cause__, QuadratureError)
        assert err.value.__cause__.best_value is not None

    @pytest.mark.parametrize("src, xs, named", [
        ("antideriv(1/(x-0.6))", 2.0, 2.0),
        ("antideriv(1/(x+0.6))", -2.0, -2.0),
        ("antideriv(1/(x-0.6))", [-3.0, 0.1, 5.0, 2.0], 2.0),
        ("antideriv(1/(x+0.6))", [3.0, -0.1, -5.0, -2.0], -2.0),
    ])
    def test_antideriv_pole_between_lattice_knots_names_a_point(
            self, src, xs, named):
        # the pole cuts the segment between the knots 0.5 and 0.75 (or
        # -0.75 and -0.5): the error names the nearest requested point
        # beyond it, not a knot
        tree = parse_expr(src)
        with pytest.raises(ExpressionDomainError) as err:
            tree.value_at(np.asarray(xs))
        assert err.value.x == named
        assert err.value.node is tree

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_antideriv_rejects_non_finite_points(self, bad):
        tree = parse_expr("antideriv(1/(1+x^2))")
        with pytest.raises(ExpressionDomainError, match="non-finite") as err:
            tree.eval_values(np.array([0.5, bad]))
        assert err.value.node is tree
        assert np.array_equal(err.value.x, bad, equal_nan=True)

    def test_antideriv_segment_starts_as_one_kronrod_panel(self):
        # K short segments of a smooth integrand converge on the first
        # pass: one 15-point panel per segment, not 4 dyadic seed panels
        points = []

        class Counted(ex.FunctionExpr):
            def eval_jet(self, x, order):
                points.append(np.size(x))
                return Call("exp", Var()).eval_jet(x, order)

        K = 8
        xs = 0.01 * np.arange(1, K + 1)
        got = Antideriv(Counted()).eval_values(xs)
        assert sum(points) == 15 * K
        assert np.allclose(got, np.expm1(xs), rtol=0, atol=1e-15)

    def test_antideriv_narrow_feature_inside_a_wide_segment(self):
        # a Gaussian of width 0.1 at x = 3 inside the segment [2.95, 10]:
        # the first panel sees it, and bisection resolves it
        from math import erf, pi, sqrt

        tree = parse_expr("antideriv(exp(0-100*(x-3)^2))")
        xs = np.array([-40.0, 2.95, 10.0, 40.0])
        want = [sqrt(pi) / 20 * (erf(10 * (x - 3)) + erf(30)) for x in xs]
        assert np.max(np.abs(tree.eval_values(xs) - want)) <= 1e-13

    def test_antideriv_jet_coefficients(self):
        import math

        tree = parse_expr("antideriv(exp(x))")  # = exp(x) - 1
        j = tree.eval_jet(0.7, 5)
        e = np.exp(0.7)
        want = [e - 1] + [e / math.factorial(k) for k in range(1, 6)]
        assert np.allclose(j.coeffs, want, rtol=1e-12)

    def test_deriv_node(self):
        tree = ex.Deriv(parse_expr("x + x^3/3"))
        xs = np.array([0.0, 1.0, 2.0])
        assert np.allclose(tree.eval_values(xs), 1 + xs**2, atol=1e-14)
