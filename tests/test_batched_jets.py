"""Batched jets: one evaluation over an array of points equals the stack
of scalar evaluations, point by point."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudobosons.expressions import (
    BinOp,
    Call,
    Const,
    Deriv,
    ExpressionDomainError,
    Pow,
    Var,
    parse_expr,
)
from pseudobosons.jets import Jet, JetError
from pseudobosons.quad import TestFunction


def _trees():
    leaves = st.one_of(
        st.just(Var()),
        st.builds(Const, st.floats(min_value=0, max_value=3,
                                   allow_nan=False, allow_infinity=False)),
        st.just(Const(0.5j)),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda l, r, op: BinOp(op, l, r), children, children,
                      st.sampled_from("+-*/")),
            st.builds(Pow, children, st.integers(-3, 3)),
            st.builds(lambda c, f: Call(f, c), children,
                      st.sampled_from(["exp", "sinh", "cosh", "tanh",
                                       "sqrt"])),
            st.builds(Deriv, children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


points = st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False,
                            allow_infinity=False), min_size=1, max_size=8)


def _scalar_stack(tree, xs, order):
    """Scalar jets, one per point, stacked into (order+1, n); None when
    some point has no finite jet."""
    try:
        cols = [tree.eval_jet(float(x), order).coeffs for x in xs]
    except (ExpressionDomainError, JetError):
        return None
    stack = np.stack(cols, axis=1)
    return stack if np.all(np.isfinite(stack)) else None


@settings(max_examples=300, deadline=None)
@given(tree=_trees(), xs=points, order=st.integers(0, 4))
def test_batched_equals_scalar_stack(tree, xs, order):
    xs = np.asarray(xs)
    with np.errstate(all="ignore"):
        want = _scalar_stack(tree, xs, order)
        if want is None:
            # the batch fails too, or at least never returns finite
            # coefficients where a scalar point could not
            try:
                got = tree.eval_jet(xs, order).coeffs
            except (ExpressionDomainError, JetError):
                return
            assert not np.all(np.isfinite(got))
            return
        got = tree.eval_jet(xs, order).coeffs
        dual = tree.eval_dual(xs) if order == 1 else None
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    if dual is not None:
        assert np.array_equal(dual[0], got[0])
        assert np.array_equal(dual[1], got[1])


def test_domain_error_names_first_bad_point():
    tree = parse_expr("1/(x - 1)")
    with pytest.raises(ExpressionDomainError, match="x - 1") as err:
        tree.eval_values(np.array([0.0, 2.0, 1.0, 1.0]))
    assert err.value.x == 1.0


def test_mismatched_batches_rejected():
    with pytest.raises(JetError, match="base"):
        Jet.variable(np.array([0.0, 1.0]), 1) + Jet.variable(
            np.array([0.0, 2.0]), 1)


def test_test_function_jet_batched_and_zero_outside_support():
    bump = TestFunction(center=0.3, width=0.8)
    xs = np.linspace(-1.0, 1.5, 26)  # includes both support ends
    got = bump.jet(xs, 3).coeffs
    for i, x in enumerate(xs):
        assert np.array_equal(got[:, i], bump.jet(float(x), 3).coeffs)
    outside = np.abs(xs - 0.3) >= 0.8
    assert np.all(got[:, outside] == 0)
    assert np.allclose(got[0], bump.values(xs), rtol=1e-14, atol=0)
