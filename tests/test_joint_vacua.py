"""The two vacua of a general model come from one antiderivative
quadrature, whichever side is asked for, and that quadrature converges in
its first pass; the general lead evaluates each coefficient once."""

import numpy as np
import pytest

from pseudobosons import StateFamily, from_expressions, quad
from pseudobosons.expressions import (
    Antideriv,
    ExpressionDomainError,
    parse_expr,
    same_structure,
)
from pseudobosons.states import GridJets

RAW = {
    "raw_example1": ("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                     "-2*x/(1+x^2)^2"),
    "raw_example2": ("1/cosh(x)", "2*sinh(x)", "1/(2*cosh(x))",
                     "-sinh(x)/(2*cosh(x)^2)"),
    # tools/configs/shifted_complex.ini: shifts 0.3+0.5i and 0.1-0.4i
    "raw_shifted_complex": ("0.7071067811865476",
                            "0.7071067811865476*x + (0.3+0.5*i)",
                            "0.7071067811865476",
                            "0.7071067811865476*x + (0.1-0.4*i)"),
    # psi's ratio has a narrow peak inside the segment [1, 1.25] and
    # needs more passes than phi's: phi's exponent rounds differently
    # alone than with psi, so a side asked for alone must run both
    "narrow_psi": ("1", "tanh(x)", "1", "x + 50*exp(0-400*(x-1.1)^2)"),
}
GRID = np.linspace(-3.0, 3.0, 101)
N_MAX = 4


def _model(name):
    return from_expressions(*RAW[name])


def _same_jet(a, b) -> bool:
    return a.coeffs.dtype == b.coeffs.dtype \
        and np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("name", ["raw_example1", "raw_shifted_complex",
                                  "narrow_psi"])
@pytest.mark.parametrize("alone_first", [True, False])
class TestOneSideIsTheJointSide:
    def test_vacuum_jets(self, name, alone_first):
        m = _model(name)
        for order in (0, 2):
            if alone_first:
                alone = [m.vacuum_jet(s, GRID, order) for s in ("phi", "psi")]
                joint = m.vacuum_jets(GRID, order)
            else:
                joint = m.vacuum_jets(GRID, order)
                alone = [m.vacuum_jet(s, GRID, order) for s in ("phi", "psi")]
            swapped = m.vacuum_jets(GRID, order, ("psi", "phi"))[::-1]
            for a, j, s in zip(alone, joint, swapped):
                assert _same_jet(a, j) and _same_jet(a, s)

    def test_grid_jets_rows(self, name, alone_first):
        m = _model(name)
        levels = list(range(N_MAX + 1))
        for side in ("phi", "psi"):
            jets = GridJets(m, GRID, N_MAX)
            fam = StateFamily(m, side, max_n=N_MAX)
            if alone_first:
                alone = fam.jet(levels, GRID, 2)
                shared = jets.states(side, levels, 2)
            else:
                shared = jets.states(side, levels, 2)
                alone = fam.jet(levels, GRID, 2)
            assert _same_jet(alone, shared)


@pytest.mark.parametrize("name", ["raw_example1", "raw_shifted_complex"])
def test_log_abs_vacua(name):
    m = _model(name)
    for side, got in zip(("phi", "psi"), m.log_abs_vacua(GRID)):
        assert np.array_equal(m.log_abs_vacuum_values(side, GRID), got)
        want = np.log(np.abs(m.vacuum_values(side, GRID)))
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def _count_passes(monkeypatch) -> list:
    """(points, quadrature passes) of every Antideriv.value_at call from
    now on; a pass is one quad._panel_sums call."""
    calls, passes = [], [0]
    panel_sums, value_at = quad._panel_sums, Antideriv.value_at

    def counted_sums(*args):
        passes[0] += 1
        return panel_sums(*args)

    def counted_value_at(self, x):
        before = passes[0]
        out = value_at(self, x)
        calls.append((np.size(x), passes[0] - before))
        return out

    monkeypatch.setattr(quad, "_panel_sums", counted_sums)
    monkeypatch.setattr(Antideriv, "value_at", counted_value_at)
    return calls


def test_raw_example1_antiderivatives_take_one_pass(monkeypatch):
    # the pairing's probe and pass, then the Gram's probe and two passes
    calls = _count_passes(monkeypatch)
    quad.biorthonormality_matrix(_model("raw_example1"), N_MAX)
    assert calls == [(16, 1), (360, 1), (16, 1), (360, 1), (60, 1)]


def test_joint_domain_error_names_the_argument_and_the_point():
    smooth, pole = parse_expr("1/(1+x^2)"), parse_expr("1/(x-0.6)")
    with pytest.raises(ExpressionDomainError) as err:
        Antideriv(smooth, pole).value_at(np.array([-1.0, 2.0]))
    assert err.value.x == 2.0
    assert same_structure(err.value.node, Antideriv(pole))


@pytest.mark.parametrize("name", ["raw_example1", "raw_example2",
                                  "raw_shifted_complex"])
@pytest.mark.parametrize("side", ["pi", "sigma"])
@pytest.mark.parametrize("x", [GRID, 0.3])
def test_general_lead_is_the_written_out_quotient(name, side, x):
    m = _model(name)
    mine, other = ("a", "b") if side == "pi" else ("b", "a")
    for order in range(4):
        def coeff(c, k=order):
            return m.coefficient(c).eval_jet(x, k)

        theta = (coeff("alpha_a") * coeff("beta_b")
                 + coeff("alpha_b") * coeff("beta_a"))
        want = (theta / coeff("alpha_" + mine)
                - coeff("alpha_" + other, order + 1).deriv())
        if side == "sigma":
            want = want.conjugate()
        assert _same_jet(m.lead_jet(side, x, order), want)
