import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from pseudobosons import (
    ModelError,
    PBModel,
    TestFunction,
    apply_ladder,
    build_builtin,
    check_pb_conditions,
    commutator_residual,
    from_expressions,
)
from pseudobosons.expressions import Const, to_source
from pseudobosons.jets import Jet
from pseudobosons.model import LADDER_OPS
from pseudobosons.quad import oscillator_en


def broken_model():
    # alpha_a alpha_b' - alpha_a' alpha_b = 1 identically: not pseudo-bosonic
    return from_expressions("1", "0", "x", "0", name="broken")


class TestBuiltins:
    def test_bosonic_coefficients(self):
        m = build_builtin("bosonic")
        xs = np.array([0.0, 1.0, -2.0])
        inv = 1 / math.sqrt(2)
        assert np.allclose(m.alpha_a.eval_values(xs), inv)
        assert np.allclose(m.alpha_b.eval_values(xs), inv)
        assert np.allclose(m.beta_a.eval_values(xs), inv * xs)
        assert np.allclose(m.beta_b.eval_values(xs), inv * xs)

    def test_swanson_coefficients(self):
        th = 0.3
        m = build_builtin("swanson", theta=th)
        xs = np.array([0.5, -1.5])
        inv = 1 / math.sqrt(2)
        assert np.allclose(m.alpha_a.eval_values(xs),
                           np.exp(-1j * th) * inv)
        assert np.allclose(m.beta_a.eval_values(xs),
                           np.exp(1j * th) * xs * inv)

    def test_example2_beta_a(self):
        m = build_builtin("example2")
        xs = np.linspace(-2, 2, 9)
        assert np.allclose(m.beta_a.eval_values(xs), 2 * np.sinh(xs))
        assert np.allclose(m.beta_b.eval_values(xs),
                           -np.sinh(xs) / (2 * np.cosh(xs) ** 2))

    def test_example1_closed_inverse(self):
        m = build_builtin("example1")
        us = np.linspace(-30, 30, 25)
        xs = m.rho_inverse(us)
        assert np.allclose(xs + xs**3 / 3, us, rtol=1e-12, atol=1e-12)

    def test_unknown_builtin(self):
        with pytest.raises(ModelError, match="unknown builtin"):
            build_builtin("nope")

    def test_zero_alpha_rejected(self):
        with pytest.raises(ModelError, match="nonzero"):
            build_builtin("constant_alpha", alpha_a=0.0, alpha_b=1.0, k=0.0)

    def test_swanson_angle_limit(self):
        with pytest.raises(ModelError, match="pi/4"):
            build_builtin("swanson", theta=1.0)

    def test_model_echo_is_grammar_valid(self):
        from pseudobosons.expressions import parse_expr

        for name, kw in [("swanson", {"theta": 0.3}),
                         ("shifted", {"alpha": 0.1 + 0.2j, "beta": 0.3}),
                         ("example1", {}), ("example2", {})]:
            m = build_builtin(name, **kw)
            for coeff in (m.alpha_a, m.beta_a, m.alpha_b, m.beta_b):
                parse_expr(to_source(coeff))  # must not raise


class TestConditions:
    def test_all_builtins_pass_on_wide_grid(self, all_builtins):
        grid = np.linspace(-5, 5, 1001)
        for name, m in all_builtins.items():
            rep = check_pb_conditions(m, grid, tol=1e-10)
            assert rep.passed, (name, rep.max_abs1, rep.max_abs2)

    def test_residual_at_the_tolerance_passes(self):
        # the rule of the CLI's records: a metric equal to its tolerance
        # passes
        m = build_builtin("example1")
        grid = np.linspace(-3, 3, 61)
        rep = check_pb_conditions(m, grid)
        assert check_pb_conditions(m, grid, tol=rep.max_abs).passed

    def test_broken_model_residual_one(self):
        rep = check_pb_conditions(broken_model(), np.linspace(0.5, 3, 11))
        assert np.allclose(rep.residual1, 1.0)
        assert not rep.passed
        assert rep.verdict == "fail"

    def test_bosonic_residual2_vanishes(self, bosonic):
        # theta' = (alpha_a beta_b + alpha_b beta_a)' = x' = 1 for constant
        # alphas, which is exactly the second condition there
        rep = check_pb_conditions(bosonic, np.linspace(-3, 3, 21))
        assert rep.max_abs2 < 1e-14

    def test_constant_alpha_theta_is_x_plus_k(self, constant_alpha):
        xs = np.linspace(-4, 4, 41)
        k = constant_alpha.flavor.k
        assert np.allclose(constant_alpha.theta_values(xs), xs + k,
                           atol=1e-14)


class TestApplyLadder:
    def test_bosonic_vacuum_killed(self, bosonic):
        from pseudobosons.expressions import parse_expr

        gauss = parse_expr("exp(-x^2/2)")
        for x in (-1.3, 0.0, 2.1):
            out = apply_ladder(bosonic, "a", gauss.eval_jet, x, 1)
            assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_example1_vacuum_killed(self, example1):
        for x in (-2.0, 0.3, 1.7):
            out = apply_ladder(example1, "a", example1.phi_vacuum_jet, x, 0)
            assert abs(out.value) < 1e-12

    def test_bosonic_b_raises_ground_state(self, bosonic):
        # b e_0 = e_1 in the oscillator normalization
        from pseudobosons.expressions import parse_expr

        e0 = parse_expr("exp(-x^2/2)")  # pi^(1/4) e_0
        for x in (-0.9, 0.4, 1.6):
            out = apply_ladder(bosonic, "b", e0.eval_jet, x, 0)
            want = math.pi ** 0.25 * oscillator_en(1, x)
            assert abs(out.value - want) < 1e-13

    def test_adjoints_conjugate_coefficients(self, swanson):
        g = TestFunction(0.0, 1.5)
        x = 0.37
        a_val = apply_ladder(swanson, "b_dag", g.jet, x, 0).value
        ab = swanson.alpha_b.eval_values(np.array([x]))[0]
        bb = swanson.beta_b.eval_values(np.array([x]))[0]
        gj = g.jet(x, 1)
        want = np.conj(ab) * gj.derivative(1) + np.conj(bb) * gj.value
        assert abs(a_val - want) < 1e-14

    def test_unknown_operator(self, bosonic):
        with pytest.raises(ModelError):
            apply_ladder(bosonic, "c", TestFunction().jet, 0.0, 0)


class TestCommutator:
    def test_example2_bump(self, example2):
        f = TestFunction(center=0.3, width=1.2)
        grid = np.linspace(-0.9, 1.5, 101)
        stats = commutator_residual(example2, f.jet, grid)
        assert stats.sup_abs <= 1e-10

    def test_broken_model_nonzero(self):
        from pseudobosons.expressions import parse_expr

        m = broken_model()
        f = parse_expr("x")
        grid = np.linspace(0.5, 2.0, 7)
        stats = commutator_residual(m, f.eval_jet, grid)
        # [a,b]x = -1 for this model, so the defect is |(-1) - x|
        assert np.allclose(stats.residuals, np.abs(-1.0 - grid), atol=1e-12)

    def test_zero_function(self, example1):
        from pseudobosons.expressions import parse_expr

        zero = parse_expr("0")
        stats = commutator_residual(example1, zero.eval_jet,
                                    np.linspace(-2, 2, 11))
        assert stats.sup_abs == 0.0


# complex coefficients as raw expressions: the shifted oscillator with
# complex shifts, and one with complex, varying alphas (not
# pseudo-bosonic, which the operator and vacuum definitions do not need)
COMPLEX_RAW = {
    "shifted": ("0.7071067811865476", "0.7071067811865476*x + 0.3+0.2*i",
                "0.7071067811865476", "0.7071067811865476*x - 0.1+0.4*i"),
    "complex_alphas": ("(0.6+0.3*i)/(1+x^2)", "x + 0.1*i",
                       "(0.5-0.2*i)*cosh(x/2)", "0.4*x - 0.3*i"),
}


class TestOperatorTable:
    @pytest.mark.parametrize("name", sorted(COMPLEX_RAW))
    def test_four_operators_match_their_definitions(self, name):
        m = from_expressions(*COMPLEX_RAW[name])
        xs = np.linspace(-2.0, 2.0, 9)
        g = TestFunction(0.1, 2.5)
        gj = g.jet(xs, 1)
        f, df = gj.value, gj.derivative(1)
        aa, daa = m.alpha_a.eval_dual(xs)
        ab, dab = m.alpha_b.eval_dual(xs)
        ba, bb = m.beta_a.eval_values(xs), m.beta_b.eval_values(xs)
        want = {
            "a": aa * df + ba * f,
            "b": -(dab * f + ab * df) + bb * f,
            "a_dag": -(np.conj(daa) * f + np.conj(aa) * df) + np.conj(ba) * f,
            "b_dag": np.conj(ab) * df + np.conj(bb) * f,
        }
        for op, value in want.items():
            got = apply_ladder(m, op, g.jet, xs, 0).value
            assert np.allclose(got, value, rtol=1e-14, atol=1e-14), op

    def test_vacuum_evaluation_leaves_the_model_unchanged(self):
        m = from_expressions("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                             "-2*x/(1+x^2)^2")
        before = dict(vars(m))
        xs = np.linspace(-2.0, 2.0, 5)
        m.phi_vacuum_values(xs)
        m.psi_vacuum_values(xs)
        m.psi_vacuum_jet(0.3, 2)
        assert vars(m) == before

    @pytest.mark.parametrize("name", sorted(COMPLEX_RAW))
    def test_generic_vacua_are_annihilated(self, name):
        # phi_0 by a and psi_0 by b^dag, whose pair is conjugated
        m = from_expressions(*COMPLEX_RAW[name])
        xs = np.linspace(-3.0, 3.0, 61)
        for values, jet, op in ((m.phi_vacuum_values, m.phi_vacuum_jet, "a"),
                                (m.psi_vacuum_values, m.psi_vacuum_jet,
                                 "b_dag")):
            killed = apply_ladder(m, op, jet, xs, 0).value
            assert np.max(np.abs(killed)) <= 1e-12 * np.max(
                np.abs(values(xs))), op

    def test_unknown_vacuum_side(self, bosonic):
        with pytest.raises(ModelError, match="side"):
            bosonic.vacuum_jet("chi", 0.0, 0)


class TestImmutableModel:
    """A model is a value: kappa and the normalization product are derived
    from its fields on first use, and nothing can be assigned to it."""

    def test_assignment_raises(self, example2):
        for attr, value in (("name", "other"), ("alpha_a", Const(1.0)),
                            ("norm_product", 1.0), ("kappa", {})):
            with pytest.raises(FrozenInstanceError):
                setattr(example2, attr, value)

    def test_derived_values_are_not_fields(self):
        names = {f.name for f in fields(PBModel)}
        assert not names & {"norm_product", "kappa"}

    def test_building_derives_nothing(self):
        for m in (build_builtin("example2"), broken_model(),
                  build_builtin("constant_alpha", alpha_a=1, alpha_b=-1)):
            assert not {"kappa", "norm_product"} & set(vars(m))

    def test_vacua_that_do_not_pair_build(self):
        # phi_0 = exp(x^2/2) and psi_0 = 1 do not pair: the model builds
        # and has its kappa, and only the normalization product is an
        # error, on every use
        m = build_builtin("constant_alpha", alpha_a=1, alpha_b=-1)
        assert m.kappa["pi"] == -1
        for _ in range(2):
            with pytest.raises(ModelError, match="vacuum pairing diverges"):
                m.norm_product

    def test_diverging_pairing_is_integrated_once(self, monkeypatch):
        # the error is the stored outcome: a second use re-raises it
        # without running the diverging integral and its probes again
        from pseudobosons import states

        calls = []
        integrate = states.compatibility_form

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(states, "compatibility_form", counted)
        m = build_builtin("constant_alpha", alpha_a=1, alpha_b=-1)
        raised = []
        for _ in range(2):
            with pytest.raises(ModelError) as err:
                m.norm_product
            raised.append(err.value)
        assert len(calls) == 1
        assert raised[0] is raised[1]
        assert "vacuum pairing diverges" in str(raised[0])


class TestOperandSequences:
    """A sequence of operands is one call whose entries are bitwise the
    single-operand results."""

    MODELS = {
        "example2": lambda: build_builtin("example2"),
        "raw_example1": lambda: from_expressions(
            "1/(1+x^2)", "x + x^3/3", "1/(1+x^2)", "-2*x/(1+x^2)^2"),
        "complex_constant_alpha": lambda: build_builtin(
            "constant_alpha", alpha_a=0.7 + 0.2j, alpha_b=1.1 - 0.3j, k=0.4),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_apply_ladder_sequence_is_bitwise(self, name):
        m = self.MODELS[name]()
        xs = np.linspace(-2.0, 2.0, 17)
        fs = [TestFunction(0.1, 2.5).jet, TestFunction(-0.4, 1.7).jet,
              m.phi_vacuum_jet]
        for op in LADDER_OPS:
            for order in (0, 1):
                stacked = Jet.stack([f(xs, order + 1) for f in fs])
                many = apply_ladder(m, op, lambda *_: stacked, xs, order)
                assert many.base.shape == (len(fs), len(xs))
                for f, got in zip(fs, many.rows()):
                    one = apply_ladder(m, op, f, xs, order)
                    assert isinstance(one, Jet)
                    assert np.array_equal(got.coeffs, one.coeffs), \
                        (op, order)

    def test_commutator_sequence_is_a_list_of_single_calls(self, example2):
        grid = np.linspace(-0.9, 1.5, 41)
        fs = [TestFunction(0.3, 1.2).jet, TestFunction(-0.2, 0.9).jet]
        many = commutator_residual(example2, fs, grid)
        assert isinstance(many, list) and len(many) == 2
        for f, got in zip(fs, many):
            one = commutator_residual(example2, f, grid)
            assert np.array_equal(got.residuals, one.residuals)
            assert got.sup_abs == one.sup_abs
