import cmath
import math

import mpmath
import numpy as np
import pytest

from pseudobosons import (
    ModelError,
    StateFamily,
    build_builtin,
    eval_state,
    fix_normalization,
    from_expressions,
    pi_sigma_closed,
    pi_sigma_recursive,
    proportional_model,
    vacuum,
    verify_ladder,
)


def physicists_hermite(n, y):
    """The physicists' Hermite polynomial H_n(y), from numpy."""
    return np.polynomial.hermite.hermval(y, [0] * n + [1])


class TestVacua:
    def test_example1_phi(self, example1):
        xs = np.linspace(-2.5, 2.5, 11)
        rho = xs + xs**3 / 3
        got = example1.phi_vacuum_values(xs)
        assert np.allclose(got, np.exp(-0.5 * rho**2), rtol=1e-14)

    def test_example1_psi(self, example1):
        xs = np.linspace(-2.5, 2.5, 11)
        fam = StateFamily(example1, "psi", max_n=0)
        want = np.conj(example1.norm_product) * (1 + xs**2)
        assert np.allclose(fam.values(0, xs), want, rtol=1e-13)

    def test_example2_psi(self, example2):
        xs = np.linspace(-2, 2, 9)
        fam = StateFamily(example2, "psi", max_n=0)
        want = np.conj(example2.norm_product) * 2 * np.cosh(xs)
        assert np.allclose(fam.values(0, xs), want, rtol=1e-13)

    def test_vacuum_jet_matches_values(self, example2):
        j = vacuum(example2, "phi", 0.8, 2)
        assert abs(j.value - math.exp(-math.cosh(0.8) ** 2)) < 1e-16

    def test_generic_path_agrees_up_to_constant(self, example2):
        # the built-in registers exp(-cosh^2 x); the generic antiderivative
        # convention yields exp(-sinh^2 x) = e * exp(-cosh^2 x)
        from pseudobosons import from_expressions

        gen = from_expressions("1/cosh(x)", "2*sinh(x)", "1/(2*cosh(x))",
                               "-sinh(x)/(2*cosh(x)^2)")
        xs = np.array([-1.4, 0.2, 0.9])
        ratio = gen.phi_vacuum_values(xs) / example2.phi_vacuum_values(xs)
        assert np.allclose(ratio, math.e, rtol=1e-12)


class TestRecursion:
    def test_level_zero_is_one(self, all_builtins):
        for m in all_builtins.values():
            j = pi_sigma_recursive(m, "pi", 0, 0.4, 2)
            assert np.allclose(j.coeffs, [1, 0, 0], atol=0)

    def test_equal_alpha_level_two(self, example1):
        # two recursion steps by hand: pi_2 = rho^2 - 1
        for x in (-1.2, 0.0, 0.8):
            rho = x + x**3 / 3
            got = pi_sigma_recursive(example1, "pi", 2, x, 0).value
            assert abs(got - (rho * rho - 1.0)) < 1e-12 * (1 + rho * rho)

    def test_example2_sigma_one(self, example2):
        for x in (-0.9, 0.5, 1.7):
            got = pi_sigma_recursive(example2, "sigma", 1, x, 0).value
            assert abs(got - 2 * math.sinh(x)) < 1e-13

    def test_capacity_error(self, example1, monkeypatch):
        from pseudobosons import jets

        monkeypatch.setattr(jets, "_MAX_ORDER", 3)
        pi_sigma_recursive(example1, "pi", 3, 0.0, 0)
        with pytest.raises(jets.JetError, match="capacity"):
            pi_sigma_recursive(example1, "pi", 4, 0.0, 0)


def _unified_models():
    """Models off the two flavors with closed forms of their own: a
    complex constant_alpha whose alphas differ, and example1 after the
    gauge transform beta_a - alpha_a w', beta_b + alpha_b w' with
    w = x^2/10, which changes only the vacua."""
    return {
        "complex_constant_alpha": build_builtin(
            "constant_alpha", alpha_a=0.7 + 0.2j, alpha_b=1.1 - 0.3j, k=0.4),
        "gauged_example1": from_expressions(
            "1/(1+x^2)", "x + x^3/3 - x/(5*(1+x^2))", "1/(1+x^2)",
            "-2*x/(1+x^2)^2 + x/(5*(1+x^2))"),
    }


def _assert_closed_matches_recursion(m, name, xs):
    for side in ("pi", "sigma"):
        for n in (1, 4, 8):
            for x in xs:
                rec = pi_sigma_recursive(m, side, n, float(x), 0).value
                clo = pi_sigma_closed(m, side, n, float(x), 0).value
                assert abs(rec - clo) <= 1e-9 * (1 + abs(clo)), \
                    (name, side, n, x)


class TestClosedForms:
    def test_example2_level_three(self, example2):
        for x in (-1.1, 0.3, 1.9):
            pi3 = pi_sigma_closed(example2, "pi", 3, x, 0).value
            sig3 = pi_sigma_closed(example2, "sigma", 3, x, 0).value
            want = physicists_hermite(3, np.array([math.sinh(x)]))[0] / 8
            assert abs(pi3 - want) < 1e-12 * (1 + abs(want))
            assert abs(sig3 - 8 * pi3) < 1e-12 * (1 + abs(sig3))

    def test_constant_alpha_level_one_is_x(self):
        m = build_builtin("constant_alpha", alpha_a=1.0, alpha_b=1.0, k=0.0)
        for x in (-2.0, 0.7):
            got = pi_sigma_closed(m, "pi", 1, x, 0).value
            assert abs(got - x) < 1e-14

    def test_level_zero_is_one(self, example2):
        assert pi_sigma_closed(example2, "sigma", 0, 1.2, 0).value == 1.0

    def test_general_flavor_closed_matches_recursion(self):
        # u = x and kappa = 1: pi_n is the probabilists' Hermite He_n(x)
        m = from_expressions("1", "x", "1", "0")
        for x in (-2.0, 0.7):
            assert abs(pi_sigma_closed(m, "pi", 1, x, 0).value - x) < 1e-15
        _assert_closed_matches_recursion(m, "general", np.linspace(-3, 3, 11))

    def test_recursion_closed_agreement(self, all_builtins):
        xs = np.linspace(-3.0, 3.0, 11)
        for name, m in {**all_builtins, **_unified_models()}.items():
            _assert_closed_matches_recursion(m, name, xs)

    def test_raw_example1_matches_builtin(self, example1):
        # the general flavor's lead theta/alpha_a - alpha_b' is rho
        raw = from_expressions("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                               "-2*x/(1+x^2)^2")
        xs = np.linspace(-3.0, 3.0, 13)
        for side in ("pi", "sigma"):
            for n in range(31):
                want = pi_sigma_closed(example1, side, n, xs, 2).coeffs
                got = pi_sigma_closed(raw, side, n, xs, 2).coeffs
                scale = np.max(np.abs(want), axis=0)
                assert np.all(np.abs(got - want) <= 1e-13 * scale), (side, n)

    @pytest.mark.parametrize("coeffs, zero", [
        (("1", "0", "1", "0"), True),  # u = -alpha_b' = 0
        (("x", "1", "x", "0"), False),  # alpha_a(0) = 0: a pole in u
    ])
    def test_kappa_is_a_typed_error(self, coeffs, zero):
        m = from_expressions(*coeffs)
        assert (m.kappa["pi"] == 0) if zero else cmath.isnan(m.kappa["pi"])
        with pytest.raises(ModelError, match="finite and nonzero"):
            pi_sigma_closed(m, "pi", 2, 0.5, 0)
        with pytest.raises(ModelError, match="finite and nonzero"):
            StateFamily(m, "phi", max_n=2).values_all(np.array([0.5]))

    def test_kappa_is_the_flavor_constant(self, all_builtins):
        # kappa = 1/c on the pi side and conj(c) on the sigma side, with
        # alpha_a = c alpha_b
        for name, m in all_builtins.items():
            c = complex(m.alpha_a.eval_values(np.array([0.7]))[0]
                        / m.alpha_b.eval_values(np.array([0.7]))[0])
            assert abs(m.kappa["pi"] - 1 / c) <= 1e-15 / abs(c), name
            assert abs(m.kappa["sigma"] - c.conjugate()) <= 1e-15 * abs(c), \
                name

    def test_hermite_induction_step(self, constant_alpha):
        # the inductive identity behind the closed form:
        # pi_n = scale * (2 y H_{n-1}(y) - H'_{n-1}(y)) at the rescaled
        # argument, with H'_{n-1} = 2(n-1) H_{n-2}
        fl = constant_alpha.flavor
        scale_arg = 1.0 / np.sqrt(2.0 * fl.alpha_a * fl.alpha_b)
        pref = np.sqrt(fl.alpha_b / (2.0 * fl.alpha_a))
        for n in (2, 5, 9):
            for x in (-1.3, 0.4, 2.2):
                y = (x + fl.k) * scale_arg
                lhs = pi_sigma_closed(constant_alpha, "pi", n, x, 0).value
                h1 = physicists_hermite(n - 1, np.array([y]))[0]
                h2 = physicists_hermite(n - 2, np.array([y]))[0]
                step = (2 * y * h1 - 2 * (n - 1) * h2) * pref ** n
                assert abs(lhs - step) < 1e-10 * (1 + abs(step))

    def test_degree_property(self, constant_alpha):
        # pi_n is a polynomial of degree n: jet coefficients above n vanish
        for n in (3, 6):
            j = pi_sigma_recursive(constant_alpha, "pi", n, 0.0, n + 4)
            tail = np.abs(j.coeffs[n + 1:])
            head = np.max(np.abs(j.coeffs[: n + 1]))
            assert np.all(tail <= 1e-12 * head)


class TestEvalState:
    def test_example1_phi_n_closed_formula(self, example1):
        n = 4
        fam = StateFamily(example1, "phi", max_n=n)
        xs = np.linspace(-2, 2, 9)
        rho = xs + xs**3 / 3
        want = (physicists_hermite(n, rho / math.sqrt(2))
                * np.exp(-0.5 * rho**2)
                / math.sqrt(2**n * math.factorial(n)))
        assert np.allclose(fam.values(n, xs), want, rtol=1e-12, atol=1e-300)

    def test_example2_psi_n_closed_formula(self, example2):
        n = 3
        fam = StateFamily(example2, "psi", max_n=n)
        xs = np.linspace(-1.5, 1.5, 7)
        n_psi = np.conj(example2.norm_product)
        want = (2 * n_psi * physicists_hermite(n, np.sinh(xs)) * np.cosh(xs)
                / math.sqrt(math.factorial(n)))
        assert np.allclose(fam.values(n, xs), want, rtol=1e-12)

    def test_level_zero_is_vacuum(self, example1):
        fam = StateFamily(example1, "phi", max_n=2)
        for x in (-1.0, 0.5):
            assert abs(fam.jet(0, x, 0).value
                       - example1.phi_vacuum_values(np.array([x]))[0]) < 1e-15

    def test_jet_matches_values(self, example2):
        fam = StateFamily(example2, "psi", max_n=5)
        xs = np.array([-0.7, 0.9])
        vals = fam.values(5, xs)
        for x, v in zip(xs, vals):
            assert abs(eval_state(fam, 5, float(x), 2).value - v) < 1e-13

    def test_out_of_range(self, example1):
        fam = StateFamily(example1, "phi", max_n=3)
        with pytest.raises(ModelError, match="max_n"):
            fam.jet(4, 0.0, 0)


class TestNormalizedRows:
    """The rows from the normalized Hermite recurrence against the closed
    form N vac s^n H_n(y) / sqrt(n!), y = u / (2s), in 30-digit
    arithmetic, up to a level where H_n and n! leave double range."""

    LEVELS = (0, 1, 17, 80, 150, 200)

    @pytest.mark.parametrize("name", ["bosonic", "example1", "example2",
                                      "raw_example1"])
    def test_rows_match_the_unnormalized_closed_form(self, request, name):
        m = from_expressions("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                             "-2*x/(1+x^2)^2") \
            if name == "raw_example1" else request.getfixturevalue(name)
        xs = np.linspace(-12.0, 12.0, 73)
        for side, poly in (("phi", "pi"), ("psi", "sigma")):
            fam = StateFamily(m, side, max_n=max(self.LEVELS))
            # far out vac underflows where h_n overflows: nan, no warning
            with np.errstate(over="ignore", invalid="ignore"):
                rows = fam.values_all(xs)
            s = cmath.sqrt(m.kappa[poly] / 2)
            ys = m.lead_jet(poly, xs, 0).value / (2 * s)
            # the vacua of these models are positive
            log_vac = m.log_abs_vacuum_values(side, xs)
            for n in self.LEVELS:
                with mpmath.workdps(30):
                    want = [fam.normalization * mpmath.mpc(s) ** n
                            * mpmath.exp(lv) * mpmath.hermite(n, y)
                            / mpmath.sqrt(mpmath.factorial(n))
                            for y, lv in zip(ys, log_vac)]
                    # where the state itself is beyond double range, only
                    # a row that is not finite is right
                    beyond = np.array([abs(w) > 2e308 for w in want])
                    inside = np.array([abs(w) < 1e300 for w in want])
                    want = np.array([complex(w) if ok else np.nan
                                     for w, ok in zip(want, inside)])
                scale = np.max(np.abs(want[inside]))
                got = rows[n]
                assert not np.isfinite(got[beyond]).any(), (name, side, n)
                seen = inside & np.isfinite(got)
                assert np.all(np.abs(got[seen] - want[seen])
                              <= 1e-13 * scale), (name, side, n)
                # a row is not finite only where the state is negligible
                assert np.all(np.abs(want[inside & ~seen])
                              <= 1e-13 * scale), (name, side, n)


class TestNormalization:
    def test_example1_value(self, example1):
        assert abs(example1.norm_product - 1 / math.sqrt(2 * math.pi)) < 1e-12

    def test_example2_value(self, example2):
        assert abs(example2.norm_product
                   - math.e / (2 * math.sqrt(math.pi))) < 1e-12

    def test_bosonic_value(self, bosonic):
        assert abs(bosonic.norm_product - 1 / math.sqrt(math.pi)) < 1e-13

    def test_swanson_value(self, swanson):
        # Gaussian with rotated width: integral sqrt(pi) e^{-i theta}
        want = np.exp(1j * 0.3) / math.sqrt(math.pi)
        assert abs(swanson.norm_product - want) < 1e-12

    def test_fix_normalization_assigns_nothing(self):
        m = build_builtin("example2")
        value = fix_normalization(m)
        assert "norm_product" not in vars(m)
        assert value == m.norm_product == fix_normalization(m)

    def test_numeric_proportional_matches_equal_alpha_formula(self):
        m = proportional_model("1/(1+x^2)")
        assert abs(m.norm_product - 1 / math.sqrt(2 * math.pi)) < 1e-11


class TestLadderRelations:
    def test_vacuum_annihilation(self, example1):
        phi = StateFamily(example1, "phi", max_n=1)
        psi = StateFamily(example1, "psi", max_n=1)
        res = verify_ladder(phi, psi, 0, np.linspace(-3, 3, 41))
        assert res.lower_phi < 1e-13
        assert res.lower_psi < 1e-13

    def test_example2_level_three(self, example2):
        phi = StateFamily(example2, "phi", max_n=5)
        psi = StateFamily(example2, "psi", max_n=5)
        res = verify_ladder(phi, psi, 3, np.linspace(-3, 3, 81))
        assert res.max <= 1e-8

    def test_bosonic_level_five(self, bosonic):
        phi = StateFamily(bosonic, "phi", max_n=7)
        psi = StateFamily(bosonic, "psi", max_n=7)
        res = verify_ladder(phi, psi, 5, np.linspace(-4, 4, 81))
        assert res.max <= 1e-10


class TestLadderEvaluations:
    def test_each_level_is_evaluated_once_per_family(self, monkeypatch):
        from pseudobosons import from_expressions

        m = from_expressions("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                             "-2*x/(1+x^2)^2")
        phi = StateFamily(m, "phi", max_n=3)
        psi = StateFamily(m, "psi", max_n=3)
        grid = np.linspace(-2.0, 2.0, 21)
        calls = []
        jet = StateFamily.jet

        def counted(self, n, x, order):
            calls.append((self.side, list(np.ravel(n)), order))
            return jet(self, n, x, order)

        monkeypatch.setattr(StateFamily, "jet", counted)
        res = verify_ladder(phi, psi, range(3), grid)
        # one call per family covers every level the relations reach
        assert sorted(calls) == [("phi", [0, 1, 2, 3], 1),
                                 ("psi", [0, 1, 2, 3], 1)]
        monkeypatch.undo()
        assert max(r.max for r in res) < 1e-8


def _sequence_models(all_builtins):
    raw = from_expressions("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                           "-2*x/(1+x^2)^2")
    gauged = _unified_models()["gauged_example1"]
    return {**all_builtins, "raw_example1": raw, "gauged_example1": gauged}


class TestLevelSequences:
    """A sequence of levels is one evaluation whose rows are bitwise the
    single-level results."""

    def test_jets_equal_single_level_jets(self, all_builtins):
        from pseudobosons.jets import jet_hermite

        xs = np.linspace(-2.5, 2.5, 17)
        levels = [0, 1, 2, 3, 5, 8]
        for name, m in _sequence_models(all_builtins).items():
            for side in ("phi", "psi"):
                fam = StateFamily(m, side, max_n=8)
                poly = "pi" if side == "phi" else "sigma"
                for order in (0, 1, 2):
                    u = m.lead_jet(poly, xs, order)
                    for k, h in zip(levels, jet_hermite(u, levels)):
                        assert np.array_equal(
                            h.coeffs, jet_hermite(u, k).coeffs), \
                            (name, side, order, k)
                    for k, j in zip(levels,
                                    fam.jet(levels, xs, order).rows()):
                        assert np.array_equal(
                            j.coeffs, fam.jet(k, xs, order).coeffs), \
                            (name, side, order, k)

    def test_single_level_returns_a_jet(self, example1):
        from pseudobosons.jets import Jet, jet_hermite

        fam = StateFamily(example1, "phi", max_n=3)
        assert isinstance(fam.jet(2, 0.3, 1), Jet)
        assert isinstance(jet_hermite(Jet.variable(0.3, 1), 2), Jet)
        empty = fam.jet([], np.zeros(3), 1)
        assert empty.base.shape == (0, 3) and empty.coeffs.shape == (2, 0, 3)

    def test_sequence_levels_are_range_checked(self, example1):
        fam = StateFamily(example1, "phi", max_n=3)
        with pytest.raises(ModelError, match="max_n"):
            fam.jet(range(5), np.zeros(3), 0)

    def test_residuals_equal_single_level_calls(self, all_builtins):
        from pseudobosons import eigen_residual, hsusy_shift_check

        grid = np.linspace(-3.0, 3.0, 41)
        for name, m in _sequence_models(all_builtins).items():
            phi = StateFamily(m, "phi", max_n=5)
            psi = StateFamily(m, "psi", max_n=5)
            assert verify_ladder(phi, psi, range(5), grid) == [
                verify_ladder(phi, psi, n, grid) for n in range(5)], name
            for side in ("H", "H_dag"):
                assert eigen_residual(m, side, range(6), grid) == [
                    eigen_residual(m, side, n, grid) for n in range(6)], \
                    (name, side)
            assert hsusy_shift_check(m, range(6), grid) == [
                hsusy_shift_check(m, n, grid) for n in range(6)], name
