import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from scipy import integrate as scipy_integrate

from pseudobosons import (
    QuadratureError,
    RhoError,
    StateFamily,
    TestFunction,
    biorthonormality_matrix,
    build_builtin,
    compatibility_form,
    fix_normalization,
    from_expressions,
    integrate_line,
    oscillator_en,
    proportional_model,
    quasi_basis_sum,
    rho_eval,
    rho_invert,
    transform_pm,
)
from pseudobosons.quad import (
    rho_invert_values,
    state_overlaps,
    transform_identity_factors,
    transform_support,
)
from test_states import _unified_models


@pytest.fixture(scope="module")
def real_rho_models(bosonic, constant_alpha):
    """Models off the proportional flavor whose rho = c u is real:
    bosonic, constant_alpha(1, 0.5, 0.7), example1 as raw expressions,
    and example1 after the gauge transform beta_a - alpha_a w',
    beta_b + alpha_b w' with w = x^2/10 and with the complex
    w = (0.1 + 0.05 i) x^2."""
    models = {
        "raw_example1": from_expressions(
            "1/(1+x^2)", "x + x^3/3", "1/(1+x^2)", "-2*x/(1+x^2)^2"),
        "gauged_example1": _unified_models()["gauged_example1"],
        "complex_gauged_example1": from_expressions(
            "1/(1+x^2)", "x + x^3/3 - (0.2+0.1*i)*x/(1+x^2)", "1/(1+x^2)",
            "-2*x/(1+x^2)^2 + (0.2+0.1*i)*x/(1+x^2)"),
    }
    return {"bosonic": bosonic, "constant_alpha": constant_alpha, **models}


class TestIntegrateLine:
    def test_gaussian(self):
        r = integrate_line(lambda x: np.exp(-x * x), None, None)
        assert abs(r.value - math.sqrt(math.pi)) < 1e-12
        assert r.abs_error_estimate >= 0
        assert all(math.isfinite(b) for b in r.truncation_bounds)

    def test_hermite_orthogonality_constant(self):
        # integral of H_2(s)^2 e^{-s^2} = 2^2 2! sqrt(pi) = 8 sqrt(pi)
        r = integrate_line(
            lambda s: hermval(s, [0, 0, 1]) ** 2 * np.exp(-s * s), None, None)
        assert abs(r.value - 8 * math.sqrt(math.pi)) < 1e-10

    def test_lorentzian(self):
        r = integrate_line(lambda x: 1 / (1 + x * x), None, None, tol=1e-10)
        assert abs(r.value - math.pi) < 1e-10

    def test_finite_bounds_polynomial_exactness(self):
        # the 15-point Kronrod panel rule is exact through degree 22
        r = integrate_line(lambda x: x ** 22, 0.0, 1.0)
        assert abs(r.value - 1 / 23) < 1e-15

    def test_against_scipy_quad(self):
        f = lambda x: np.exp(-0.3 * x * x) * np.cos(2 * x)
        want, _ = scipy_integrate.quad(lambda x: float(f(np.array([x]))[0]),
                                       -30, 30, limit=400)
        got = integrate_line(f, -30.0, 30.0)
        assert abs(got.value - want) < 1e-11

    def test_complex_integrand(self):
        r = integrate_line(lambda x: np.exp(-(1 + 1j) * x * x / 2), None,
                           None)
        want = math.sqrt(2 * math.pi) / (1 + 1j) ** 0.5
        assert abs(r.value - want) < 1e-12

    def test_divergent_envelope_refused(self):
        with pytest.raises(QuadratureError, match="non-integrable"):
            integrate_line(lambda x: 1 / (1 + np.abs(x)), None, None)

    def test_budget_error_carries_estimate(self):
        with pytest.raises(QuadratureError) as err:
            integrate_line(lambda x: np.cos(50 / (x + 2.0001)),
                           -2.0, 2.0, max_panels=8)
        assert err.value.best_value is not None


class TestRho:
    def test_example1_values(self, example1):
        assert abs(rho_eval(example1, 1.0) - 4.0 / 3.0) < 1e-14

    def test_example2_at_zero(self, example2):
        assert rho_eval(example2, 0.0) == 0.0

    def test_example1_inverse(self, example1):
        assert abs(rho_invert(example1, 4.0 / 3.0) - 1.0) < 1e-12

    def test_numeric_against_closed(self, example1):
        m = proportional_model("1/(1+x^2)")
        for x in (-2.2, -0.4, 0.9, 2.8):
            assert abs(rho_eval(m, x) - rho_eval(example1, x)) < 1e-12
        for s in (-5.0, 0.3, 4.0):
            xa = rho_invert(m, s)
            assert abs(rho_eval(m, xa) - s) <= 1e-12 * (1 + abs(s))

    def test_numeric_inverse_on_arrays(self, example1):
        m = proportional_model("1/(1+x^2)")
        s = np.array([[-5.0, 0.3], [4.0, 0.3], [0.0, 60.0]])
        xs = rho_invert_values(m, s)
        assert xs.shape == s.shape
        assert np.allclose(xs, rho_invert_values(example1, s), atol=1e-12)
        got = np.array([rho_eval(m, x) for x in xs.ravel()]).reshape(s.shape)
        assert np.all(np.abs(got - s) <= 1e-12 * (1 + np.abs(s)))
        assert rho_invert_values(m, np.array([])).shape == (0,)

    def test_general_model_rho_is_derived(self):
        # rho = c u from the lead u = theta/alpha_a - alpha_b' = x, c = 1
        m = from_expressions("1", "x", "1", "0")
        for x in (-2.5, 0.0, 0.5, 3.0):
            assert rho_eval(m, x) == x

    def test_swanson_rho_is_not_real(self, swanson):
        with pytest.raises(RhoError, match="non-real"):
            rho_eval(swanson, 0.5)

    def test_nonmonotonic_alpha_refused(self):
        with pytest.raises(Exception, match="real positive"):
            proportional_model("x")  # alpha_b changes sign


class TestCompatibilityForm:
    def test_example2_vacuum_pairing_is_one(self, example2):
        psi = StateFamily(example2, "psi", max_n=0)
        phi = StateFamily(example2, "phi", max_n=0)
        from pseudobosons.states import pair_envelope

        r = compatibility_form(example2, psi.values_fn(0), phi.values_fn(0),
                               envelope=pair_envelope(example2, 0))
        assert abs(r.value - 1.0) < 1e-12

    def test_example1_cross_level_zero(self, example1):
        psi = StateFamily(example1, "psi", max_n=1)
        phi = StateFamily(example1, "phi", max_n=1)
        from pseudobosons.states import pair_envelope

        r = compatibility_form(example1, psi.values_fn(1), phi.values_fn(0),
                               envelope=pair_envelope(example1, 1))
        assert abs(r.value) < 1e-10

    def test_normalized_bump(self):
        f = TestFunction(0.4, 1.1).normalized()
        r = compatibility_form(None, f, f)
        assert abs(r.value - 1.0) < 1e-12

    def test_conjugation_on_first_slot(self):
        f = TestFunction(0.0, 1.0, amplitude=1j)
        g = TestFunction(0.0, 1.0)
        r = compatibility_form(None, f, g)
        assert r.value.imag < 0  # conj(i) = -i shows up in the pairing


class TestBiorthonormality:
    def test_size_zero_matrix(self, example1):
        G, dev = biorthonormality_matrix(example1, 0)
        assert G.shape == (1, 1)
        assert abs(G[0, 0] - 1.0) < 1e-12
        assert dev < 1e-12

    def test_example1_small(self, example1):
        G, dev = biorthonormality_matrix(example1, 5)
        assert dev <= 1e-8

    def test_example2_small(self, example2):
        G, dev = biorthonormality_matrix(example2, 5)
        assert dev <= 1e-8

    def test_fresh_model_needs_no_fixing(self):
        # the normalization product is derived on first use: every result
        # on a fresh model is bitwise the one after fix_normalization
        f, g = TestFunction(0.1, 1.0), TestFunction(-0.2, 0.9)

        def results(m):
            qb = quasi_basis_sum(m, f, g, 10)
            return (*biorthonormality_matrix(m, 3),
                    transform_identity_factors(m), qb.partial_sums,
                    qb.transform_pair_value)

        fresh = results(build_builtin("example2"))
        m = build_builtin("example2")
        fix_normalization(m)
        for got, want in zip(fresh, results(m)):
            np.testing.assert_array_equal(got, want)

    def test_complex_coefficient_models(self, swanson, shifted):
        # the sigma recursion conjugates coefficients; any sign slip shows
        # up immediately in the Gram matrix of a complex model
        for m in (swanson, shifted):
            _, dev = biorthonormality_matrix(m, 6)
            assert dev <= 1e-10

    def test_shifted_norm_product_closed_form(self, shifted):
        al, be = 0.15 + 0.1j, 0.2
        want = np.exp(-0.5 * (al + be) ** 2) / math.sqrt(math.pi)
        assert abs(shifted.norm_product - want) < 1e-12

    def test_change_of_variables_identity(self, example1):
        # the x-space pairing equals the rescaled Hermite integral in s,
        # on a pair that does not vanish
        n, mm = 5, 5
        psi = StateFamily(example1, "psi", max_n=mm)
        phi = StateFamily(example1, "phi", max_n=mm)
        from pseudobosons.states import pair_envelope

        lhs = compatibility_form(
            example1, psi.values_fn(mm), phi.values_fn(n),
            envelope=pair_envelope(example1, n + mm)).value
        hh = integrate_line(
            lambda s: hermval(s, [0] * mm + [1]) * hermval(s, [0] * n + [1])
            * np.exp(-s * s), None, None).value
        pref = (example1.norm_product
                / math.sqrt(2.0 ** (n + mm - 1)
                            * math.factorial(n) * math.factorial(mm)))
        assert abs(lhs - pref * hh) < 1e-9


class TestHighDegreeEnvelope:
    """The pair envelope in log space: a degree that overflowed the power
    (a bare OverflowError) truncates where the Gram matrix needs it."""

    @pytest.mark.parametrize("name, N, bounds", [("bosonic", 100, 32.0),
                                                 ("example1", 80, 8.0)])
    def test_gram_envelope_truncates(self, all_builtins, name, N, bounds):
        from pseudobosons.states import pair_envelope

        r = integrate_line(lambda xs: np.zeros_like(xs), None, None,
                           envelope=pair_envelope(all_builtins[name], 2 * N))
        assert r.truncation_bounds == (-bounds, bounds)

    def test_bosonic_envelope_values(self, bosonic):
        # phi_0 = psi_0 = exp(-x^2/2) and y = x on the oscillator
        from pseudobosons.states import pair_envelope

        xs = np.array([-21.0, -0.3, 0.0, 0.4, 5.0, 16.0, 41.9, 100.0])
        got = pair_envelope(bosonic, 200)(xs)
        want = np.exp(-xs * xs
                      + 200 * np.log(np.maximum(1.0, 2.0 * np.abs(xs))))
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_example1_gram_past_the_old_overflow(self, example1):
        # max(1, 2|y|)^120 overflowed at the truncation probe x = 10.48
        G, dev = biorthonormality_matrix(example1, 60)
        assert dev <= 1e-8


def _scalar_cut(probe, tol, sign):
    """One side probed one point at a time by the truncation rule of
    integrate_line: the reference for the batched probes."""
    L = 1.0
    for _ in range(60):
        worst = max(probe(sign * L), probe(sign * 1.31 * L))
        if worst < tol / 10.0 and worst * L < tol / 3.0:
            return sign * L
        L *= 2.0
    raise AssertionError("no cut point")


class TestBatchedTruncation:
    """Both open sides probed in one call per block of four doublings cut
    where one-sided scalar probing does."""

    def _envelopes(self, all_builtins, raw_example1):
        from pseudobosons.states import pair_envelope

        # degrees 0, 7, 40 and those of the Gram at N = 4, 8, 20
        envs = {f"{name}_{deg}": pair_envelope(m, deg)
                for name, m in {**all_builtins,
                                "raw_example1": raw_example1}.items()
                for deg in (0, 7, 8, 16, 40)}
        envs["raw_example1_9"] = pair_envelope(raw_example1, 9)
        # sides that cut at different points
        envs["lopsided"] = lambda xs: np.exp(
            -np.abs(xs) * np.where(xs < 0.0, 0.02, 3.0))
        # below tol/10 from |x| = 4 on, where only the tail-mass rule cuts
        envs["flat_tail"] = lambda xs: (1e-10 * np.exp(-xs * xs)
                                        + 9e-14 * np.exp(-np.abs(xs) / 1e3))
        return envs

    def test_envelope_path(self, all_builtins, real_rho_models):
        for name, env in self._envelopes(
                all_builtins, real_rho_models["raw_example1"]).items():
            def probe(x, env=env):
                return float(abs(env(np.array([x]))[0]))

            for tol in (1e-12, 1e-8):
                want = tuple(_scalar_cut(probe, tol, sign) for sign in (-1, 1))
                r = integrate_line(lambda xs: np.zeros_like(xs), None, None,
                                   tol=tol, envelope=env)
                assert r.truncation_bounds == want, (name, tol)

    @pytest.mark.parametrize("a, b", [(None, None), (-np.inf, 0.5),
                                      (-0.5, None)])
    def test_fallback_path_vector_valued(self, a, b):
        def f(xs):
            return np.stack([np.exp(-xs * xs),
                             np.exp(-0.02 * (xs - 3.0) ** 2),
                             1e-3j / (1.0 + xs ** 8)], axis=-1)

        def probe(x):
            return float(np.max(np.abs(f(np.array([x])))))

        r = integrate_line(f, a, b)
        want = (_scalar_cut(probe, 1e-12, -1) if a is None or np.isinf(a)
                else a,
                _scalar_cut(probe, 1e-12, 1) if b is None else b)
        assert r.truncation_bounds == want
        assert r.value.shape == (3,)

    def test_one_divergent_side_is_refused(self):
        # integrable to the left, 1/(1 + x) to the right
        with pytest.raises(QuadratureError, match="non-integrable") as info:
            integrate_line(
                lambda xs: np.where(xs < 0.0, np.exp(-xs * xs),
                                    1.0 / (1.0 + np.abs(xs))), None, None)
        assert "on the +inf side (probe 1.73e-18, probe * L 1 at L = 2^59)" \
            in str(info.value)
        assert "-inf" not in str(info.value)

    @staticmethod
    def _near_only(decay):
        """exp(-decay x^2), refusing every point beyond |x| = 3."""
        def env(xs):
            if np.any(np.abs(xs) > 3.0):
                raise ValueError(f"probed at {np.max(np.abs(xs))}")
            return np.exp(-decay * xs * xs)
        return env

    def test_block_that_raises_is_probed_per_doubling(self):
        # the first block reaches |x| = 10.48, the cut is at L = 2
        r = integrate_line(lambda xs: np.zeros_like(xs), None, None,
                           envelope=self._near_only(10.0))
        assert r.truncation_bounds == (-2.0, 2.0)
        # not admissible before L = 4, whose probe raises as it would in a
        # one-doubling search
        with pytest.raises(ValueError, match="probed at 5.24"):
            integrate_line(lambda xs: np.zeros_like(xs), None, None,
                           envelope=self._near_only(0.1))

    def test_no_warning_from_beyond_the_cut(self):
        def env(xs):
            return np.exp(np.where(np.abs(xs) > 3.0, 1e3, -10.0) * xs * xs)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = integrate_line(lambda xs: np.zeros_like(xs), None, None,
                               envelope=env)
        assert r.truncation_bounds == (-2.0, 2.0)
        assert caught == []


class TestOscillator:
    def test_ground_state_at_zero(self):
        assert abs(oscillator_en(0, 0.0) - math.pi ** -0.25) < 1e-15

    def test_orthonormality(self):
        for n in range(0, 9, 2):
            for m in range(n, 9, 3):
                r = integrate_line(
                    lambda s, _n=n, _m=m: oscillator_en(_n, s)
                    * oscillator_en(_m, s), None, None,
                    envelope=lambda x: np.exp(-0.4 * x * x))
                want = 1.0 if n == m else 0.0
                assert abs(r.value - want) < 1e-11

    def test_parity(self):
        s = np.linspace(0.1, 3.0, 7)
        assert np.allclose(oscillator_en(1, -s), -oscillator_en(1, s))

    def test_large_n_stable(self):
        v = oscillator_en(200, np.array([0.9]))
        assert np.all(np.isfinite(v))
        assert np.max(np.abs(v)) < 1.0  # oscillator states are bounded


class TestTransforms:
    def test_minus_transform_compact_support(self, example1):
        h = TestFunction(0.0, 1.0)
        lo, hi = transform_support(example1, h)
        s = np.linspace(lo - 1.0, hi + 1.0, 41)
        vals = transform_pm(example1, h, "minus", s)
        outside = (s < lo) | (s > hi)
        assert np.all(vals[outside] == 0)
        assert np.any(vals[~outside] != 0)

    def test_zero_function(self, example2):
        h = TestFunction(0.0, 1.0, amplitude=0.0)
        s = np.linspace(-1, 1, 9)
        assert np.all(transform_pm(example2, h, "plus", s) == 0)

    def test_example2_plus_minus_ratio(self, example2):
        # h_plus(s) = h_minus(s) e^{-s^2} / sqrt(1+s^2)
        h = TestFunction(0.2, 0.9)
        s = np.linspace(-0.8, 0.9, 13)
        plus = transform_pm(example2, h, "plus", s)
        minus = transform_pm(example2, h, "minus", s)
        assert np.allclose(plus, minus * np.exp(-s * s) / np.sqrt(1 + s * s),
                           rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("name, params", [
        ("swanson", {"theta": 0.3}),
        ("constant_alpha", {"alpha_a": 0.7 + 0.2j, "alpha_b": 1.1 - 0.3j}),
    ], ids=["swanson", "complex_constant_alpha"])
    def test_no_real_rho_raises(self, name, params):
        m = build_builtin(name, **params)
        for sign in ("plus", "minus"):
            with pytest.raises(RhoError):
                transform_pm(m, TestFunction(), sign, np.array([0.0]))
        with pytest.raises(RhoError):
            transform_identity_factors(m)

    def test_transform_identities_to_level_eight(self, example1, example2,
                                                 real_rho_models):
        f = TestFunction(0.1, 1.0)
        for m in (example1, example2, *real_rho_models.values()):
            k_phi, k_psi, c = transform_identity_factors(m)
            lo, hi = transform_support(m, f)
            direct_phi = state_overlaps(m, f, "phi", 8, state_in_bra=False)
            direct_psi = state_overlaps(m, f, "psi", 8, state_in_bra=True)
            for n in range(9):
                rhs_phi = integrate_line(
                    lambda s, _n=n: np.conj(transform_pm(m, f, "plus", s))
                    * oscillator_en(_n, s), lo, hi).value
                rhs_psi = integrate_line(
                    lambda s, _n=n: oscillator_en(_n, s)
                    * transform_pm(m, f, "minus", s), lo, hi).value
                assert abs(direct_phi[n]
                           - k_phi * c ** (-0.5 * n) * rhs_phi) < 1e-8
                assert abs(direct_psi[n]
                           - k_psi * c ** (0.5 * n) * rhs_psi) < 1e-8

    def test_rho_invert_values_vectorized(self, example2):
        s = np.linspace(-3, 3, 11)
        xs = rho_invert_values(example2, s)
        assert np.allclose(2 * np.sinh(xs), s, atol=1e-13)

    def test_constant_product_telescopes(self, example1, example2):
        # the level-dependent c^(+-n/2) factors cancel in the product of
        # the two identities, leaving an n-independent constant: exactly 1
        # for the sinh model and sqrt(2) for the equal-alpha case (whose
        # paired transforms then contribute the remaining 1/sqrt(2))
        k_phi, k_psi, _ = transform_identity_factors(example2)
        assert abs(k_phi * k_psi - 1.0) < 1e-13
        k_phi, k_psi, _ = transform_identity_factors(example1)
        assert abs(k_phi * k_psi - math.sqrt(2.0)) < 1e-13


class TestQuasiBasis:
    def test_same_bump_converges(self, example1):
        f = TestFunction(0.0, 1.0)
        r = quasi_basis_sum(example1, f, f, 30, "phi_psi")
        assert r.deviation <= 1e-3
        assert abs(r.reference - f.l2_norm() ** 2) < 1e-11

    def test_disjoint_supports(self, example2):
        f = TestFunction(-1.2, 0.5)
        g = TestFunction(1.2, 0.5)
        r = quasi_basis_sum(example2, f, g, 30, "phi_psi")
        assert abs(r.reference) == 0.0
        assert abs(r.total) <= 1e-3

    def test_both_orderings_converge(self, example2):
        f = TestFunction(0.0, 1.2)
        g = TestFunction(0.3, 1.0)
        r1 = quasi_basis_sum(example2, f, g, 30, "phi_psi")
        r2 = quasi_basis_sum(example2, f, g, 30, "psi_phi")
        assert r1.deviation <= 1e-4
        assert r2.deviation <= 1e-4

    def test_transform_pair_identity(self, example1, example2,
                                     real_rho_models):
        f = TestFunction(0.0, 1.0)
        g = TestFunction(0.3, 0.9)
        for m in (example1, example2, *real_rho_models.values()):
            r = quasi_basis_sum(m, f, g, 5, "phi_psi")
            assert abs(r.transform_pair_value
                       - r.transform_pair_expected) <= 1e-9

    def test_monotone_convergence_diagnostic(self, example1):
        # a diagnostic, not an exact law: deviations shrink past some N0
        # for a bump pair
        f = TestFunction(0.0, 1.1)
        r = quasi_basis_sum(example1, f, f, 36, "phi_psi")
        devs = np.abs(np.asarray(r.partial_sums) - r.reference)
        assert devs[-1] < devs[8] < devs[2]
