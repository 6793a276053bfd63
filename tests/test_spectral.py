import numpy as np
import pytest

from pseudobosons import (
    ModelError,
    StateFamily,
    apply_hamiltonian,
    apply_ladder,
    build_builtin,
    builtin_hamiltonian_crosscheck,
    eigen_residual,
    hamiltonian_coeffs,
    hsusy_shift_check,
)


class TestCoefficients:
    def test_constant_unit_alphas(self):
        # alpha_a = alpha_b = 1, beta_a = x, beta_b = k gives
        #   k2 = 1, k1 = k - x, k0 = k x - 1
        k = 0.8
        m = build_builtin("constant_alpha", alpha_a=1.0, alpha_b=1.0, k=k)
        xs = np.linspace(-2, 2, 9)
        c2, c1, c0 = hamiltonian_coeffs(m, "H").values(xs)
        assert np.allclose(c2, 1.0, atol=1e-14)
        assert np.allclose(c1, k - xs, atol=1e-14)
        assert np.allclose(c0, k * xs - 1.0, atol=1e-14)
        q2, q1, q0 = hamiltonian_coeffs(m, "H_dag").values(xs)
        assert np.allclose(q1, xs - k, atol=1e-14)
        assert np.allclose(q0, k * xs, atol=1e-14)

    def test_example2_second_order_coefficient(self, example2):
        xs = np.linspace(-2, 2, 9)
        c2, _, _ = hamiltonian_coeffs(example2, "H").values(xs)
        assert np.allclose(c2, 1 / (2 * np.cosh(xs) ** 2), rtol=1e-13)

    def test_swanson_second_order_coefficient(self, swanson):
        xs = np.array([0.0, 1.0])
        c2, _, _ = hamiltonian_coeffs(swanson, "H").values(xs)
        assert np.allclose(c2, np.exp(-0.6j) / 2, rtol=1e-13)

    def test_sides_validated(self, example1):
        with pytest.raises(ModelError):
            hamiltonian_coeffs(example1, "X")


class TestApply:
    def test_vacuum_is_ground_state(self, example1):
        fam = StateFamily(example1, "phi", max_n=0)
        for x in (-1.1, 0.2, 1.9):
            val = apply_hamiltonian(example1, "H", fam.jet_fn(0), x)
            assert abs(val) < 1e-12

    def test_example2_level_three_eigenvalue(self, example2):
        fam = StateFamily(example2, "phi", max_n=3)
        for x in (-1.3, 0.4, 1.1):
            val = apply_hamiltonian(example2, "H", fam.jet_fn(3), x)
            want = 3 * fam.jet(3, x, 0).value
            assert abs(val - want) <= 1e-10 * (1 + abs(want))

    def test_example1_dagger_level_two(self, example1):
        fam = StateFamily(example1, "psi", max_n=2)
        for x in (-0.8, 0.5, 1.4):
            val = apply_hamiltonian(example1, "H_dag", fam.jet_fn(2), x)
            want = 2 * fam.jet(2, x, 0).value
            assert abs(val - want) <= 1e-10 * (1 + abs(want))

    def test_matches_ladder_composition(self, all_builtins):
        # H = b a and H_dag = a_dag b_dag, applied as nested first-order
        # operators
        from pseudobosons.quad import TestFunction

        f = TestFunction(0.2, 1.4)
        for name, m in all_builtins.items():
            for x in (-0.6, 0.8):
                h_val = apply_hamiltonian(m, "H", f.jet, x)
                comp = apply_ladder(
                    m, "b", lambda xx, oo: apply_ladder(m, "a", f.jet, xx, oo),
                    x, 0).value
                assert abs(h_val - comp) <= 1e-10 * (1 + abs(comp)), name
                hd_val = apply_hamiltonian(m, "H_dag", f.jet, x)
                compd = apply_ladder(
                    m, "a_dag",
                    lambda xx, oo: apply_ladder(m, "b_dag", f.jet, xx, oo),
                    x, 0).value
                assert abs(hd_val - compd) <= 1e-10 * (1 + abs(compd)), name


class TestEigenResiduals:
    def test_example1_through_ten(self, example1):
        grid = np.linspace(-4, 4, 101)
        for n in (0, 3, 10):
            assert eigen_residual(example1, "H", n, grid) <= 1e-7
            assert eigen_residual(example1, "H_dag", n, grid) <= 1e-7

    def test_bosonic_level_four(self, bosonic):
        grid = np.linspace(-4, 4, 101)
        assert eigen_residual(bosonic, "H", 4, grid) <= 1e-10

    def test_level_zero_roundoff(self, all_builtins):
        grid = np.linspace(-2, 2, 41)
        for name, m in all_builtins.items():
            assert eigen_residual(m, "H", 0, grid) <= 1e-12, name

    def test_intertwining_b_raises_eigenstates(self, example2):
        # H (b phi_n) = (n+1) (b phi_n): b maps level n to level n+1
        n = 2
        fam = StateFamily(example2, "phi", max_n=n)
        raised = lambda xx, oo: apply_ladder(example2, "b", fam.jet_fn(n),
                                             xx, oo)
        worst = 0.0
        sup = 0.0
        for x in np.linspace(-2.5, 2.5, 61):
            val = apply_hamiltonian(example2, "H", raised, float(x))
            ref = raised(float(x), 0).value
            worst = max(worst, abs(val - (n + 1) * ref))
            sup = max(sup, abs(ref))
        assert worst / sup <= 1e-9


class TestHsusyShift:
    def test_level_zero_eigenvalue_one(self, example1):
        grid = np.linspace(-3, 3, 41)
        assert hsusy_shift_check(example1, 0, grid) <= 1e-12

    def test_example2_level_two(self, example2):
        grid = np.linspace(-3, 3, 61)
        assert hsusy_shift_check(example2, 2, grid) <= 1e-8

    def test_bosonic_level_one(self, bosonic):
        grid = np.linspace(-4, 4, 61)
        assert hsusy_shift_check(bosonic, 1, grid) <= 1e-10


class TestPrintedCrosschecks:
    def test_example1(self):
        assert builtin_hamiltonian_crosscheck("example1") <= 1e-12

    def test_example2(self):
        assert builtin_hamiltonian_crosscheck("example2") <= 1e-12

    def test_constant_k(self):
        assert builtin_hamiltonian_crosscheck("constant_k", k=1.3) <= 1e-12

    def test_unknown_name(self):
        with pytest.raises(ModelError, match="printed"):
            builtin_hamiltonian_crosscheck("bosonic")


class TestSwappedPairs:
    def test_h_dag_is_h_of_the_swapped_model_conjugated(self):
        from pseudobosons import from_expressions

        coeffs = ("(0.6+0.3*i)/(1+x^2)", "x + 0.1*i*x^2", "0.5-0.2*i",
                  "0.4*x - 0.3*i + sinh(x)/5")
        m = from_expressions(*coeffs)
        swapped = from_expressions(coeffs[2], coeffs[3], coeffs[0], coeffs[1])
        xs = np.linspace(-2.0, 2.0, 41)
        got = hamiltonian_coeffs(m, "H_dag").values(xs)
        want = hamiltonian_coeffs(swapped, "H").values(xs)
        for g, w in zip(got, want):
            assert np.allclose(g, np.conj(w), rtol=1e-14, atol=1e-14)
