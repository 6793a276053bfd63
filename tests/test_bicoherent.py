import math

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from pseudobosons import (
    GrowthProfile,
    WeakStateQuery,
    coherent_norm,
    convergence_radius,
    eigen_relation_residual,
    fix_normalization,
    from_expressions,
    moment_check,
    resolution_of_identity,
    weak_pairing,
)
from pseudobosons.bicoherent import (
    TransformedTestFunction,
    _gauss_legendre,
    _overlap_bound,
    _series_tail,
    _upper_gamma_q,
    pairing_series,
)
from pseudobosons.jets import sqrt_factorial
from pseudobosons.quad import (
    TestFunction,
    integrate_line,
    oscillator_en,
    state_overlaps,
    transform_pm,
    transform_support,
)


class TestGrowthProfile:
    def test_pseudo_bosonic_norm(self):
        prof = GrowthProfile.pseudo_bosonic()
        assert abs(coherent_norm(1.0, prof) - math.exp(-0.5)) < 1e-14

    def test_zero_argument(self):
        prof = GrowthProfile.pseudo_bosonic()
        assert coherent_norm(0.0, prof) == 1.0

    def test_linear_profile_bessel(self):
        # sum 1/(k!)^2 = I_0(2): modified-Bessel series oracle
        prof = GrowthProfile.linear()
        assert abs(coherent_norm(1.0, prof) - sp.iv(0, 2.0) ** -0.5) < 1e-14

    def test_radius_infinite(self):
        prof = GrowthProfile.pseudo_bosonic()
        assert convergence_radius(prof) == math.inf

    def test_radius_min_arithmetic(self):
        prof = GrowthProfile(alpha=math.sqrt, alpha_bar=2.0,
                             m_phi=3.0, m_psi=0.5, r_phi=1.0, r_psi=1.0)
        assert convergence_radius(prof) == 1.0

    def test_radius_degenerate(self):
        prof = GrowthProfile(alpha=math.sqrt, alpha_bar=math.inf, m_phi=0.0)
        assert convergence_radius(prof) == 0.0

    def test_outside_disc_rejected(self):
        prof = GrowthProfile(alpha=math.sqrt, alpha_bar=1.5)
        with pytest.raises(ValueError, match="convergence disc"):
            coherent_norm(2.0, prof)

    def test_alpha_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            GrowthProfile(alpha=lambda k: 0.0)


class TestMoments:
    def test_gaussian_density_factorial_moments(self):
        # Gamma-function oracle: the 2k-th radial moment of
        # (1/pi) r e^{-r^2} dr is k!/(2 pi)
        prof = GrowthProfile.pseudo_bosonic()
        devs = moment_check(lambda r: r * np.exp(-r * r) / math.pi, prof, 12)
        for k, dev in enumerate(devs):
            ref = math.factorial(k) / (2 * math.pi)
            assert abs(dev) <= 1e-10 * max(1.0, ref), k

    def test_zero_density(self):
        prof = GrowthProfile.pseudo_bosonic()
        devs = moment_check(lambda r: 0.0 * r, prof, 4, radius=10.0)
        want = [-math.factorial(k) / (2 * math.pi) for k in range(5)]
        assert np.allclose(devs, want, rtol=1e-14)

    def test_zeroth_moment_direct(self):
        prof = GrowthProfile.pseudo_bosonic()
        val = integrate_line(lambda r: r * np.exp(-r * r) / math.pi,
                             0.0, None).value
        assert abs(val - 1 / (2 * math.pi)) < 1e-14
        assert abs(moment_check(lambda r: r * np.exp(-r * r) / math.pi,
                                prof, 0)[0]) < 1e-14


class TestWeakPairing:
    def test_z_zero_reduces_to_vacuum_overlap(self, example2):
        from pseudobosons import StateFamily, compatibility_form

        g = TestFunction(0.0, 1.0)
        v = weak_pairing(WeakStateQuery(z=0.0, side="Phi", model=example2), g)
        fam = StateFamily(example2, "phi", max_n=0)
        ref = compatibility_form(example2, fam.values_fn(0), g).value
        assert abs(v - ref) < 1e-14

    def test_linearity(self, example1):
        g1 = TestFunction(0.0, 1.0)
        g2 = TestFunction(0.4, 0.8)
        z = 0.7 - 0.2j
        q = WeakStateQuery(z=z, side="Psi", model=example1)
        v1 = weak_pairing(q, g1)
        v2 = weak_pairing(q, g2)

        class Sum:
            support = (min(g1.support[0], g2.support[0]),
                       max(g1.support[1], g2.support[1]))

            @staticmethod
            def values(xs):
                return g1.values(xs) + g2.values(xs)

        v12 = weak_pairing(q, Sum)
        assert abs(v12 - (v1 + v2)) < 1e-12

    def test_brute_force_series_oracle(self, example2):
        g = TestFunction(0.0, 1.0)
        coeffs = state_overlaps(example2, g, "phi", 200, state_in_bra=True)
        z = 1.0
        brute = math.exp(-0.5) * sum(
            coeffs[n] / sqrt_factorial(n) for n in range(201))
        got = weak_pairing(WeakStateQuery(z=z, side="Phi", model=example2), g)
        assert abs(got - brute) <= 1e-10

    def test_fresh_model_needs_no_fixing(self):
        # the psi family carries the model's own normalization product
        # from its first use: no call has to fix it beforehand
        from pseudobosons import build_builtin

        g = TestFunction(0.1, 1.0)

        def results(m):
            series = pairing_series(m, [g], "psi", max_terms=20)[0]
            return series.coeffs, [
                weak_pairing(WeakStateQuery(z=0.5 - 0.2j, side=side,
                                            model=m), g)
                for side in ("Phi", "Psi")]

        fresh = results(build_builtin("example2"))
        m = build_builtin("example2")
        fix_normalization(m)
        for got, want in zip(fresh, results(m)):
            np.testing.assert_array_equal(got, want)

    def test_bosonic_matches_classical_overlap(self, bosonic):
        # phi_n = pi^(1/4) e_n, so the weak pairing is pi^(1/4) times the
        # classical coherent overlap computed with direct e_n quadratures
        g = TestFunction(0.3, 0.9)
        z = 1.2 - 0.7j
        lo, hi = g.support
        classical = sum(
            np.conj(z) ** n / sqrt_factorial(n)
            * integrate_line(lambda x, _n=n: oscillator_en(_n, x)
                             * g.values(x), lo, hi).value
            for n in range(61)) * math.exp(-0.5 * abs(z) ** 2)
        got = weak_pairing(WeakStateQuery(z=z, side="Phi", model=bosonic), g)
        assert abs(got - math.pi ** 0.25 * classical) < 1e-12


class TestOrientation:
    """The bra value <Phi(z), g> is the complex conjugate of g's ket series
    at z, as a number: the bra series summed in conj(z) with the bra
    coefficients <phi_n, g> = conj(<g, phi_n>) rounds to the same value,
    since conjugation commutes with every rounded product and sum."""

    # the demo config's z-grid, then z = 0 and two points off it
    Z = [complex(a, b) for a in np.linspace(-1.4, 1.4, 3)
         for b in np.linspace(-1.4, 1.4, 3)] + [0.0, 2 - 1j, -0.3 + 2.2j]

    # numpy changes its integer-power method past exponent 100
    @pytest.mark.parametrize("max_terms", [60, 130])
    @pytest.mark.parametrize("name", ["example2", "swanson", "raw_example1"])
    def test_bra_value_is_the_conjugate_ket_value(self, request, name,
                                                  max_terms):
        m = from_expressions("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                             "-2*x/(1+x^2)^2") if name == "raw_example1" \
            else request.getfixturevalue(name)
        g = TestFunction(0.0, 1.0)
        roots = np.array([sqrt_factorial(n) for n in range(max_terms + 1)])
        for side in ("phi", "psi"):
            series = pairing_series(m, [g], side, max_terms=max_terms)[0]
            bra_scaled = np.conj(series.coeffs) / roots
            for z in self.Z:
                z = complex(z)
                want = complex(math.exp(-0.5 * abs(z) ** 2) * np.dot(
                    np.conj(z) ** np.arange(max_terms + 1), bra_scaled))
                assert series.eval(z).conjugate() == want, (side, z)

    @pytest.mark.parametrize("name", ["example2", "bosonic"])
    def test_real_value_has_a_positive_zero_imaginary_part(self, request,
                                                           name):
        # on a real model at real z the ket value is real; its conjugate
        # would carry -0.0, which a printed value shows as -0.0000j
        m = request.getfixturevalue(name)
        g = TestFunction(0.0, 1.0)
        for side, state in (("phi", "Phi"), ("psi", "Psi")):
            series = pairing_series(m, [g], side)[0]
            for z in (0.0, 1.0, -0.7):
                for value in (series.bra(z), weak_pairing(
                        WeakStateQuery(z=z, side=state, model=m), g)):
                    assert value.imag == 0.0, (side, z)
                    assert math.copysign(1.0, value.imag) == 1.0, (side, z)
                    assert f"{value:+.4f}".endswith("+0.0000j")


class TestTailBounds:
    def test_example2_bound_soundness(self, example2):
        # the growth/decay bounds certified by the transform identities
        # must dominate the actual overlaps through n = 20
        from pseudobosons.quad import transform_identity_factors

        g = TestFunction(0.2, 1.0)
        k_phi, k_psi, c = transform_identity_factors(example2)
        lo, hi = transform_support(example2, g)
        norm_plus = math.sqrt(integrate_line(
            lambda s: np.abs(transform_pm(example2, g, "plus", s)) ** 2,
            lo, hi).value.real)
        norm_minus = math.sqrt(integrate_line(
            lambda s: np.abs(transform_pm(example2, g, "minus", s)) ** 2,
            lo, hi).value.real)
        phi_overlaps = state_overlaps(example2, g, "phi", 20,
                                      state_in_bra=True)
        psi_overlaps = state_overlaps(example2, g, "psi", 20,
                                      state_in_bra=True)
        for n in range(21):
            assert abs(phi_overlaps[n]) <= abs(k_phi) * c ** (-0.5 * n) \
                * norm_plus * (1 + 1e-12)
            assert abs(psi_overlaps[n]) <= abs(k_psi) * c ** (0.5 * n) \
                * norm_minus * (1 + 1e-12)

    def test_bound_soundness_wherever_rho_is_real(self, bosonic):
        # the same certificate on models off the proportional flavor: the
        # oscillator and example1 gauge-transformed by a complex w
        gauged = from_expressions(
            "1/(1+x^2)", "x + x^3/3 - (0.2+0.1*i)*x/(1+x^2)", "1/(1+x^2)",
            "-2*x/(1+x^2)^2 + (0.2+0.1*i)*x/(1+x^2)")
        g = TestFunction(0.2, 1.0)
        for m in (bosonic, gauged):
            for side in ("phi", "psi"):
                bound = _overlap_bound(m, [g], side)[0]
                overlaps = state_overlaps(m, g, side, 20, state_in_bra=True)
                for n in range(21):
                    assert abs(overlaps[n]) <= bound(n) * (1 + 1e-12)

    def test_no_real_rho_falls_back(self, swanson):
        assert _overlap_bound(swanson, [TestFunction()], "phi")[0] is None

    def test_budget_exceeded_raises(self, example2):
        g = TestFunction(0.0, 1.0)
        series = pairing_series(example2, [g], "psi", max_terms=12)[0]
        from pseudobosons import ModelError

        with pytest.raises(ModelError, match="tail"):
            series.eval(6.0)


    def test_unfinished_tail_is_infinite(self, example2, swanson):
        # at |z| = 38 the psi-side terms still grow at n = 461 (they peak
        # near n = 2888) while each is below 1e-18: the sum is not
        # finished, and the bound says so on both branches
        g = TestFunction(0.0, 1.0)
        for m in (example2, swanson):
            series = pairing_series(m, [g], "psi")[0]
            assert series._tail_bound(38.0) == math.inf
            assert math.isfinite(series._tail_bound(1.4))
        assert pairing_series(example2, [g], "psi")[0]._tail_bound(0.0) \
            == 0.0

    def test_series_tail_adds_the_geometric_remainder(self):
        # t_n = t_n0 q^(n-n0) / sqrt((n0+1)...n), to 40 digits
        def exact(term, q, n0):
            with mpmath.workdps(40):
                return float(term * mpmath.nsum(
                    lambda k: mpmath.mpf(q) ** k
                    / mpmath.sqrt(mpmath.rf(n0 + 1, k)), [0, mpmath.inf]))

        # a tail of order 1: the remainder is below rounding
        want = exact(3.0 ** 5 / math.sqrt(120.0), 3.0, 5)
        assert _series_tail(3.0 ** 5 / math.sqrt(120.0), 3.0, 5) == \
            pytest.approx(want, rel=1e-14, abs=0.0)
        # a tail of 1.8e-16 with ratios from 0.99 down: the sum stops
        # 3.2% short of it, and the remainder makes it an upper bound
        want = exact(1e-17, 9.5, 90)
        assert want <= _series_tail(1e-17, 9.5, 90) <= 1.01 * want
        # tiny terms that still grow finish no sum within 400 terms
        assert _series_tail(1e-300, 38.0 * math.sqrt(2.0), 61) == math.inf


class TestEigenRelations:
    def test_z_zero_vacuum_annihilation(self, example2):
        g = TestFunction(0.0, 1.0)
        res = eigen_relation_residual(example2, 0.0, g)
        # at z = 0 the relation reduces to <a^dag g, phi_0> = <g, a phi_0> = 0
        assert abs(res.residual_phi) < 1e-13
        assert abs(res.residual_psi) < 1e-13
        # the right-hand sides vanish exactly: no relative residual
        assert math.isnan(res.relative_phi)
        assert math.isnan(res.relative_psi)

    def test_example2_complex_point(self, example2):
        g = TestFunction(0.0, 1.0)
        res = eigen_relation_residual(example2, 1 + 1j, g)
        assert res.relative_phi <= 1e-8
        assert res.relative_psi <= 1e-8

    def test_bosonic_coherent_point(self, bosonic):
        g = TestFunction(0.2, 1.1)
        res = eigen_relation_residual(bosonic, 2.0, g)
        assert res.relative_phi <= 1e-10
        assert res.relative_psi <= 1e-10

    def test_transformed_function_stays_supported(self, example2):
        g = TestFunction(0.1, 0.7)
        moved = TransformedTestFunction(example2, "a_dag", g)
        xs = np.array([g.support[0] - 0.3, g.support[1] + 0.3])
        assert np.all(moved.values(xs) == 0)
        inside = np.linspace(g.support[0] + 0.05, g.support[1] - 0.05, 7)
        assert np.any(moved.values(inside) != 0)


class TestResolution:
    def test_same_bump_example1(self, example1):
        f = TestFunction(0.0, 1.0)
        r = resolution_of_identity(example1, f, f, R=6.0)
        assert r.deviation_phi_psi <= 1e-3
        assert r.deviation_psi_phi <= 1e-3

    def test_disjoint_supports(self, example2):
        f = TestFunction(-1.2, 0.5)
        g = TestFunction(1.2, 0.5)
        r = resolution_of_identity(example2, f, g, R=6.0)
        assert abs(r.reference) == 0.0
        assert abs(r.value_phi_psi) <= 1e-3
        assert abs(r.value_psi_phi) <= 1e-3

    def test_bosonic_classical(self, bosonic):
        f = TestFunction(0.0, 1.2)
        r = resolution_of_identity(bosonic, f, f, R=6.0)
        assert r.deviation_phi_psi <= 1e-3

    def test_angular_exactness(self, example2):
        # the theta integrand is a trigonometric polynomial of degree
        # <= 2 * max_terms; doubling the angular nodes must not move the
        # result beyond roundoff
        f = TestFunction(0.0, 1.0)
        base = resolution_of_identity(example2, f, f, R=3.0, max_terms=30,
                                      n_theta=63, trace_radii=[3.0])
        fine = resolution_of_identity(example2, f, f, R=3.0, max_terms=30,
                                      n_theta=126, trace_radii=[3.0])
        assert abs(base.value_phi_psi - fine.value_phi_psi) <= 1e-12

    def test_tail_estimate_covers_both_orderings(self, example2):
        # the bicoherent demo config: there the psi_phi diagonal tail is
        # the larger one
        f, g = TestFunction(0.2, 0.8), TestFunction(0.0, 1.0)
        r = resolution_of_identity(example2, f, g, R=6.0)
        ns = np.arange(61)
        q = sp.gammaincc(ns + 1.0, 36.0) / sp.factorial(ns)

        def tail(bra, ket):
            a = state_overlaps(example2, f, bra, 60, state_in_bra=False)
            b = state_overlaps(example2, g, ket, 60, state_in_bra=True)
            return float(np.sum(np.abs(a) * np.abs(b) * q))

        phi_psi, psi_phi = tail("phi", "psi"), tail("psi", "phi")
        assert psi_phi > phi_psi
        assert abs(r.tail_estimate - psi_phi) <= 1e-12 * psi_phi

    def test_trace_radii_recorded(self, example1):
        f = TestFunction(0.0, 1.0)
        r = resolution_of_identity(example1, f, f, R=4.0,
                                   trace_radii=[1.0, 2.0, 4.0])
        assert [row[0] for row in r.trace] == [1.0, 2.0, 4.0]

    def test_small_radius_warns(self, example2):
        import warnings

        f = TestFunction(0.0, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = resolution_of_identity(example2, f, f, R=1.5,
                                       trace_radii=[1.5])
        assert any("too small" in str(w.message) for w in caught)
        assert r.tail_estimate > 1e-3

    def test_adequate_radius_quiet(self, example2):
        import warnings

        f = TestFunction(0.0, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = resolution_of_identity(example2, f, f, R=6.0,
                                       trace_radii=[6.0])
        assert not caught
        assert r.tail_estimate < 1e-10


def _disc_by_polyval(m, f, g, radius, n_r, n_theta, max_terms, ordering):
    """The resolution integral on the explicit r x theta node grid: both
    pairings by Horner's rule at every node, then the product rule."""
    bra_side, ket_side = ordering.split("_")
    bra = pairing_series(m, [f], bra_side, max_terms=max_terms)[0]
    ket = pairing_series(m, [g], ket_side, max_terms=max_terms)[0]
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    r = 0.5 * radius * (nodes + 1.0)
    wr = 0.5 * radius * weights
    z = r[:, None] * np.exp(1j * theta[None, :])
    p1 = np.polynomial.polynomial.polyval(z, bra._scaled)
    p2 = np.conj(np.polynomial.polynomial.polyval(z, ket._scaled))
    integrand = p1 * p2 * np.exp(-(r * r))[:, None]
    return complex((wr * r) @ integrand.sum(axis=1) * (2.0 / n_theta))


class TestDiscreteParseval:
    """The resolution disc is summed over angles exactly; the node grid
    it stands for is the oracle."""

    @pytest.mark.parametrize("model, n_theta, max_terms", [
        ("example2", None, 60),   # default: 2 max_terms + 3, the diagonal
        ("example2", 7, 20),      # aliased residue classes
        ("swanson", None, 40),    # complex coefficients
        ("swanson", 7, 20),
    ])
    def test_matches_the_node_grid(self, request, model, n_theta,
                                   max_terms):
        m = request.getfixturevalue(model)
        f, g = TestFunction(0.2, 0.8), TestFunction(0.0, 1.0)
        radii = [1.0, 3.0, 5.0]
        r = resolution_of_identity(m, f, g, R=5.0, n_r=48, n_theta=n_theta,
                                   max_terms=max_terms, trace_radii=radii)
        for radius, v_pp, v_pf in r.trace:
            for ordering, got in (("phi_psi", v_pp), ("psi_phi", v_pf)):
                want = _disc_by_polyval(m, f, g, radius, 48, r.n_angular,
                                        max_terms, ordering)
                assert abs(got - want) <= 1e-13 * abs(want), \
                    (radius, ordering)

    @pytest.mark.parametrize("radii, n_theta, max_terms", [
        ([1.0, 3.0], None, 30),    # R = 5 is appended to the table
        ([4.0, 2.0], 7, 20),       # out of order, aliased, R appended
        ([1.0, 5.0], None, 0),     # the vacuum term alone
        ([2.0, 5.0], 1, 20),       # every term in one residue class
        ([3.0], 1, 0),
    ])
    def test_table_rows_match_the_node_grid(self, example2, radii, n_theta,
                                            max_terms):
        f, g = TestFunction(0.2, 0.8), TestFunction(0.0, 1.0)
        r = resolution_of_identity(example2, f, g, R=5.0, n_r=48,
                                   n_theta=n_theta, max_terms=max_terms,
                                   trace_radii=radii)
        assert [row[0] for row in r.trace] == radii
        rows = r.trace + [(5.0, r.value_phi_psi, r.value_psi_phi)]
        for radius, v_pp, v_pf in rows:
            for ordering, got in (("phi_psi", v_pp), ("psi_phi", v_pf)):
                want = _disc_by_polyval(example2, f, g, radius, 48,
                                        r.n_angular, max_terms, ordering)
                assert abs(got - want) <= 1e-13 * abs(want), \
                    (radius, ordering)

    def test_empty_angular_rule_is_rejected(self, example2):
        f = TestFunction(0.0, 1.0)
        with pytest.raises(ValueError, match="n_theta >= 1"):
            resolution_of_identity(example2, f, f, n_theta=0)

    def test_closed_form_q_matches_scipy(self):
        ns = np.arange(201)
        for radius in (0.5, 1.0, 3.0, 6.0, 12.0):
            want = sp.gammaincc(ns + 1.0, radius * radius)
            got = _upper_gamma_q(200, radius * radius)
            live = want > 1e-300
            assert np.all(np.abs(got[live] - want[live])
                          <= 1e-12 * want[live]), radius


@pytest.mark.parametrize("n", [1, 2, 5, 20, 96])
def test_gauss_legendre_rule(n):
    """Nodes and weights of the disc's radial rule against roots of P_n
    polished by Newton's method in 40-digit arithmetic."""
    def legendre(x):  # P_n(x), P_n'(x)
        p_prev, p = mpmath.mpf(1), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, n * (p_prev - x * p) / (1 - x * x)

    nodes, weights = _gauss_legendre(n)
    with mpmath.workdps(40):
        for x0, w0 in zip(nodes, weights):
            x = mpmath.mpf(float(x0))
            for _ in range(4):
                p, slope = legendre(x)
                x -= p / slope
            _, slope = legendre(x)
            w = 2 / ((1 - x * x) * slope * slope)
            assert abs(x0 - x) <= 2e-16
            assert abs(w0 - w) <= 1e-12 * w
