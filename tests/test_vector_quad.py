"""Vector-valued quadrature over all levels: the integrator on (npts, M)
integrands, the stacked Hermite/state levels built on it, the Gram matrix
and overlaps computed as one integral, and pairing series built once per
command."""

import dataclasses
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pseudobosons import (
    biorthonormality_matrix,
    eigen_relation_residual,
    from_expressions,
    resolution_of_identity,
)
from pseudobosons import bicoherent, quad
from pseudobosons.bicoherent import PairingSeries
from pseudobosons.cli import cmd_bicoherent, cmd_check, load_config
from pseudobosons.quad import (
    QuadratureError,
    TestFunction,
    compatibility_form,
    hermite_value,
    hull_edges,
    integrate_line,
    state_overlaps,
)
from pseudobosons.states import StateFamily

DEMO_INI = Path(__file__).resolve().parents[1] / "demos" / "example_run.ini"


def _raw_example1():
    return from_expressions("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                            "-2*x/(1+x^2)^2", name="raw_rational")


class TestVectorIntegrator:
    @settings(max_examples=40, deadline=None)
    @given(center=st.floats(-1.0, 1.0), width=st.floats(0.4, 2.0),
           shift=st.floats(-1.0, 1.0), scale=st.floats(0.5, 2.0),
           levels=st.lists(st.integers(0, 12), min_size=1, max_size=6),
           phase=st.floats(0.0, 2.0 * math.pi))
    # from the default seeds this bump's flat ends made a panel's Gauss
    # and Kronrod sums agree by accident, accepting a 3.5e-11 error on
    # level 0; bump integrals start on hull_edges, as integrate_line asks
    @example(center=0.040331116038273995, width=0.4, shift=0.0, scale=1.0,
             levels=[0, 1], phase=0.0)
    def test_equals_stack_of_scalar_integrals(self, center, width, shift,
                                              scale, levels, phase):
        bump = TestFunction(center, width, amplitude=np.exp(1j * phase))

        def level(n, xs):
            return bump.values(xs) * hermite_value(n, (xs - shift) * scale)

        edges = hull_edges([bump.support])
        lo, hi = edges[0], edges[-1]
        vec = integrate_line(
            lambda xs: np.stack([level(n, xs) for n in levels], axis=-1),
            lo, hi, _first_edges=edges)
        assert vec.value.shape == vec.abs_error_estimate.shape \
            == (len(levels),)
        eps = np.finfo(float).eps
        for j, n in enumerate(levels):
            one = integrate_line(lambda xs, _n=n: level(_n, xs), lo, hi,
                                 _first_edges=edges)
            mass = integrate_line(lambda xs, _n=n: np.abs(level(_n, xs)),
                                  lo, hi, _first_edges=edges).value.real
            # each one's acceptance level: the absolute tol or the
            # roundoff floor 50 eps * mass, whichever is larger
            level_tol = max(1e-12, 50.0 * eps * mass)
            assert abs(vec.value[j] - one.value) <= (
                vec.abs_error_estimate[j] + one.abs_error_estimate
                + 2.0 * level_tol)

    def test_each_component_meets_its_own_tolerance(self):
        # the small component needs more panels than the large one; with
        # one acceptance level shared by both, the large component's
        # roundoff floor (~2e-8) would let the small one stop early
        c = 1e-14 / math.sqrt(math.pi)

        def f(xs):
            gauss = np.exp(-xs * xs)
            return np.stack([1e6 * gauss,
                             (np.cos(20.0 * xs + 0.3) + c) * gauss], axis=-1)

        res = integrate_line(f, -6.0, 6.0, tol=1e-12)
        small = 1e-14 + math.sqrt(math.pi) * math.exp(-100.0) * math.cos(0.3)
        assert res.abs_error_estimate[1] <= 1e-12
        assert abs(res.value[1] - small) <= 1e-12
        assert abs(res.value[0] - 1e6 * math.sqrt(math.pi)) <= 1e-6

    def test_vector_shapes_on_every_return_path(self):
        def f(xs):
            return np.stack([np.exp(-xs * xs), xs * np.exp(-xs * xs)], -1)

        fwd = integrate_line(f, -1.0, 2.0)
        back = integrate_line(f, 2.0, -1.0)
        assert np.array_equal(back.value, -fwd.value)
        empty = integrate_line(f, 0.5, 0.5)
        assert empty.value.shape == empty.abs_error_estimate.shape == (2,)
        assert not np.any(empty.value)
        with pytest.raises(QuadratureError) as err:
            integrate_line(
                lambda xs: np.stack([np.cos(50 / (xs + 2.0001)),
                                     np.ones_like(xs)], -1),
                -2.0, 2.0, max_panels=200)
        assert np.shape(err.value.best_value) == (2,)


class TestLevels:
    def test_hermite_rows_bitwise(self):
        y = np.linspace(-3.0, 3.0, 31) * (1.0 + 0.3j)
        rows = hermite_value(np.arange(13), y)
        assert rows.shape == (13, 31)
        for n in range(13):
            assert np.array_equal(rows[n], hermite_value(n, y))
        assert np.array_equal(hermite_value([4, 1], y.real),
                              np.stack([hermite_value(4, y.real),
                                        hermite_value(1, y.real)]))
        # levels out of order with repeats, and levels as a range
        ns = [5, 0, 5, 2, 12, 1]
        assert np.array_equal(hermite_value(ns, y), rows[ns])
        assert np.array_equal(hermite_value(range(13), y), rows)
        assert np.array_equal(hermite_value(range(3, 8), y), rows[3:8])
        # a scalar y gives the rows of a one-point array
        y0 = 0.7 + 0.1j
        one = hermite_value(ns, y0)
        assert one.shape == (len(ns),)
        assert np.array_equal(one, hermite_value(ns, np.array([y0]))[:, 0])
        assert hermite_value(5, y0) == one[0]
        # the recurrence runs in y's own dtype: a real y gives real rows,
        # the real parts of those of the same y as complex
        assert rows.dtype == np.complex128
        real = hermite_value(np.arange(13), y.real)
        assert real.dtype == np.float64
        assert np.array_equal(real, hermite_value(np.arange(13),
                                                  y.real + 0j).real)
        for n in range(13):
            assert np.array_equal(real[n], hermite_value(n, y.real))
        assert hermite_value(ns, [0.5, 1]).dtype == np.float64

    def test_calls_share_no_buffer(self, example2):
        # the states scale the recurrence's rows in place: no two results
        # may share memory, nor a result and a later call's
        y = np.linspace(-3.0, 3.0, 31) + 0.0j
        for ns in (range(6), [5, 0, 5]):
            first = hermite_value(ns, y)
            keep = first.copy()
            second = hermite_value(ns, y)
            assert not np.shares_memory(first, second)
            first[...] = np.nan
            assert np.array_equal(second, keep)
            assert np.array_equal(hermite_value(ns, y), keep)
        fam = StateFamily(example2, "psi", max_n=6)
        xs = np.linspace(-2.5, 2.5, 23)
        first = fam.values_all(xs)
        keep = first.copy()
        second = fam.values_all(xs)
        assert not np.shares_memory(first, second)
        first *= 2.0
        assert np.array_equal(second, keep)
        assert np.array_equal(fam.values_fn(3)(xs), keep[3])

    @pytest.mark.parametrize("name", ["bosonic", "shifted", "swanson",
                                      "constant_alpha", "example1",
                                      "example2", "raw"])
    def test_values_all_rows(self, request, name):
        m = _raw_example1() if name == "raw" else \
            request.getfixturevalue(name)
        # exactly real states are carried in float64; swanson and the
        # complex shifts of the shifted fixture are complex
        dtype = np.complex128 if name in ("shifted", "swanson") \
            else np.float64
        xs = np.linspace(-2.5, 2.5, 23)
        for side in ("phi", "psi"):
            fam = StateFamily(m, side, max_n=6)
            rows = fam.values_all(xs)
            assert rows.shape == (7, xs.size)
            assert rows.dtype == dtype
            for n in range(7):
                assert np.array_equal(rows[n], fam.values_fn(n)(xs))
                # one Hermite recurrence, the jet's operations in its order
                assert np.array_equal(rows[n], fam.jet(n, xs, 0).value)


class TestRealArithmetic:
    """Exactly real values are carried in float64: bumps of a real
    amplitude, a^dag g and b g on real models, and the panel sums of a
    real integrand or of real factors."""

    def test_bump_dtype_follows_its_amplitude(self):
        xs = np.linspace(-1.2, 1.2, 25)
        real, cplx = TestFunction(0.1, 0.9), TestFunction(0.1, 0.9, 1j)
        for f in (real.values, real.deriv_values):
            assert f(xs).dtype == np.float64
        for f, g in ((cplx.values, real.values),
                     (cplx.deriv_values, real.deriv_values)):
            assert f(xs).dtype == np.complex128
            np.testing.assert_allclose(f(xs), 1j * g(xs), rtol=1e-15,
                                       atol=0.0)

    def test_transformed_bump_dtype(self, example2, swanson):
        xs = np.linspace(-1.2, 1.2, 25)
        g = TestFunction(0.1, 0.9)
        for m, dtype in ((example2, np.float64), (swanson, np.complex128)):
            for op in ("a_dag", "b"):
                vals = bicoherent.TransformedTestFunction(m, op, g).values(xs)
                assert vals.dtype == dtype

    @staticmethod
    def _assert_close(real_sums, complex_sums):
        # within 1e-15 of each component's |f| mass
        mass = complex_sums[2]
        for r, c in zip(real_sums, complex_sums):
            assert r.dtype == np.float64
            assert np.all(np.abs(r - c) <= 1e-15 * mass)

    def test_panel_sums_of_a_real_integrand(self):
        lo = np.linspace(-3.0, 2.5, 12)
        hi = lo + 0.5

        def scalar(xs):
            return np.exp(-xs * xs) * np.cos(3.0 * xs)

        def vector(xs):
            return np.stack([scalar(xs), xs * np.exp(-xs * xs), xs ** 3],
                            axis=-1)

        for f in (scalar, vector):
            self._assert_close(quad._panel_sums(f, lo, hi),
                               quad._panel_sums(lambda xs: f(xs) + 0j,
                                                lo, hi))

    def test_factored_sums_of_real_factors(self):
        lo = np.linspace(-3.0, 2.5, 12)
        hi = lo + 0.5
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs = mid[:, None] + half[:, None] * quad._XGK
        a = hermite_value(range(4), xs.ravel()).T * np.exp(-xs.ravel()
                                                            ** 2)[:, None]
        b = np.stack([np.cos(xs.ravel()), np.sin(2.0 * xs.ravel())], -1)
        self._assert_close(
            quad._factored_sums(xs, half[:, None], a, b),
            quad._factored_sums(xs, half[:, None], a + 0j, b + 0j))


class TestOverlapsAndGram:
    def test_state_overlaps_match_compatibility_forms(self, example2,
                                                      shifted):
        h = TestFunction(0.3, 0.9)
        for m in (example2, shifted):
            for side in ("phi", "psi"):
                fam = StateFamily(m, side, max_n=10)
                bra = state_overlaps(m, h, side, 10, state_in_bra=True)
                ket = state_overlaps(m, h, side, 10, state_in_bra=False)
                for n in range(11):
                    want_bra = compatibility_form(m, fam.values_fn(n), h)
                    want_ket = compatibility_form(m, h, fam.values_fn(n))
                    assert abs(bra[n] - want_bra.value) <= 1e-12
                    assert abs(ket[n] - want_ket.value) <= 1e-12

    def test_general_flavor_gram_matches_builtin(self, example1):
        G_raw, dev_raw, res = biorthonormality_matrix(
            _raw_example1(), 4, return_integral=True)
        G_builtin, _ = biorthonormality_matrix(example1, 4)
        assert dev_raw <= 1e-8
        assert np.max(np.abs(G_raw - G_builtin)) <= 1e-8
        assert res.abs_error_estimate.shape == (25,)
        assert res.panels_used > 0

    def test_check_reports_gram_error_and_panels(self, tmp_path):
        cfg = load_config(DEMO_INI, out_override=tmp_path)
        rec = next(r for r in cmd_check(cfg).records
                   if r.name == "biorthonormality")
        assert 0.0 < rec.detail["max_abs_error_estimate"] <= 1e-8
        assert rec.detail["quad_panels"] > 0


def _count_calls(monkeypatch, name: str) -> list:
    """Record every call of the package function ``name`` through each
    module that binds it; returns the (growing) list of calls."""
    calls = []
    for mod_name, mod in list(sys.modules.items()):
        fn = getattr(mod, name, None)
        if mod_name.startswith("pseudobosons") and callable(fn):
            def counting(*args, _fn=fn, **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, counting)
    return calls


class TestBatchedOverlaps:
    """Several test functions share one state integral and one bound
    integral; each row is the single-function result up to where the
    shared panels refine."""

    BUMPS = (TestFunction(0.0, 1.0), TestFunction(0.2, 0.8, 0.5 - 0.3j),
             TestFunction(-3.0, 0.9), TestFunction(3.0, 0.7))

    @pytest.mark.parametrize("name", ["example2", "bosonic", "raw"])
    def test_rows_match_single_calls(self, request, name):
        m = _raw_example1() if name == "raw" else \
            request.getfixturevalue(name)
        for side in ("phi", "psi"):
            for in_bra in (True, False):
                rows = state_overlaps(m, self.BUMPS, side, 12,
                                      state_in_bra=in_bra)
                assert rows.shape == (len(self.BUMPS), 13)
                for h, row in zip(self.BUMPS, rows):
                    one = state_overlaps(m, h, side, 12, state_in_bra=in_bra)
                    # absolute below 1, relative above: the psi overlaps
                    # of the bumps at +-3 reach 4e14 on example2
                    assert np.all(np.abs(row - one)
                                  <= 1e-12 * np.maximum(1.0, np.abs(one)))

    def test_bra_rows_are_conjugate_ket_rows(self, example2):
        for side in ("phi", "psi"):
            ket = state_overlaps(example2, self.BUMPS, side, 12,
                                 state_in_bra=False)
            bra = state_overlaps(example2, self.BUMPS, side, 12,
                                 state_in_bra=True)
            assert np.array_equal(bra, np.conj(ket))
        g = self.BUMPS[0]
        series = PairingSeries(example2, g, "phi", state_in_bra=False,
                               max_terms=20)
        assert np.array_equal(series.conj().coeffs, np.conj(series.coeffs))
        assert np.array_equal(series.conj().conj().coeffs, series.coeffs)
        assert np.array_equal(
            PairingSeries(example2, g, "phi", state_in_bra=True,
                          max_terms=20).coeffs,
            state_overlaps(example2, g, "phi", 20, state_in_bra=True))

    @pytest.mark.parametrize("name", ["example2", "bosonic", "raw"])
    def test_bounds_match_single_calls(self, request, name):
        # bumps at +-1.5: at +-3 the psi transform norm overflows on
        # example2 and raw example1, batched or not
        m = _raw_example1() if name == "raw" else \
            request.getfixturevalue(name)
        bumps = self.BUMPS[:2] + (TestFunction(-1.5, 0.7),
                                  TestFunction(1.5, 0.7))
        k_phi, k_psi, _ = quad.transform_identity_factors(m)
        for side, k in (("phi", abs(k_phi)), ("psi", abs(k_psi))):
            bounds = bicoherent._overlap_bound(m, bumps, side)
            rows = state_overlaps(m, bumps, side, 20, state_in_bra=True)
            assert len(bounds) == len(bumps)
            for h, bound, row in zip(bumps, bounds, rows):
                one = bicoherent._overlap_bound(m, h, side)
                # each bound is |K| sqrt(||h_(+-)||^2 + its error
                # estimate), so the two agree to the norm integrals'
                # acceptance levels
                sq, sq_one = (bound(0) / k) ** 2, (one(0) / k) ** 2
                assert abs(sq - sq_one) <= 4e-12 * max(1.0, sq_one)
                for n in (7, 40):
                    assert bound(n) / bound(0) == pytest.approx(
                        one(n) / one(0), rel=1e-14)
                # and each still certifies its own row
                assert np.all(np.abs(row) <= [bound(n) * (1 + 1e-12)
                                              for n in range(21)])

    def test_bound_covers_the_norm_error_estimate(self, example2,
                                                  monkeypatch):
        # each row's squared norm carries its own error estimate
        g = self.BUMPS[0]
        k = abs(quad.transform_identity_factors(example2)[0])
        plain = bicoherent._overlap_bound(example2, [g, g], "phi")

        def padded(*args, **kwargs):
            res = integrate_line(*args, **kwargs)
            return dataclasses.replace(
                res, abs_error_estimate=res.abs_error_estimate + [0.5, 2.0])

        monkeypatch.setattr(bicoherent, "integrate_line", padded)
        wide = bicoherent._overlap_bound(example2, [g, g], "phi")
        for b, w, extra in zip(plain, wide, (0.5, 2.0)):
            assert (w(0) / k) ** 2 == pytest.approx((b(0) / k) ** 2 + extra,
                                                    rel=1e-12)

    @pytest.mark.parametrize("name", ["example2", "raw"])
    def test_narrow_support_nested_in_a_wide_one(self, request, name):
        # (0.10, 0.12) lies between the Kronrod nodes of the seed panel
        # [0, 0.25] of the hull [-1, 1]; cut at its ends, the narrow row
        # is integrated on its own panels, not read as 0
        m = _raw_example1() if name == "raw" else \
            request.getfixturevalue(name)
        narrow, wide = TestFunction(0.11, 0.01), TestFunction(0.0, 1.0)
        for side in ("phi", "psi"):
            rows = state_overlaps(m, [narrow, wide], side, 12,
                                  state_in_bra=False)
            bounds = bicoherent._overlap_bound(m, [narrow, wide], side)
            for h, row, bound in zip((narrow, wide), rows, bounds):
                one = state_overlaps(m, h, side, 12, state_in_bra=False)
                assert np.max(np.abs(row - one)) <= 1e-12
                one_bound = bicoherent._overlap_bound(m, h, side)
                assert bound(0) == pytest.approx(one_bound(0), rel=1e-12)
            assert np.max(np.abs(rows[0])) > 1e-3

    def test_no_real_rho_gives_no_bounds(self, swanson):
        assert bicoherent._overlap_bound(swanson, self.BUMPS, "phi") \
            == [None] * len(self.BUMPS)

    def test_series_rows_match_single_series(self, example2):
        g, f = self.BUMPS[:2]
        moved = bicoherent.TransformedTestFunction(example2, "b", g)
        batch = bicoherent.pairing_series(example2, [g, moved, f], "psi",
                                          max_terms=30)
        for h, series in zip((g, moved, f), batch):
            one = PairingSeries(example2, h, "psi", state_in_bra=False,
                                max_terms=30)
            assert not series.state_in_bra
            assert np.max(np.abs(series.coeffs - one.coeffs)) <= 1e-12


class TestSeriesBuiltOnce:
    def test_cmd_bicoherent_integrates_once_per_side(self, tmp_path,
                                                    monkeypatch):
        # one state integral and one bound integral per side, the vacuum
        # pairing and the <f, g> reference: 2 and 6 calls
        overlaps = _count_calls(monkeypatch, "state_overlaps")
        integrals = _count_calls(monkeypatch, "integrate_line")
        cfg = load_config(DEMO_INI, out_override=tmp_path)
        for _ in range(2):
            overlaps.clear()
            integrals.clear()
            report = cmd_bicoherent(cfg)[0]
            assert (len(overlaps), len(integrals)) == (2, 6)
            assert report.overall == "pass"
        rec = report.records[1]
        assert rec.name == "bicoherent_resolution"
        assert 0.0 <= rec.detail["tail_estimate"] < 1e-10

    def test_failing_f_fails_only_the_resolution(self, tmp_path):
        # f at x = 3: its psi transform norm overflows and the integral
        # exhausts its panels, so the batch of {g, g', f} raises; the
        # eigen record, which never reads f, integrates {g, g'} alone
        body = DEMO_INI.read_text(encoding="utf-8").replace(
            "bump2_center = 0.2", "bump2_center = 3.0").replace(
            "bump2_width = 0.8", "bump2_width = 0.7")
        ini = tmp_path / "far.ini"
        ini.write_text(body, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = cmd_bicoherent(load_config(ini, out_override=tmp_path))[0]
        assert [r.verdict for r in report.records] == ["pass", "error"]
        assert "QuadratureError" in report.records[1].detail["error"]

    def test_failed_batch_integrates_each_group_once(self, tmp_path,
                                                     monkeypatch):
        # f at 3.4 on raw example1: its psi-side norm stalls, so the psi
        # batch {g, g', f} raises and flags f alone as failed; f keeps
        # that error, {g, g'} is integrated once on its own, and every
        # record reads those outcomes: 3 state integrals and 3 bound
        # integrals, where integrating f again made 4 and 4, and
        # rebuilding per record 8 and 8
        body = re.sub(r"^# (alpha_[ab]|beta_[ab]) ", r"\1 ",
                      DEMO_INI.read_text(encoding="utf-8").replace(
                          "builtin = example2\n", ""), flags=re.M)
        body = body.replace("bump2_center = 0.2", "bump2_center = 3.4") \
            .replace("bump2_width = 0.8", "bump2_width = 0.7")
        ini = tmp_path / "far.ini"
        ini.write_text(body, encoding="utf-8")
        overlaps = _count_calls(monkeypatch, "state_overlaps")
        bounds = _count_calls(monkeypatch, "_overlap_bound")
        report = cmd_bicoherent(load_config(ini, out_override=tmp_path))[0]
        assert (len(overlaps), len(bounds)) == (3, 3)
        assert [r.verdict for r in report.records] == ["pass", "error"]
        assert "stalled at the integrand's rounding noise" in \
            report.records[1].detail["error"]

    @pytest.mark.parametrize("raw", [False, True])
    def test_cmd_bicoherent_warns_nothing(self, tmp_path, raw):
        # the batched integrands run over the hull of the supports, where
        # no row may form inf * 0
        body = DEMO_INI.read_text(encoding="utf-8")
        if raw:
            body = body.replace("builtin = example2\n", "")
            body = re.sub(r"^# (alpha_[ab]|beta_[ab]) ", r"\1 ", body,
                          flags=re.M)
        ini = tmp_path / "run.ini"
        ini.write_text(body, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = cmd_bicoherent(load_config(ini, out_override=tmp_path))[0]
        assert report.overall == "pass"
        assert report.model["flavor"] == ("general" if raw else "proportional")

    def test_eigen_relations_over_a_sequence(self, example2):
        g = TestFunction(0.0, 1.0)
        zs = [0.5 - 0.2j, 1.0 + 1.0j]
        many = eigen_relation_residual(example2, zs, g, max_terms=40)
        assert isinstance(many, list) and len(many) == 2
        for z, res in zip(zs, many):
            assert res == eigen_relation_residual(example2, z, g,
                                                  max_terms=40)

    def test_resolution_reuses_prebuilt_g_series(self, example2):
        f, g = TestFunction(0.2, 0.8), TestFunction(0.0, 1.0)
        series = tuple(PairingSeries(example2, g, side, state_in_bra=True,
                                     max_terms=40) for side in ("phi", "psi"))
        fresh = resolution_of_identity(example2, f, g, R=5.0, n_r=48,
                                       max_terms=40)
        reused = resolution_of_identity(example2, f, g, R=5.0, n_r=48,
                                        max_terms=40, g_series=series)
        assert reused == fresh
        assert fresh.trace[-1][1:] == (fresh.value_phi_psi,
                                       fresh.value_psi_phi)
        with pytest.raises(ValueError, match="max_terms"):
            resolution_of_identity(example2, f, g, max_terms=30,
                                   g_series=series)

    def test_moment_check_is_one_integral(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return integrate_line(*args, **kwargs)

        monkeypatch.setattr(bicoherent, "integrate_line", counting)
        prof = bicoherent.GrowthProfile.pseudo_bosonic()
        devs = bicoherent.moment_check(
            lambda r: r * np.exp(-r * r) / math.pi, prof, 12)
        assert len(calls) == 1
        for k, dev in enumerate(devs):
            ref = math.factorial(k) / (2 * math.pi)
            assert abs(dev) <= 1e-13 * max(1.0, ref)
