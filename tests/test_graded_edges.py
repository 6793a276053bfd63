"""Bump integrals on first edges graded toward every support end, and
integrands given by their factors (A, B) of conj(A_i) B_j."""

import numpy as np
import pytest

from pseudobosons import bicoherent, quad
from pseudobosons.quad import QuadratureError, TestFunction, hull_edges
from pseudobosons.states import StateFamily, pair_envelope

GRADED = 2.0 ** -np.arange(2, 8)  # t = 1 - 2^-j, j = 1..6, from each end


class TestHullEdges:
    SUPPORTS = [(-1.0, 1.0), (-0.6, 1.0), (0.1, 0.12), (2.3, 3.7),
                (-40.0, -3.0)]

    def test_every_support_keeps_its_own_edges(self):
        for k in range(1, len(self.SUPPORTS) + 1):
            supports = self.SUPPORTS[:k]
            edges = hull_edges(supports)
            assert np.all(np.diff(edges) > 0.0)
            # no edge outside the hull
            assert edges[0] == min(lo for lo, _ in supports)
            assert edges[-1] == max(hi for _, hi in supports)
            for lo, hi in supports:
                want = np.concatenate([
                    [lo, hi], quad._seed_breakpoints(lo, hi),
                    lo + (hi - lo) * GRADED, hi - (hi - lo) * GRADED])
                assert np.isin(want, edges).all()
                # a batch starts no coarser than each member alone
                assert np.isin(hull_edges([(lo, hi)]), edges).all()

    def test_a_repeated_support_is_cut_once(self):
        supports = self.SUPPORTS[:3]
        assert np.array_equal(hull_edges(supports + supports[::-1]),
                              hull_edges(supports))

    @staticmethod
    def _seeds_span_by_span(a, b):
        """The seeds as one np.linspace per span between the dyadic
        points: the reference the vectorized spans must equal bitwise."""
        pts = {a, b}
        if a < 0.0 < b:
            pts.add(0.0)
        v = 1.0
        while v < max(abs(a), abs(b)):
            pts.update(s for s in (v, -v) if a < s < b)
            v *= 2.0
        pts = sorted(pts)
        out = []
        for lo, hi in zip(pts[:-1], pts[1:]):
            out.extend(np.linspace(lo, hi, 5 if hi - lo <= 16.0 else 2)[:-1])
        return np.asarray(out + [pts[-1]])

    def test_seeds_equal_one_linspace_per_span(self):
        rng = np.random.default_rng(7)
        ends = [(-2.0 ** 60, 2.0 ** 60), (0.0, 1.0), (-4.0, 4.0),
                (3.0, 3.5), (-100.0, -0.5), (-1e-3, 2e-3)]
        for scale in (1e-3, 1.0, 30.0, 1e6):
            ends += [tuple(np.sort(rng.normal(size=2) * scale))
                     for _ in range(200)]
        for a, b in ends:
            want = self._seeds_span_by_span(a, b)
            got = quad._seed_breakpoints(a, b)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_one_support(self):
        edges = hull_edges([(-1.0, 1.0)])
        assert np.array_equal(edges, np.union1d(
            np.linspace(-1.0, 1.0, 9),
            np.concatenate([GRADED * 2.0 - 1.0, 1.0 - GRADED * 2.0])))


def _factored_and_plain(a, b):
    """The same integrand as factors and as its (npts, P*Q) product."""
    def factored(xs):
        return a[:xs.size], b[:xs.size]

    def plain(xs):
        with np.errstate(invalid="ignore", over="ignore"):
            return (np.conj(a[:xs.size])[:, :, None]
                    * b[:xs.size, None, :]).reshape(xs.size, -1)
    return factored, plain


class TestFactoredIntegrand:
    @staticmethod
    def _factors(rng, npts, p, q):
        a = rng.normal(size=(npts, p)) + 1j * rng.normal(size=(npts, p))
        b = rng.normal(size=(npts, q)) + 1j * rng.normal(size=(npts, q))
        a[rng.random(npts) < 0.2] = 0.0  # zero rows on both sides
        b[rng.random(npts) < 0.2] = 0.0
        return a, b

    @pytest.mark.parametrize("p, q", [(1, 1), (3, 61), (9, 9), (4, 1)])
    def test_panel_sums_match_the_product(self, p, q):
        rng = np.random.default_rng(17 * p + q)
        edges = np.sort(rng.uniform(-3.0, 3.0, 12))
        a, b = self._factors(rng, 15 * (edges.size - 1), p, q)
        factored, plain = _factored_and_plain(a, b)
        kron_f, err_f, kabs_f = quad._panel_sums(factored, edges[:-1],
                                                 edges[1:])
        kron_p, err_p, kabs_p = quad._panel_sums(plain, edges[:-1],
                                                 edges[1:])
        assert kron_f.shape == kron_p.shape == (edges.size - 1, p * q)
        assert np.all(np.abs(kron_f - kron_p) <= 1e-15 * kabs_p)
        assert np.all(np.abs(kabs_f - kabs_p) <= 1e-15 * kabs_p)
        # so do the Gauss sums, and the estimates formed from both
        assert np.all(np.abs(err_f - err_p) <= 1e-14 * kabs_p)

    @pytest.mark.parametrize("other_row_zero", [False, True])
    @pytest.mark.parametrize("where, value", [
        ("a", np.inf), ("a", np.nan), ("b", np.inf), ("b", -np.inf),
        ("b", np.nan)])
    def test_non_finite_factor_is_named(self, where, value, other_row_zero):
        rng = np.random.default_rng(5)
        edges = np.linspace(-2.0, 2.0, 6)
        a, b = self._factors(rng, 75, 3, 4)
        bad, other = (a, b) if where == "a" else (b, a)
        bad[40, 1] = value
        other[40] = 0.0 if other_row_zero else 1.0  # 0 * inf is nan
        errors = []
        for f in _factored_and_plain(a, b):
            with pytest.raises(QuadratureError) as err:
                quad.integrate_line(f, -2.0, 2.0, _first_edges=edges)
            errors.append(err.value)
        assert str(errors[0]) == str(errors[1])
        assert str(errors[0]).startswith("integrand is not finite at x = ")
        assert np.array_equal(errors[0].error_estimate,
                              errors[1].error_estimate)

    def test_integral_matches_the_product(self):
        # smooth factors: each entry of the (P*Q,) result is the integral
        # of conj(A_i) B_j, to the tolerance of the product's integral
        ks = np.arange(4)

        def a(xs):
            return np.exp(1j * np.outer(xs, ks) - xs[:, None] ** 2)

        def b(xs):
            return np.cos(np.outer(xs, ks + 0.5)) * (1.0 + 0.3j)

        def prod(xs):
            return (np.conj(a(xs))[:, :, None]
                    * b(xs)[:, None, :]).reshape(xs.size, -1)

        # a finite interval, and one truncated by sampling the integrand
        for lo, hi in ((-4.0, 4.0), (None, None)):
            fac = quad.integrate_line(lambda xs: (a(xs), b(xs)), lo, hi)
            want = quad.integrate_line(prod, lo, hi)
            assert fac.value.shape == fac.abs_error_estimate.shape == (16,)
            assert fac.truncation_bounds == want.truncation_bounds
            assert np.all(np.abs(fac.value - want.value) <= 2e-12)
            assert np.allclose(fac.abs_mass, want.abs_mass, rtol=1e-12)
        empty = quad.integrate_line(lambda xs: (a(xs), b(xs)), 1.0, 1.0)
        assert empty.value.shape == (16,) and not np.any(empty.value)

    @pytest.mark.parametrize("name", ["example2", "bosonic", "swanson"])
    def test_gram_matches_the_product(self, all_builtins, name):
        m = all_builtins[name]
        res = quad._adaptive_gram(m, 8)
        assert res.abs_error_estimate.shape == (81,)
        phi = StateFamily(m, "phi", max_n=8)
        psi = StateFamily(m, "psi", max_n=8)
        want = quad.integrate_line(
            lambda xs: (np.conj(psi.values_all(xs))[:, None]
                        * phi.values_all(xs)[None]).reshape(-1, xs.size).T,
            None, None, envelope=pair_envelope(m, 16)).value
        assert np.max(np.abs(res.value - want)) <= 1e-14


class TestPasses:
    """On the demo bumps every bump integral meets its tolerance on its
    first mesh, or on one refinement of it: 4 or 5 passes before."""

    @staticmethod
    def _passes(monkeypatch) -> list:
        passes = []
        sums = quad._panel_sums

        def counted(f, lo, hi):
            passes.append(lo.size)
            return sums(f, lo, hi)

        monkeypatch.setattr(quad, "_panel_sums", counted)
        return passes

    @pytest.mark.parametrize("name", ["example2", "example1", "bosonic"])
    def test_demo_bumps(self, all_builtins, name, monkeypatch):
        m = all_builtins[name]
        m.pairing_outcome  # the vacuum pairing is not a bump integral
        g, f = TestFunction(0.0, 1.0), TestFunction(0.2, 0.8)
        passes = self._passes(monkeypatch)
        for side, op in (("phi", "a_dag"), ("psi", "b")):
            hs = [g, bicoherent.TransformedTestFunction(m, op, g), f]
            passes.clear()
            quad.state_overlaps(m, hs, side, 60, state_in_bra=False)
            assert len(passes) <= 2
            passes.clear()
            bicoherent._overlap_bound(m, hs, side)
            assert len(passes) == 1
        passes.clear()
        quad.compatibility_form(m, f, g)
        assert len(passes) == 1
        passes.clear()
        g.l2_norm()
        assert len(passes) == 1


def test_bump_near_its_flat_ends_is_integrated_to_tolerance():
    # from its default seeds, integrate_line accepts 0.17759752650254
    # with an error estimate of 7.3e-14 here: the Gauss and Kronrod sums
    # of a panel near a flat support end agree by accident; scipy's
    # QUADPACK at epsabs 1e-16 gives the constant below
    h = TestFunction(0.040331116038273995, 0.4)
    edges = hull_edges([h.support])
    res = quad.integrate_line(h.values, edges[0], edges[-1],
                              _first_edges=edges)
    assert abs(res.value - 0.17759752646723173) <= 1e-12
    pair = quad.compatibility_form(None, h, lambda xs: np.ones(xs.shape))
    assert abs(pair.value - 0.17759752646723173) <= 1e-12
