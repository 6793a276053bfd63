"""What ``bicoherent`` shares between its two sides and its z points: one
tail-certificate integral for every (side, function), every z of a grid
summed in one call per series, and the outcomes a failing function
leaves standing."""

import math
from pathlib import Path

import numpy as np
import pytest

from pseudobosons import bicoherent, cli, expressions, from_expressions
from pseudobosons.bicoherent import (
    PairingSeries,
    TransformedTestFunction,
    _overlap_bound,
    overlap_bounds,
)
from pseudobosons.cli import cmd_bicoherent, load_config
from pseudobosons.quad import QuadratureError, TestFunction

ROOT = Path(__file__).resolve().parents[1]
DEMO_INI = ROOT / "demos" / "example_run.ini"
RAW_INI = ROOT / "tools" / "configs" / "raw_example1.ini"


def _raw_example1():
    return from_expressions("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)",
                            "-2*x/(1+x^2)^2", name="raw_rational")


def _groups(m, g, f) -> dict:
    """The groups ``cmd_bicoherent`` integrates: g with g' and f, per
    side."""
    return {side: [[g, TransformedTestFunction(m, op, g)], [f]]
            for side, op in (("phi", "a_dag"), ("psi", "b"))}


class TestZGridInOneCall:
    def test_tail_once_per_distinct_modulus_and_csvs_match_each_z(
            self, tmp_path, monkeypatch):
        body = DEMO_INI.read_text(encoding="utf-8").replace(
            "-1.4 1.4 3", "-1.4 1.4 41")
        ini = tmp_path / "grid.ini"
        ini.write_text(body, encoding="utf-8")
        cfg = load_config(ini, out_override=tmp_path / "out")
        z_grid = [complex(a, b) for a in np.linspace(-1.4, 1.4, 41)
                  for b in np.linspace(-1.4, 1.4, 41)]
        moduli = {abs(z) for z in z_grid}

        tails = []
        series_tail = bicoherent._series_tail

        def counting(*args):
            tails.append(args)
            return series_tail(*args)

        monkeypatch.setattr(bicoherent, "_series_tail", counting)
        report, _ = cmd_bicoherent(cfg)
        monkeypatch.undo()
        assert report.overall == "pass"
        # the pairing table sums g's series on both sides, the eigen
        # relations those of g and g' on both sides
        assert len(moduli) < len(z_grid) == 41 * 41
        assert len(tails) == 6 * len(moduli)

        # the same integrals again, so the same series: every CSV entry
        # is bitwise what the series give at its z one by one
        m = cli.build_model(cfg.model_spec)
        g, f = TestFunction(0.0, 1.0), TestFunction(0.2, 0.8)
        out = cli._series_outcomes(m, _groups(m, g, f), 60)
        (g_phi, moved_phi, _), (g_psi, moved_psi, _) = out.values()
        pairings = (tmp_path / "out" / "pairings.csv").read_text() \
            .splitlines()[1:]
        eigen = (tmp_path / "out" / "eigen_relations.csv").read_text() \
            .splitlines()[1:]
        fmt = cli._fmt
        for z, prow, erow in zip(z_grid, pairings, eigen):
            vp, vs = g_phi.bra(z), g_psi.bra(z)
            assert prow == ",".join(fmt(v) for v in (
                z.real, z.imag, vp.real, vp.imag, vs.real, vs.imag)), z
            cells = [z.real, z.imag]
            rels = []
            for plain, moved in ((g_phi, moved_phi), (g_psi, moved_psi)):
                lhs, rhs = moved.eval(z), z * plain.eval(z)
                cells.append(abs(lhs - rhs))
                rels.append(abs(lhs - rhs) / abs(rhs) if rhs != 0
                            else math.nan)
            assert erow == ",".join(fmt(v) for v in cells + rels), z

    def test_values_are_nan_exactly_where_eval_refuses(self, example2):
        series = bicoherent.pairing_series(
            example2, [TestFunction(0.0, 1.0)], "psi", max_terms=40)[0]
        zs = [0.0, 1.0 - 0.5j, 3.0, 0.5 + 4.0j, 12.0, -1.0 + 0.5j, 30j]
        values = series.values(zs)
        assert values.shape == (len(zs),)
        for z, value in zip(zs, values):
            try:
                want = series.eval(z)
            except bicoherent.ModelError:
                assert np.isnan(value.real) and np.isnan(value.imag), z
            else:
                assert complex(value) == want, z
        assert np.isnan(values).any() and not np.isnan(values).all()

    def test_values_from_geometric_extrapolation(self, swanson):
        # no real rho: the tail comes from the coefficients themselves
        series = bicoherent.pairing_series(
            swanson, [TestFunction(0.0, 1.0)], "phi", max_terms=40)[0]
        zs = [0.3 + 0.1j, 1.2, -0.7j]
        assert [complex(v) for v in series.values(zs)] == [
            series.eval(z) for z in zs]


class TestJointCertificate:
    @pytest.mark.parametrize("name", ["example2", "bosonic", "raw"])
    def test_both_sides_match_one_sided_calls(self, request, name):
        m = _raw_example1() if name == "raw" else \
            request.getfixturevalue(name)
        g, f = TestFunction(0.0, 1.0), TestFunction(0.2, 0.8)
        groups = {side: [h for grp in grps for h in grp]
                  for side, grps in _groups(m, g, f).items()}
        joint = overlap_bounds(m, [(side, h) for side, hs in groups.items()
                                   for h in hs])
        one = [b for side, hs in groups.items()
               for b in _overlap_bound(m, hs, side)]
        assert len(joint) == len(one) == 6
        for both, alone in zip(joint, one):
            assert both(0) == pytest.approx(alone(0), rel=1e-12, abs=0)
            for n in (7, 60):
                assert both(n) / both(0) == pytest.approx(
                    alone(n) / alone(0), rel=1e-14)

    @pytest.mark.parametrize("center, signs", [
        (3.4, ("minus",)), (3.5, ("plus", "minus"))])
    def test_failure_names_its_signs_and_flags_its_pairs(self, example2,
                                                         center, signs):
        # at 3.4 the bump leaves double range on the psi side only, at
        # 3.5 on both: the message is each failing side's own, in order
        g, far = TestFunction(0.0, 1.0), TestFunction(center, 0.9)
        pairs = [("phi", g), ("phi", far), ("psi", g), ("psi", far)]
        with pytest.raises(QuadratureError) as err:
            overlap_bounds(example2, pairs)
        alone = []
        for side, sign in (("phi", "plus"), ("psi", "minus")):
            if sign in signs:
                with pytest.raises(QuadratureError, match=rf"\|h_{sign}\|"
                                   r"\^2 is not finite at s = ") as one:
                    _overlap_bound(example2, [g, far], side)
                alone.append(str(one.value))
        assert str(err.value) == "; ".join(alone)
        assert err.value.failed.tolist() == [
            False, "plus" in signs, False, True]

    def test_no_real_rho_gives_no_bounds(self, swanson):
        g = TestFunction(0.0, 1.0)
        assert overlap_bounds(swanson, [("phi", g), ("psi", g)]) \
            == [None, None]


class TestOutcomes:
    def test_f_failing_on_psi_keeps_its_phi_series_and_every_g(self):
        # f at 3.4 on raw example1: only its psi-side norm stalls
        m = _raw_example1()
        g, f = TestFunction(0.0, 1.0), TestFunction(3.4, 0.7)
        out = cli._series_outcomes(m, _groups(m, g, f), 60)
        phi, psi = out["phi"], out["psi"]
        assert all(isinstance(s, PairingSeries) for s in phi)
        assert all(isinstance(s, PairingSeries) for s in psi[:2])
        assert isinstance(psi[2], QuadratureError)
        assert "stalled at the integrand's rounding noise" in str(psi[2])
        for series in phi + psi[:2]:
            assert np.isfinite(series.values([0.5 + 0.5j])).all()


def test_raw_model_evaluates_each_vacuum_batch_once(tmp_path, monkeypatch):
    # the overlaps of each side (the same 480 nodes twice), both vacua at
    # x = 0 once, the normalization's probe and pairing, and one joint
    # certificate batch: 6 calls, where each side's certificate and
    # constants made 10
    sizes = []
    value_at = expressions.Antideriv.value_at

    def counting(self, points, *args, **kwargs):
        sizes.append(np.size(points))
        return value_at(self, points, *args, **kwargs)

    monkeypatch.setattr(expressions.Antideriv, "value_at", counting)
    report, _ = cmd_bicoherent(load_config(RAW_INI,
                                           out_override=tmp_path / "out"))
    assert report.overall == "pass"
    assert sorted(sizes) == [1, 16, 360, 480, 480, 481]
