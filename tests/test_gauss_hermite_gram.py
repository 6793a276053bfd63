"""The Gram matrix on certified Gauss-Hermite rules in the oscillator
variable t = rho / sqrt(2c), and the adaptive route everywhere else."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from childproc import run_cli
from pseudobosons import StateFamily, quad
from pseudobosons.cli import build_model, cmd_check, load_config
from pseudobosons.expressions import FunctionExpr
from pseudobosons.jets import Jet

ROOT = Path(__file__).resolve().parents[1]
DEMO_INI = ROOT / "demos" / "example_run.ini"
CONFIGS = ROOT / "tools" / "configs"
GRAM_CHECKS = "conditions normalization biorthonormality"


def _gram_record(tmp_path, ini):
    """The biorthonormality record of ``check`` on ``ini`` with only the
    checks up to it."""
    body = re.sub(r"^checks = .*$", f"checks = {GRAM_CHECKS}",
                  Path(ini).read_text(encoding="utf-8"), flags=re.M)
    path = tmp_path / "run.ini"
    path.write_text(body, encoding="utf-8")
    report = cmd_check(load_config(path, out_override=tmp_path / "out"))
    return {r.name: r for r in report.records}["biorthonormality"]


class TestRules:
    @pytest.mark.parametrize("K", [9, 17, 41, 209, 233])
    def test_matches_hermgauss(self, K):
        ((t, weights),) = quad._gauss_hermite(K)
        want_t, want_w = hermgauss(K)
        assert np.max(np.abs(t - want_t)) <= 1e-14 * np.max(np.abs(want_t))
        # w e^{t^2} moves by 2|t| ulp(t) relative where a node moves by one
        # ulp, 1.5e-13 at |t| = 21.6, and some outer nodes here and in
        # hermgauss differ by that: the weights are compared against the
        # largest
        want = want_w * np.exp(want_t ** 2)
        assert np.max(np.abs(weights - want)) <= 1e-13 * np.max(want)
        assert np.all(np.isfinite(weights)) and np.all(weights > 0.0)

    def test_one_call_gives_each_rule(self):
        both = quad._gauss_hermite(17, 41)
        for (t, w), K in zip(both, (17, 41)):
            ((t1, w1),) = quad._gauss_hermite(K)
            np.testing.assert_array_equal(t, t1)
            np.testing.assert_array_equal(w, w1)


class TestRoute:
    def test_demo_config_takes_the_rules(self, tmp_path):
        rec = _gram_record(tmp_path, DEMO_INI)
        assert rec.verdict == "pass"
        assert rec.detail["route"] == "gauss_hermite"
        assert rec.detail["nodes"] == [17, 41]
        assert rec.metric <= 1e-13

    @pytest.mark.parametrize("ini", ["gram_limit", "raw_example1",
                                     "swanson", "shifted_complex"])
    def test_adaptive_records_are_the_adaptive_gram(self, tmp_path, ini):
        # the record holds exactly what the unchanged adaptive integral
        # gives, and names its route
        path = CONFIGS / f"{ini}.ini"
        rec = _gram_record(tmp_path, path)
        cfg = load_config(path)
        m = build_model(cfg.model_spec)
        res = quad._adaptive_gram(m, cfg.n_max)
        G = res.value.reshape(cfg.n_max + 1, cfg.n_max + 1)
        assert rec.metric == float(np.max(np.abs(G - np.eye(cfg.n_max + 1))))
        assert list(rec.detail) == [
            "matrix_size", "route", "max_abs_error_estimate",
            "max_entry_mass", "quad_panels"] + ["error"] * (
                rec.verdict == "error")
        assert rec.detail["route"] == "adaptive"
        assert rec.detail["max_abs_error_estimate"] == float(
            np.max(res.abs_error_estimate))
        assert rec.detail["max_entry_mass"] == float(np.max(res.abs_mass))
        assert rec.detail["quad_panels"] == res.panels_used


class TestFaultsOnTheRules:
    """Faults in the model's families fail the record at n_max = 8 with
    the Gram on the rules: the rules integrate whatever the families
    give."""

    def test_scaled_normalization_fails(self, tmp_path, monkeypatch):
        plain = StateFamily.normalization.fget
        monkeypatch.setattr(StateFamily, "normalization", property(
            lambda fam: plain(fam) * (1 + 1e-6 if fam.side == "psi" else 1)))
        rec = _gram_record(tmp_path, DEMO_INI)
        assert rec.detail["route"] == "gauss_hermite"
        assert rec.verdict == "fail"
        assert abs(rec.metric - 1e-6) < 1e-9

    def test_swapped_levels_fail(self, tmp_path, monkeypatch):
        plain = StateFamily.values_all

        def swapped(fam, xs):
            rows = plain(fam, xs)
            if fam.side == "phi":
                rows[[2, 3]] = rows[[3, 2]]
            return rows

        monkeypatch.setattr(StateFamily, "values_all", swapped)
        rec = _gram_record(tmp_path, DEMO_INI)
        assert rec.detail["route"] == "gauss_hermite"
        assert rec.verdict == "fail"
        assert abs(rec.metric - 1.0) < 1e-12


class _Stepped(FunctionExpr):
    """``inner`` times 1 + ``step`` for x > ``at``."""

    __slots__ = ("inner", "at", "step")

    def __init__(self, inner, at, step):
        self.inner, self.at, self.step = inner, at, step

    def eval_jet(self, x, order):
        jet = self.inner.eval_jet(x, order)
        return Jet(jet.base, jet.coeffs * np.where(np.asarray(x) > self.at,
                                                   1.0 + self.step, 1.0))


class TestDensityCheck:
    def test_a_step_between_nodes_falls_back(self, example2):
        N = 8
        t = np.concatenate([r[0] for r in quad._gauss_hermite(N + 9,
                                                               N + 33)])
        sigma = math.sqrt(2.0 * quad._rho_scale(example2))
        x = quad.rho_invert_values(example2, sigma * t)
        alpha_b = example2.alpha_b.eval_values(x)
        assert quad._density_is_gaussian(example2, x, t, alpha_b)
        # a 1e-9 relative step in psi_0 between two neighbouring nodes
        inside = np.sort(x[(x > 0.2) & (x < 1.0)])
        at = 0.5 * (inside[0] + inside[1])
        stepped = dataclasses.replace(
            example2, vacuum_psi=_Stepped(example2.vacuum_psi, at, 1e-9))
        assert not quad._density_is_gaussian(stepped, x, t, alpha_b)
        assert quad._gauss_hermite_gram(stepped, N, 1e-12) is None
        _, dev, res = quad.biorthonormality_matrix(stepped, N,
                                                   return_integral=True)
        assert isinstance(res, quad.IntegralResult)  # the adaptive route
        assert dev < 1e-8

    def test_general_flavor_stays_adaptive(self):
        m = build_model(load_config(CONFIGS / "raw_example1.ini").model_spec)
        assert quad._gauss_hermite_gram(m, 4, 1e-12) is None


class TestLargeN:
    """At N = 200 the Gram runs on the rules: each process passes at
    1e-13 and stays small (on one core of a shared Intel Xeon the
    adaptive route took 2.0 s and 530 MB on bosonic, 2.1 s and 612 MB on
    example1)."""

    @staticmethod
    def _check(ini, tmp_path):
        run = run_cli(["check", "--config", ini, "--out", tmp_path / "out"],
                      memory_mb=1000, timeout=120)
        assert not run.timed_out
        assert run.code == 0, run.stdout + run.stderr
        assert re.search(r"biorthonormality +pass", run.stdout), run.stdout
        assert run.peak_rss_mb < 150.0, run.peak_rss_mb
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        rec = {r["name"]: r for r in doc["checks"]}["biorthonormality"]
        assert rec["detail"]["route"] == "gauss_hermite"
        assert rec["metric"] <= 1e-13

    def test_bosonic(self, tmp_path):
        cfg = load_config(CONFIGS / "gram_n200.ini")
        assert (cfg.n_max, cfg.tolerances["biorthonormality"]) == (200, 1e-13)
        self._check(CONFIGS / "gram_n200.ini", tmp_path)

    def test_example1(self, tmp_path):
        ini = tmp_path / "example1.ini"
        ini.write_text(
            "[model]\nbuiltin = example1\n[grid]\nlo = -3\nhi = 3\n"
            f"points = 201\n[run]\nn_max = 200\nchecks = {GRAM_CHECKS}\n"
            "[tolerances]\nbiorthonormality = 1e-13\n", encoding="utf-8")
        self._check(ini, tmp_path)
