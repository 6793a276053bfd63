"""Levels and test functions on one array axis: each grid check applies
every operator once to a stacked jet, and gets bitwise what a loop over
the levels (or bumps) gets; an integrand that is not finite is refused at
once; a table the model cannot give is an error line, not a traceback."""

import math
import re
import warnings

import numpy as np
import pytest

from childproc import run_cli
from pseudobosons import StateFamily, from_expressions, quad
from pseudobosons.cli import main
from pseudobosons.expressions import ExpressionDomainError, parse_expr
from pseudobosons.jets import Jet, JetError
from pseudobosons.model import apply_ladder, commutator_residual
from pseudobosons.spectral import (
    HamiltonianCoeffs,
    _hamiltonian_on,
    eigen_residual,
    hsusy_shift_check,
)
from pseudobosons.states import GridJets, LadderResiduals, verify_ladder

GRID = np.linspace(-3.0, 3.0, 201)
BUMPS = [quad.TestFunction(-0.8, 1.1), quad.TestFunction(0.4, 0.6),
         quad.TestFunction(1.5, 0.9, amplitude=0.3 - 0.7j)]
RAW_EXAMPLE1 = ("1/(1+x^2)", "x + x^3/3", "1/(1+x^2)", "-2*x/(1+x^2)^2")


def _models(all_builtins):
    return {**all_builtins, "raw_example1": from_expressions(*RAW_EXAMPLE1)}


def _same(a, b) -> bool:
    """Bitwise equality of lists of floats, nan equal to nan."""
    return np.array_equal(np.asarray(a, dtype=float),
                          np.asarray(b, dtype=float), equal_nan=True)


# -- the per-level loops, on plain (unstacked) jets ---------------------

def _relative(residual, state) -> float:
    mag = np.abs(state)
    res = np.where(mag < 1e-250, 0.0, np.abs(residual))
    return float(np.max(res)) / float(np.max(mag))


def _ladder_loop(m, n_max, grid):
    out = []
    for k in range(n_max):
        row = []
        for side, raising, lowering in (("phi", "b", "a"),
                                        ("psi", "a_dag", "b_dag")):
            fam = StateFamily(m, side, max_n=n_max)
            here = fam.jet(k, grid, 1)
            up = apply_ladder(m, raising, lambda *_: here, grid, 0).value
            down = apply_ladder(m, lowering, lambda *_: here, grid, 0).value
            want_up = math.sqrt(k + 1) * fam.jet(k + 1, grid, 1).value
            want_down = (math.sqrt(k) * fam.jet(k - 1, grid, 1).value
                         if k > 0 else 0.0)
            row += [_relative(up - want_up, here.value),
                    _relative(down - want_down, here.value)]
        out.append(LadderResiduals(*row).max)
    return out


def _eigen_loop(m, side, n_max, grid):
    fam = StateFamily(m, "phi" if side == "H" else "psi", max_n=n_max)
    coeffs = HamiltonianCoeffs(m, side).values(grid)
    out = []
    for k in range(n_max + 1):
        fj = fam.jet(k, grid, 2)
        out.append(_relative(_hamiltonian_on(coeffs, fj) - k * fj.value,
                             fj.value))
    return out


def _hsusy_loop(m, n_max, grid):
    fam = StateFamily(m, "phi", max_n=n_max)
    out = []
    for k in range(n_max + 1):
        here = fam.jet(k, grid, 2)
        b_here = apply_ladder(m, "b", lambda *_: here, grid, 1)
        val = apply_ladder(m, "a", lambda *_: b_here, grid, 0).value
        out.append(_relative(val - (k + 1) * here.value, here.value))
    return out


def _commutator_loop(m, bumps, grid):
    out = []
    for bump in bumps:
        ab = apply_ladder(m, "a", lambda *_: apply_ladder(
            m, "b", bump.jet, grid, 1), grid, 0).value
        ba = apply_ladder(m, "b", lambda *_: apply_ladder(
            m, "a", bump.jet, grid, 1), grid, 0).value
        out.append(float(np.max(np.abs(ab - ba - bump.jet(grid, 0).value))))
    return out


def _stacked_runs(m, n_max, grid, jets):
    phi = StateFamily(m, "phi", max_n=n_max)
    psi = StateFamily(m, "psi", max_n=n_max)
    levels = range(n_max + 1)
    return {
        "ladder": [r.max for r in verify_ladder(phi, psi, range(n_max), grid,
                                                jets=jets)],
        "H": eigen_residual(m, "H", levels, grid, jets=jets),
        "H_dag": eigen_residual(m, "H_dag", levels, grid, jets=jets),
        "hsusy": hsusy_shift_check(m, levels, grid, jets=jets),
        "commutator": [s.sup_abs for s in commutator_residual(
            m, [b.jet for b in BUMPS], grid, jets=jets)],
    }


class TestStackedMatchesLoops:
    @pytest.mark.parametrize("n_max", [4, 8, 20])
    def test_every_model(self, all_builtins, n_max):
        with np.errstate(over="ignore", invalid="ignore"):
            for name, m in _models(all_builtins).items():
                loops = {
                    "ladder": _ladder_loop(m, n_max, GRID),
                    "H": _eigen_loop(m, "H", n_max, GRID),
                    "H_dag": _eigen_loop(m, "H_dag", n_max, GRID),
                    "hsusy": _hsusy_loop(m, n_max, GRID),
                    "commutator": _commutator_loop(m, BUMPS, GRID),
                }
                for jets in (None, GridJets(m, GRID, n_max)):
                    stacked = _stacked_runs(m, n_max, GRID, jets)
                    for key, want in loops.items():
                        assert _same(stacked[key], want), (name, n_max, key)

    def test_single_levels_are_rows(self, example2):
        phi = StateFamily(example2, "phi", max_n=6)
        psi = StateFamily(example2, "psi", max_n=6)
        many = verify_ladder(phi, psi, [4, 0, 2], GRID)
        for k, res in zip([4, 0, 2], many):
            assert res == verify_ladder(phi, psi, k, GRID)
        assert eigen_residual(example2, "H", [3, 1], GRID) == \
            [eigen_residual(example2, "H", k, GRID) for k in (3, 1)]
        assert hsusy_shift_check(example2, [5], GRID) == \
            [hsusy_shift_check(example2, 5, GRID)]
        stats = commutator_residual(example2, BUMPS[1].jet, GRID)
        assert stats.sup_abs == commutator_residual(
            example2, [BUMPS[1].jet], GRID)[0].sup_abs

    def test_vanished_level_keeps_its_error(self, bosonic):
        far = np.linspace(40.0, 50.0, 201)
        phi = StateFamily(bosonic, "phi", max_n=4)
        psi = StateFamily(bosonic, "psi", max_n=4)
        for run in (lambda: verify_ladder(phi, psi, range(4), far),
                    lambda: eigen_residual(bosonic, "H", range(5), far),
                    lambda: hsusy_shift_check(bosonic, range(5), far)):
            with pytest.raises(Exception, match=re.escape(
                    "state level 0 vanished on the whole grid "
                    "(sup |state| = 0)")):
                run()

    def test_empty_sequences(self, example2):
        phi = StateFamily(example2, "phi", max_n=4)
        psi = StateFamily(example2, "psi", max_n=4)
        assert verify_ladder(phi, psi, [], GRID) == []
        assert eigen_residual(example2, "H", [], GRID) == []
        assert hsusy_shift_check(example2, [], GRID) == []
        assert commutator_residual(example2, [], GRID) == []


class TestNoLoopPerLevel:
    """With the grid jets evaluated, the checks make as many jets at
    n_max = 40 as at n_max = 8: nothing is built per level."""

    @staticmethod
    def _jets_made(m, n_max, monkeypatch) -> int:
        jets = GridJets(m, GRID, n_max)
        _stacked_runs(m, n_max, GRID, jets)  # evaluates the grid jets
        made = []
        init = Jet.__init__

        def counted(self, base, coeffs):
            made.append(1)
            init(self, base, coeffs)

        with monkeypatch.context() as patch:
            patch.setattr(Jet, "__init__", counted)
            _stacked_runs(m, n_max, GRID, jets)
        return len(made)

    @pytest.mark.parametrize("name", ["example2", "raw_example1"])
    def test_jet_count_is_flat(self, all_builtins, name, monkeypatch):
        m = _models(all_builtins)[name]
        assert self._jets_made(m, 8, monkeypatch) == \
            self._jets_made(m, 40, monkeypatch)


class TestStackedJets:
    def test_rows_round_like_their_jets(self):
        x = np.linspace(-1.0, 1.0, 7)
        js = [Jet.variable(x, 3) * (0.5 + k * 1j) + k for k in range(4)]
        stacked = Jet.stack(js)
        assert stacked.base.shape == (4, 7)
        u = Jet.variable(x, 3) * 0.25 + 2.0
        product = u.broadcast(stacked.base) * stacked
        for k, row in enumerate(product.rows()):
            assert np.array_equal(row.coeffs, (u * js[k]).coeffs)
        assert np.array_equal(stacked.take([2, 0]).coeffs[:, 0],
                              js[2].coeffs)

    def test_broadcast_refuses_other_points(self):
        x = np.linspace(-1.0, 1.0, 7)
        stacked = Jet.stack([Jet.variable(x, 2)] * 3)
        with pytest.raises(JetError, match="mismatched base points"):
            Jet.variable(x + 1.0, 2).broadcast(stacked.base)
        with pytest.raises(JetError, match="cannot broadcast"):
            Jet.variable(x[:5], 2).broadcast(stacked.base)
        tiled = np.tile(x, (3, 1))
        tiled[1, 3] = 9.0  # rows that differ are compared in full
        with pytest.raises(JetError, match="mismatched base points"):
            Jet.variable(x, 2).broadcast(tiled)


class TestNonFiniteIntegrand:
    def test_refused_in_the_first_pass(self, monkeypatch):
        passes = []
        sums = quad._panel_sums

        def counted(f, lo, hi):
            passes.append(lo.size)
            return sums(f, lo, hi)

        monkeypatch.setattr(quad, "_panel_sums", counted)
        with pytest.raises(quad.QuadratureError,
                           match=r"not finite at x = 0\.5\d*"):
            quad.integrate_line(
                lambda x: np.stack([np.ones_like(x),
                                    np.where(x > 0.5, np.nan, x)], -1),
                -2.0, 2.0)
        assert len(passes) == 1

    def test_error_estimate_marks_the_component(self):
        with pytest.raises(quad.QuadratureError) as err:
            quad.integrate_line(
                lambda x: np.stack([np.ones_like(x),
                                    np.where(x < -1.0, np.inf, x)], -1),
                -2.0, 2.0)
        assert err.value.error_estimate.tolist() == [0.0, math.inf]

    def test_antideriv_names_the_segment_that_overflows(self):
        tree = parse_expr("antideriv(exp(x^2))")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ExpressionDomainError) as err:
                tree.value_at(np.array([1.0, 30.0]))
        assert err.value.x == 30.0
        assert "not finite" in str(err.value.__cause__)

    def test_high_gram_fails_fast_and_small(self, tmp_path):
        # at n_max = 100 the example2 Gram reaches entry masses of 3e14,
        # whose roundoff alone exceeds the tolerance: refining it only
        # grew memory, and its deviation is noise, not a fail
        ini = tmp_path / "gram100.ini"
        ini.write_text(
            "[model]\nbuiltin = example2\n[grid]\nlo = -3\nhi = 3\n"
            "points = 201\n[run]\nn_max = 100\n"
            "checks = conditions normalization biorthonormality\n",
            encoding="utf-8")
        run = run_cli(["check", "--config", ini, "--out", tmp_path / "out"],
                      memory_mb=1000, timeout=120)
        assert not run.timed_out
        assert run.code == 1, run.stderr
        line = next(ln for ln in run.stdout.splitlines()
                    if "biorthonormality" in ln)
        assert re.search(r"error .*precision-limited: "
                         r"deviation \S+ exceeds the tolerance 1e-08 by no "
                         r"more than its own error \S+", line), line
        assert "RuntimeWarning" not in run.stderr
        assert run.peak_rss_mb < 300.0, run.peak_rss_mb


class TestLevel150:
    """States from the normalized Hermite recurrence stay within double
    range where H_n and n! alone leave it, so N = 150 checks pass."""

    @staticmethod
    def _run(tmp_path, model, reach, n_max, checks):
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[model]\n{model}\n[grid]\nlo = -{reach}\nhi = {reach}\n"
            f"points = 201\n[run]\nn_max = {n_max}\nchecks = {checks}\n",
            encoding="utf-8")
        run = run_cli(["check", "--config", ini, "--out", tmp_path / "out"],
                      timeout=120)
        assert not run.timed_out
        return run

    @pytest.mark.parametrize("model, reach", [
        ("builtin = bosonic", 12),
        ("builtin = example1", 3),
        ("alpha_a = 1/(1+x^2)\nbeta_a = x + x^3/3\nalpha_b = 1/(1+x^2)\n"
         "beta_b = -2*x/(1+x^2)^2", 3),
    ], ids=["bosonic", "example1", "raw_example1"])
    def test_biorthonormality(self, tmp_path, model, reach):
        run = self._run(tmp_path, model, reach, 150,
                        "conditions normalization biorthonormality")
        assert run.code == 0, run.stdout + run.stderr
        assert re.search(r"biorthonormality +pass", run.stdout), run.stdout
        # the whole process, with the real states in float64
        assert run.peak_rss_mb < 400, run.peak_rss_mb

    def test_example1_residuals_at_level_120(self, tmp_path):
        run = self._run(tmp_path, "builtin = example1", 10, 120,
                        "conditions ladder eigen hsusy")
        assert run.code == 0, run.stdout + run.stderr
        for name in ("ladder", "eigen", "hsusy"):
            assert re.search(rf"{name} +pass", run.stdout), run.stdout
        assert run.stderr == ""


class TestHamiltonianOnAPole:
    def test_error_line_not_traceback(self, tmp_path, capsys):
        ini = tmp_path / "pole.ini"
        ini.write_text(
            "[model]\nalpha_a = 1/x\nbeta_a = 0\nalpha_b = 1/(x-0.03)\n"
            "beta_b = x\n[grid]\nlo = -3\nhi = 3\npoints = 201\n",
            encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["hamiltonian", "--config", str(ini), "--out",
                         str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            "error: H coefficients: division by zero in 'x' at x = 0.0"]
        assert not (tmp_path / "out" / "hamiltonian.csv").exists()
