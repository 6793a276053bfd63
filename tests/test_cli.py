import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from childproc import run_cli
from pseudobosons import StateFamily, build_builtin, jets, spectral
from pseudobosons.cli import (
    BLOCKED_BY,
    CHECK_ORDER,
    ConfigError,
    SCHEMA,
    _fmt,
    _record,
    build_model,
    cmd_bicoherent,
    cmd_check,
    cmd_states,
    load_config,
    main,
)

EX2_CONFIG = """\
[model]
builtin = example2

[grid]
lo = -3
hi = 3
points = 101

[run]
n_max = 4
checks = conditions commutator normalization biorthonormality ladder eigen hsusy hamiltonian_crosscheck
seed = 7

[output]
dir = {out}
"""

BROKEN_CONFIG = """\
[model]
alpha_a = 1
beta_a = 0
alpha_b = x
beta_b = 0

[grid]
lo = 0.5
hi = 3
points = 31

[run]
n_max = 2
checks = conditions commutator eigen

[output]
dir = {out}
"""


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


class TestConfig:
    def test_unknown_check_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "[model]\nbuiltin = bosonic\n"
                                     "[run]\nchecks = nonsense\n")
        with pytest.raises(ConfigError, match="unknown checks"):
            load_config(cfg)

    def test_grid_validation(self, tmp_path):
        cfg = write_config(tmp_path, "[model]\nbuiltin = bosonic\n"
                                     "[grid]\npoints = 1\n")
        with pytest.raises(ConfigError, match="points"):
            load_config(cfg)

    def test_negative_n_max_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "[model]\nbuiltin = bosonic\n"
                                     "[run]\nn_max = -1\n")
        with pytest.raises(ConfigError, match="n_max"):
            load_config(cfg)

    def test_tolerance_validation(self, tmp_path):
        cfg = write_config(tmp_path, "[model]\nbuiltin = bosonic\n"
                                     "[tolerances]\neigen = -1\n")
        with pytest.raises(ConfigError, match="positive"):
            load_config(cfg)

    def test_missing_model_keys(self, tmp_path):
        cfg = write_config(tmp_path, "[model]\nalpha_a = 1\n")
        with pytest.raises(ConfigError, match="missing"):
            build_model(load_config(cfg).model_spec)

    def test_builtin_params_parsed_with_grammar(self, tmp_path):
        cfg = write_config(tmp_path, "[model]\nbuiltin = shifted\n"
                                     "alpha = 1/10 + 2*i/10\nbeta = 0.3\n")
        m = build_model(load_config(cfg).model_spec)
        assert m.name == "shifted"
        val = m.beta_a.eval_values(np.array([0.0]))[0]
        assert abs(val - (0.1 + 0.2j)) < 1e-15

    def test_raw_expressions_with_antideriv(self, tmp_path):
        # a fully general user model whose beta_a is a numeric
        # antiderivative; the suite must pass end to end
        body = ("[model]\n"
                "alpha_a = 1/(1+x^2)\n"
                "beta_a = antideriv(1+x^2)\n"
                "alpha_b = 1/(1+x^2)\n"
                "beta_b = -2*x/(1+x^2)^2\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 41\n"
                "[run]\nn_max = 2\nchecks = conditions commutator normalization\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        assert main(["check", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("section, key, model", [
        ("grid", "point", "builtin = bosonic\n"),
        ("output", "directory", "builtin = bosonic\n"),
        ("bicoherent", "max_term", "builtin = bosonic\n"),
        ("model", "alpha_c", "alpha_a = 1\nbeta_a = x\nalpha_b = 1\n"
                             "beta_b = 0\n"),
    ], ids=["grid", "output", "bicoherent", "raw_model"])
    def test_unknown_key_is_refused(self, tmp_path, capsys, section, key,
                                    model):
        body = f"[model]\n{model}"
        if section != "model":
            body += f"[{section}]\n"
        cfg = write_config(tmp_path, body + f"{key} = 5\n")
        with pytest.raises(ConfigError,
                           match=rf"unknown key '{key}' in \[{section}\]"):
            load_config(cfg)
        assert main(["bicoherent", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err, err

    def test_unknown_builtin_parameter_is_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[model]\nbuiltin = bosonic\nthet = 1\n")
        assert main(["check", "--config", str(cfg)]) == 2
        assert "thet" in capsys.readouterr().err

    def test_known_keys_load(self, tmp_path):
        # every key of the demo INI, a raw model with a name, and each
        # [bicoherent] key, parsed at load
        assert load_config(DEMO_INI).bicoherent["max_terms"] == 60
        given = ["-1 1 3", "-1 1 3", "0", "1", "0.2", "0.8", "6", "96", "0",
                 "60", "1e-8", "1e-3"]
        bico = "".join(f"{k} = {v}\n"
                       for k, v in zip(SCHEMA["bicoherent"], given))
        cfg = load_config(write_config(
            tmp_path, "[model]\nname = mine\nalpha_a = 1\nbeta_a = x\n"
                      "alpha_b = 1\nbeta_b = 0\n"
                      "[grid]\nlo = -1\nhi = 1\npoints = 5\n"
                      "[output]\ndir = o\n[bicoherent]\n" + bico))
        assert cfg.bicoherent == {
            "z_re": (-1.0, 1.0, 3), "z_im": (-1.0, 1.0, 3),
            "bump_center": 0.0, "bump_width": 1.0, "bump2_center": 0.2,
            "bump2_width": 0.8, "resolution_radius": 6.0,
            "radial_nodes": 96, "angular_nodes": 0, "max_terms": 60,
            "tolerance_eigen": 1e-8, "tolerance_resolution": 1e-3}
        for key, value in cfg.bicoherent.items():
            assert type(value) is type(load_config(DEMO_INI)
                                       .bicoherent[key]), key
        assert [type(v) for v in cfg.bicoherent["z_re"]] == [float, float,
                                                             int]

    def test_tol_scale(self, tmp_path):
        cfg = write_config(tmp_path, "[model]\nbuiltin = bosonic\n")
        c = load_config(cfg, tol_scale=10.0)
        assert c.tolerances["eigen"] == pytest.approx(1e-5)


class TestCmdCheck:
    def test_full_suite_passes(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, EX2_CONFIG.format(out=tmp_path / "out")))
        report = cmd_check(cfg)
        assert report.overall == "pass"
        assert [r.verdict for r in report.records] == ["pass"] * 8

    def test_broken_model_blocks_downstream(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, BROKEN_CONFIG.format(out=tmp_path / "out")))
        report = cmd_check(cfg)
        verdicts = {r.name: r.verdict for r in report.records}
        assert verdicts["conditions"] == "fail"
        assert verdicts["commutator"] == "blocked"
        assert verdicts["eigen"] == "blocked"
        assert report.overall == "fail"

    def test_empty_checks(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, "[model]\nbuiltin = bosonic\n[run]\nchecks =\n"))
        report = cmd_check(cfg)
        assert report.records == []
        assert report.overall == "pass"

    def test_report_determinism_modulo_timing(self, tmp_path):
        body = EX2_CONFIG.format(out=tmp_path / "out")
        cfg1 = load_config(write_config(tmp_path, body, "a.ini"))
        cfg2 = load_config(write_config(tmp_path, body, "b.ini"))
        r1 = cmd_check(cfg1).to_json(include_timing=False)
        r2 = cmd_check(cfg2).to_json(include_timing=False)
        assert r1 == r2

    def test_prerequisites_come_first(self):
        # cmd_check resolves blocking in one pass over CHECK_ORDER
        for name, pre in BLOCKED_BY.items():
            assert CHECK_ORDER.index(pre) < CHECK_ORDER.index(name)



    def test_crosscheck_evaluates_the_users_model(self, tmp_path):
        # named like the builtin, but beta_b is wrong: the cross-check
        # must compare this model's own coefficients, not the builtin's
        body = ("[model]\nname = example1\n"
                "alpha_a = 1/(1+x^2)\nbeta_a = x + x^3/3\n"
                "alpha_b = 1/(1+x^2)\nbeta_b = 5*x\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 61\n"
                "[run]\nchecks = {checks}\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        alone = cmd_check(load_config(write_config(
            tmp_path, body.format(checks="hamiltonian_crosscheck"), "a.ini")))
        assert [r.verdict for r in alone.records] == ["fail"]
        both = cmd_check(load_config(write_config(
            tmp_path, body.format(checks="conditions hamiltonian_crosscheck"),
            "b.ini")))
        assert [r.verdict for r in both.records] == ["fail", "blocked"]


class TestExitCodes:
    def test_pass_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EX2_CONFIG.format(out=tmp_path / "out"))
        assert main(["check", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_failure_exit_one_report_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           BROKEN_CONFIG.format(out=tmp_path / "out"))
        assert main(["check", "--config", str(cfg)]) == 1
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["overall"] == "fail"

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[model]\nbuiltin = nosuch\n")
        assert main(["check", "--config", str(cfg)]) == 2

    def test_malformed_builtin_parameter_exit_two(self, tmp_path, capsys):
        body = ("[model]\nbuiltin = constant_alpha\n"
                "alpha_a = 0.7+0.2j\nalpha_b = 1.1\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match="alpha_a = '0.7\\+0.2j'"):
            build_model(load_config(cfg).model_spec)
        assert main(["check", "--config", str(cfg)]) == 2
        assert "alpha_a" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("builtin, given, missing", [
        ("swanson", "", "theta"),
        ("constant_alpha", "alpha_a = 1\n", "alpha_b"),
    ], ids=["swanson", "constant_alpha"])
    def test_missing_builtin_parameter_exit_two(self, tmp_path, capsys,
                                                builtin, given, missing):
        body = (f"[model]\nbuiltin = {builtin}\n{given}"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        assert main(["check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"config error: cannot build builtin {builtin!r}: missing "
            f"parameter for {builtin!r}: {missing!r}"]
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_two(self, capsys, monkeypatch):
        monkeypatch.delenv("PSEUDOBOSONS_CONFIG", raising=False)
        assert main(["check"]) == 2

    def test_out_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EX2_CONFIG.format(out=tmp_path / "a"))
        assert main(["check", "--config", str(cfg), "--out",
                     str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "report.json").exists()

    def test_env_override(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, EX2_CONFIG.format(out=tmp_path / "a"))
        monkeypatch.setenv("PSEUDOBOSONS_CONFIG", str(cfg))
        monkeypatch.setenv("PSEUDOBOSONS_OUT", str(tmp_path / "envout"))
        assert main(["check"]) == 0
        assert (tmp_path / "envout" / "report.json").exists()


class TestCmdStates:
    def test_exact_zero_prints_without_sign(self):
        # an odd level at x = 0 is an exact zero whose sign depends on the
        # rounding path; the table prints 0 either way
        assert _fmt(-0.0) == _fmt(0.0) == _fmt(np.float64(-0.0)) == "0"
        assert _fmt(-1.5) == "-1.5" and _fmt(-1e-300) == "-1e-300"

    def test_shape_contract(self, tmp_path):
        body = ("[model]\nbuiltin = example2\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 101\n"
                "[run]\nn_max = 4\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = load_config(write_config(tmp_path, body))
        paths = cmd_states(cfg)
        assert len(paths) == 2
        for path in paths:
            lines = path.read_text().splitlines()
            assert len(lines) == 1 + 101  # header + data rows
            assert len(lines[0].split(",")) == 1 + 2 * 5

    def test_values_match_library(self, tmp_path):
        body = ("[model]\nbuiltin = example2\n"
                "[grid]\nlo = -2\nhi = 2\npoints = 5\n"
                "[run]\nn_max = 3\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = load_config(write_config(tmp_path, body))
        phi_path, _ = cmd_states(cfg)
        rows = [line.split(",") for line in
                phi_path.read_text().splitlines()[1:]]
        x0_row = rows[2]  # x = 0
        assert float(x0_row[0]) == 0.0
        fam = StateFamily(build_builtin("example2"), "phi", max_n=3)
        for n in range(4):
            want = fam.jet(n, 0.0, 0).value
            got = complex(float(x0_row[1 + 2 * n]),
                          float(x0_row[2 + 2 * n]))
            assert abs(got - want) < 1e-14

    def test_vacuum_only(self, tmp_path):
        body = ("[model]\nbuiltin = bosonic\n"
                "[grid]\nlo = -1\nhi = 1\npoints = 3\n"
                "[run]\nn_max = 0\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = load_config(write_config(tmp_path, body))
        paths = cmd_states(cfg)
        header = paths[0].read_text().splitlines()[0]
        assert header == "x,phi0_re,phi0_im"

    def test_csv_full_precision_lf(self, tmp_path):
        body = ("[model]\nbuiltin = bosonic\n"
                "[grid]\nlo = -1\nhi = 1\npoints = 3\n"
                "[run]\nn_max = 0\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = load_config(write_config(tmp_path, body))
        raw = cmd_states(cfg)[0].read_bytes()
        assert b"\r" not in raw
        # 17 significant digits reproduce the double exactly
        val = raw.decode().splitlines()[1].split(",")[1]
        assert float(val) == math.exp(-0.5)


class TestCmdBicoherent:
    def test_tables_and_verdicts(self, tmp_path, capsys):
        body = ("[model]\nbuiltin = example2\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 41\n"
                "[run]\nn_max = 3\n"
                "[bicoherent]\n"
                "z_re = -1 1 2\n"
                "z_im = -1 1 2\n"
                "resolution_radius = 5.0\n"
                "max_terms = 50\n"
                "radial_nodes = 64\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        assert main(["bicoherent", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        pairings = (out / "pairings.csv").read_text().splitlines()
        assert len(pairings) == 1 + 4  # 2x2 z-grid
        assert pairings[0] == "z_re,z_im,phi_re,phi_im,psi_re,psi_im"
        eigen = (out / "eigen_relations.csv").read_text().splitlines()
        assert len(eigen) == 1 + 4
        rel_cols = [line.split(",")[4:6] for line in eigen[1:]]
        assert all(float(a) <= 1e-8 and float(b) <= 1e-8
                   for a, b in rel_cols)
        resolution = (out / "resolution.csv").read_text().splitlines()
        assert resolution[0].startswith("radius,phi_psi_re")
        assert len(resolution) == 1 + 6  # six trace radii
        doc = json.loads((out / "bicoherent_report.json").read_text())
        assert doc["overall"] == "pass"

    def test_z_zero_row_and_report_metric(self, tmp_path):
        body = ("[model]\nbuiltin = example2\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 41\n"
                "[run]\nn_max = 3\n"
                "[bicoherent]\n"
                "z_re = -1 1 3\n"
                "z_im = -1 1 3\n"
                "resolution_radius = 5.0\n"
                "max_terms = 40\n"
                "radial_nodes = 48\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        assert main(["bicoherent", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        eigen = (out / "eigen_relations.csv").read_text().splitlines()
        assert len(eigen) == 1 + 9
        rows = [[float(v) for v in line.split(",")] for line in eigen[1:]]
        at_zero = [r for r in rows if r[0] == 0.0 and r[1] == 0.0]
        assert len(at_zero) == 1
        assert all(math.isnan(v) for v in at_zero[0][4:6])
        # the worst metric takes the absolute residuals where the relative
        # ones are undefined, so the z = 0 row is covered
        want = max(max(a if math.isnan(rel) else rel
                       for a, rel in ((r[2], r[4]), (r[3], r[5])))
                   for r in rows)
        doc = json.loads((out / "bicoherent_report.json").read_text())
        record = {c["name"]: c for c in doc["checks"]}[
            "bicoherent_eigen_relations"]
        assert record["metric"] == want
        assert record["metric"] >= max(at_zero[0][2:4])

    def test_far_bump_fails_fast(self, tmp_path):
        # bump2 at 3.4 on raw example1: the psi-side norm of its transform
        # stalls at the rounding noise of e^(s^2); the record says so after
        # a few refinement passes instead of spending the panel budget
        body = _demo_config(tmp_path, raw=True).read_text(encoding="utf-8")
        body = body.replace("bump2_center = 0.2", "bump2_center = 3.4") \
            .replace("bump2_width = 0.8", "bump2_width = 0.7")
        cfg = load_config(write_config(tmp_path, body, "far.ini"),
                          out_override=tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _ = cmd_bicoherent(cfg)
        assert [r.verdict for r in report.records] == ["pass", "error"]
        assert "stalled at the integrand's rounding noise" in \
            report.records[1].detail["error"]

    def test_far_bump_with_a_finite_bound_fails(self, tmp_path):
        # bump2 at 3.0 on raw example1: the norm of its transform meets
        # its tolerance and bounds f's psi-side series by about 1.7e39;
        # 60 terms leave a deviation of about 1.6e24 from <f, g>, and the
        # record says fail, never pass
        body = _demo_config(tmp_path, raw=True).read_text(encoding="utf-8")
        body = body.replace("bump2_center = 0.2", "bump2_center = 3.0") \
            .replace("bump2_width = 0.8", "bump2_width = 0.7")
        cfg = load_config(write_config(tmp_path, body, "far.ini"),
                          out_override=tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _ = cmd_bicoherent(cfg)
        assert [r.verdict for r in report.records] == ["pass", "fail"]
        assert report.records[1].metric > report.records[1].tolerance

    def test_growing_tail_is_not_certified(self, tmp_path):
        # at |z| = 38 the phi-side terms of the tail peak near n = 722 and
        # the psi-side ones near n = 2888, far past 60 + 400 terms: however
        # small the summed terms, an unfinished tail certifies nothing,
        # where it used to certify both pairings and fail the relation
        body = DEMO_INI.read_text(encoding="utf-8") \
            .replace("z_re = -1.4 1.4 3", "z_re = 38 38 1") \
            .replace("z_im = -1.4 1.4 3", "z_im = 0 0 1")
        cfg = load_config(write_config(tmp_path, body),
                          out_override=tmp_path / "out")
        report, _ = cmd_bicoherent(cfg)
        eigen, resolution = report.records
        assert eigen.verdict == "error", eigen
        assert eigen.detail["error"].startswith(
            "ModelError: non-convergent pairing tail")
        assert "at 1 of 1 z points" in eigen.detail["error"]
        assert resolution.verdict == "pass"

    def test_tail_error_is_a_record(self, tmp_path, capsys):
        # |z| up to 4.95 is beyond what 60 terms certify on the demo model:
        # the z-grid record says so, and the resolution still runs
        body = DEMO_INI.read_text(encoding="utf-8").replace(
            "-1.4 1.4 3", "-3.5 3.5 3")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["bicoherent", "--config", str(cfg), "--out",
                     str(out)]) == 1
        doc = json.loads((out / "bicoherent_report.json").read_text())
        records = {c["name"]: c for c in doc["checks"]}
        eigen = records["bicoherent_eigen_relations"]
        assert eigen["verdict"] == "error" and eigen["metric"] is None
        assert eigen["detail"]["error"].startswith(
            "ModelError: non-convergent pairing tail")
        assert records["bicoherent_resolution"]["verdict"] == "pass"
        assert doc["overall"] == "fail"
        assert (out / "resolution.csv").exists()
        assert "bicoherent_eigen_relations error" in capsys.readouterr().out
        # the psi-side series certify only z = 0, the phi-side ones every
        # point: each z stands on its own, and every row is written
        assert "at 8 of 9 z points" in eigen["detail"]["error"]
        assert "smallest at |z| = 3.5" in eigen["detail"]["error"]
        tables = {}
        for name in ("pairings.csv", "eigen_relations.csv"):
            lines = (out / name).read_text().splitlines()
            assert len(lines) == 1 + 9, name
            tables[name] = [dict(zip(lines[0].split(","),
                                     map(float, line.split(","))))
                            for line in lines[1:]]
        for row in tables["pairings.csv"]:
            assert math.isfinite(row["phi_re"]) and math.isfinite(
                row["phi_im"])
            at_zero = row["z_re"] == 0.0 and row["z_im"] == 0.0
            assert math.isnan(row["psi_re"]) != at_zero
        for row in tables["eigen_relations.csv"]:
            at_zero = row["z_re"] == 0.0 and row["z_im"] == 0.0
            assert row["abs_phi"] <= 1e-12
            # the relative residual is undefined only where z = 0
            assert math.isnan(row["rel_phi"]) == at_zero
            assert math.isnan(row["abs_psi"]) != at_zero


class TestVerdictRule:
    """One rule gives every computed record its verdict."""

    @pytest.mark.parametrize("measured, verdict", [
        ((1e-8, {}), "pass"),
        ((1e-8, {}, 1e-8), "pass"),
        ((1.5e-8, {"n": 1}, 1e-8), "error"),
        ((2e-8, {"n": 1}, 1e-8), "error"),
        ((2.5e-8, {}, 1e-8), "fail"),
        ((1.5e-8, {}), "fail"),
        ((float("nan"), {}, 1e-8), "fail"),
        ((None, {"note": "nothing to measure"}), "skipped"),
    ])
    def test_outcomes(self, measured, verdict):
        rec = _record("stub", "d", 1e-8, lambda: measured)
        assert rec.verdict == verdict
        assert (rec.metric is None) == (measured[0] is None)
        assert measured[1].items() <= rec.detail.items()

    def test_precision_limited_text(self):
        rec = _record("stub", "d", 1e-8, lambda: (1.5e-8, {"n": 1}, 1e-8))
        assert rec.metric == 1.5e-8
        assert rec.detail == {"n": 1, "error": (
            "precision-limited: deviation 1.5e-08 exceeds the tolerance "
            "1e-08 by no more than its own error 1e-08")}

    def test_exception_is_an_error_record(self):
        def compute():
            raise ValueError("no measure")
        rec = _record("stub", "d", 1e-8, compute)
        assert (rec.verdict, rec.metric) == ("error", None)
        assert rec.detail == {"error": "ValueError: no measure"}


class TestBiorthonormalityDetail:
    @staticmethod
    def _gram_record(tmp_path, n_max):
        body = _demo_config(tmp_path, raw=False, n_max=n_max).read_text(
            encoding="utf-8")
        body = re.sub(r"^checks = .*$",
                      "checks = conditions normalization biorthonormality",
                      body, flags=re.M)
        report = cmd_check(load_config(write_config(tmp_path, body)))
        return {r.name: r for r in report.records}["biorthonormality"]

    def test_level_60_is_precision_limited(self, tmp_path):
        # example2's (m, n) pair integrand is 2^((m-n)/2) times an
        # orthonormal Hermite product: at n_max = 60 the Gram deviation of
        # about 2e-8 is cancellation at eps times entry masses of 3e8,
        # which no verdict against the tolerance 1e-8 can resolve
        rec = self._gram_record(tmp_path, 60)
        assert rec.verdict == "error"
        found = re.fullmatch(
            r"precision-limited: deviation (\S+) exceeds "
            r"the tolerance 1e-08 by no more than its own error "
            r"(\S+)", rec.detail["error"])
        assert found, rec.detail
        dev, err = map(float, found.groups())
        assert 1e-8 < dev < 1e-7
        assert dev < err <= 1e-5  # below the roundoff floor of the mass
        # the record keeps its metric and the Gram's detail
        assert 1e-8 < rec.metric < 1e-7
        assert found.group(1) == f"{rec.metric:.3g}"
        assert rec.detail["matrix_size"] == 61
        assert {"max_abs_error_estimate", "max_entry_mass",
                "quad_panels"} <= rec.detail.keys()

    def test_level_50_passes(self, tmp_path):
        rec = self._gram_record(tmp_path, 50)
        assert rec.verdict == "pass"
        assert rec.metric < 1e-8

    def test_scaled_normalization_still_fails(self, tmp_path, monkeypatch):
        # N_psi off by 1e-6 moves the diagonal by far more than the Gram's
        # own error at n_max = 8
        plain = StateFamily.normalization.fget
        monkeypatch.setattr(StateFamily, "normalization", property(
            lambda fam: plain(fam) * (1 + 1e-6 if fam.side == "psi" else 1)))
        rec = self._gram_record(tmp_path, 8)
        assert rec.verdict == "fail"
        assert abs(rec.metric - 1e-6) < 1e-9


class TestCmdHamiltonian:
    def test_crosscheck_and_table(self, tmp_path, capsys):
        body = ("[model]\nbuiltin = example1\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 61\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        assert main(["hamiltonian", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        table = (out / "hamiltonian.csv").read_text().splitlines()
        assert len(table) == 1 + 61
        assert table[0].split(",")[:3] == ["x", "k2_re", "k2_im"]
        doc = json.loads((out / "hamiltonian_report.json").read_text())
        assert doc["checks"][0]["verdict"] == "pass"

    def test_no_printed_form_skips(self, tmp_path, capsys):
        body = ("[model]\nbuiltin = swanson\ntheta = 0.3\n"
                "[grid]\nlo = -2\nhi = 2\npoints = 11\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        assert main(["hamiltonian", "--config", str(cfg)]) == 0
        doc = json.loads(
            (tmp_path / "out" / "hamiltonian_report.json").read_text())
        assert doc["checks"][0]["verdict"] == "skipped"

    def test_crosscheck_error_is_a_record(self, tmp_path, capsys,
                                          monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("no printed operator")
        monkeypatch.setattr(spectral, "printed_hamiltonian_crosscheck",
                            broken)
        body = ("[model]\nbuiltin = example1\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 61\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        assert main(["hamiltonian", "--config", str(cfg)]) == 1
        doc = json.loads(
            (tmp_path / "out" / "hamiltonian_report.json").read_text())
        assert doc["overall"] == "fail"
        assert [(c["verdict"], c["detail"]) for c in doc["checks"]] == [
            ("error", {"error": "ValueError: no printed operator"})]


class TestNoVacuousPass:
    """A check passes only if it looked at the model."""

    def test_ladder_skipped_without_a_level_pair(self, tmp_path):
        body = ("[model]\nbuiltin = example2\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 41\n"
                "[run]\nn_max = 0\nchecks = conditions ladder eigen\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        report = cmd_check(load_config(write_config(tmp_path, body)))
        rec = {r.name: r for r in report.records}["ladder"]
        assert rec.verdict == "skipped"
        assert rec.metric is None
        assert "n_max >= 1" in rec.detail["note"]
        assert report.overall == "pass"

    # beta_a = x + 0.3 x^2 breaks [a, b] = 1
    RAW_DEFECT = ("[model]\nalpha_a = 1\nbeta_a = x + 0.3*x^2\n"
                  "alpha_b = 1\nbeta_b = x\n")

    @pytest.mark.parametrize("model, grid, verdict", [
        (RAW_DEFECT, "lo = -4\nhi = 4\npoints = 2\n", "error"),
        (RAW_DEFECT, "lo = -4\nhi = 4\npoints = 3\n", "fail"),
        ("[model]\nbuiltin = bosonic\n", "lo = 1e200\nhi = 2e200\n",
         "error"),
    ], ids=["two_points", "three_points", "far_out"])
    def test_commutator_that_sees_no_bump_is_an_error(self, tmp_path, model,
                                                      grid, verdict):
        # on two grid points at +-4, or far from 0, every random bump is 0
        # at every grid point, and the check has measured nothing
        body = (model + "[grid]\n" + grid + "[run]\nchecks = commutator\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        rec, = cmd_check(load_config(write_config(tmp_path, body))).records
        assert rec.verdict == verdict, rec
        if verdict == "error":
            assert rec.metric is None
            assert rec.detail["error"].startswith(
                "ModelError: none of the 5 test functions is nonzero at "
                "any of the ")
        else:
            assert rec.metric > rec.tolerance

    @pytest.mark.parametrize("key, value", [("z_re", "-1 1 0"),
                                            ("z_im", "-1 1 -2")])
    def test_empty_z_grid_is_a_config_error(self, tmp_path, capsys, key,
                                            value):
        body = ("[model]\nbuiltin = example2\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 41\n"
                f"[bicoherent]\n{key} = {value}\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        assert main(["bicoherent", "--config", str(cfg)]) == 2
        assert "count must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "bicoherent_report.json").exists()

    @pytest.mark.parametrize("key, value, least", [("radial_nodes", "0", 1),
                                                   ("angular_nodes", "-3", 0)])
    def test_empty_disc_rule_is_a_config_error(self, tmp_path, capsys, key,
                                               value, least):
        # angular_nodes = 0 selects the default count
        body = ("[model]\nbuiltin = example2\n"
                f"[bicoherent]\n{key} = {value}\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        assert main(["bicoherent", "--config", str(cfg)]) == 2
        assert f"{key} count must be >= {least}" in capsys.readouterr().err

    def test_ladder_errors_where_every_state_vanishes(self, tmp_path):
        # bosonic states underflow to 0 on [40, 50]: no relation was seen
        body = ("[model]\nbuiltin = bosonic\n"
                "[grid]\nlo = 40\nhi = 50\npoints = 41\n"
                "[run]\nn_max = 2\nchecks = ladder eigen hsusy\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        report = cmd_check(load_config(write_config(tmp_path, body)))
        for rec in report.records:
            assert rec.verdict == "error", rec
            assert "vanished on the whole grid" in rec.detail["error"]
        assert report.overall == "fail"

    @pytest.mark.parametrize("builtin, reach, n_max, where", [
        ("example2", 720, 2, "phi level 1 is not finite at x = -720:"),
        ("example1", 30, 150, "phi level 97 is not finite at x = -30:"),
        ("example2", 10, 150, "phi level 90 is not finite at x = -10:"),
    ], ids=["example2-720", "example1-150", "example2-150"])
    def test_non_finite_states_are_errors(self, tmp_path, builtin, reach,
                                          n_max, where):
        # far out the vacuum underflows to 0 where the Hermite rows (or,
        # for example2, cosh) overflow: the states read nan there, and
        # every ladder, eigen and partner-product record names the first
        # such level and point instead of reading fail metric=nan.  Only
        # at |x| = 720 do example2's coefficients overflow themselves, and
        # warn; the states never do
        body = (f"[model]\nbuiltin = {builtin}\n"
                f"[grid]\nlo = -{reach}\nhi = {reach}\npoints = 41\n"
                f"[run]\nn_max = {n_max}\nchecks = ladder eigen hsusy\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        with warnings.catch_warnings(), \
                np.errstate(all="ignore" if reach == 720 else None):
            warnings.simplefilter("error")
            report = cmd_check(load_config(write_config(tmp_path, body)))
        assert [r.verdict for r in report.records] == ["error"] * 3
        for rec in report.records:
            assert rec.detail["error"].startswith(f"ModelError: {where}"), \
                rec.detail
        assert report.overall == "fail"

    def test_states_refuses_non_finite_cells(self, tmp_path):
        # the tables of example1 at n_max = 150 over [-30, 30] read nan
        # and inf from level 97 on: the same error as check, no table
        body = ("[model]\nbuiltin = example1\n"
                "[grid]\nlo = -30\nhi = 30\npoints = 61\n"
                "[run]\nn_max = 150\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        run = run_cli(["states", "--config", write_config(tmp_path, body)])
        assert run.code == 1 and not run.timed_out
        assert run.stderr.splitlines() == [
            "error: phi level 97 is not finite at x = -30: it leaves double "
            "range there"]
        assert not (tmp_path / "out" / "states_phi.csv").exists()


class TestReports:
    def test_every_command_prints_its_records(self, tmp_path, capsys):
        body = ("[model]\nbuiltin = swanson\ntheta = 0.3\n"
                "[grid]\nlo = -2\nhi = 2\npoints = 11\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, body)
        assert main(["hamiltonian", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == [
            f"wrote {tmp_path / 'out' / 'hamiltonian_report.json'}",
            "  hamiltonian_crosscheck   skipped  metric=-"]

    def test_error_and_blocked_lines_say_why(self, tmp_path, capsys):
        vanishing = ("[model]\nbuiltin = bosonic\n"
                     "[grid]\nlo = 40\nhi = 50\npoints = 41\n"
                     "[run]\nn_max = 2\nchecks = ladder\n"
                     f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, vanishing)
        assert main(["check", "--config", str(cfg)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "  ladder                   error    metric=-  ModelError: "
            "state level 0 vanished on the whole grid (sup |state| = 0)")
        cfg = write_config(tmp_path, BROKEN_CONFIG.format(
            out=tmp_path / "out"), name="broken.ini")
        assert main(["check", "--config", str(cfg)]) == 1
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "  commutator               blocked  metric=-  "
            "blocked_by=conditions",
            "  eigen                    blocked  metric=-  "
            "blocked_by=conditions"]


class TestWorkDone:
    """Guards against a return of per-level and per-point re-evaluation
    on a general-flavor model (example1 as raw expressions)."""

    def test_raw_model_check_evaluates_each_family_once(self, tmp_path,
                                                        monkeypatch):
        from pseudobosons import expressions

        body = ("[model]\nalpha_a = 1/(1+x^2)\nbeta_a = x + x^3/3\n"
                "alpha_b = 1/(1+x^2)\nbeta_b = -2*x/(1+x^2)^2\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 101\n"
                "[run]\nn_max = 4\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        points, jet_calls = [], []
        value_at, jet = expressions.Antideriv.value_at, StateFamily.jet

        def counted_value_at(self, x):
            points.append(np.size(x))
            return value_at(self, x)

        def counted_jet(self, n, x, order):
            jet_calls.append((self.side, order))
            return jet(self, n, x, order)

        monkeypatch.setattr(expressions.Antideriv, "value_at",
                            counted_value_at)
        monkeypatch.setattr(StateFamily, "jet", counted_jet)
        report = cmd_check(load_config(write_config(tmp_path, body)))
        monkeypatch.undo()
        assert report.overall == "pass"
        assert points and min(points) > 1  # no one-point probe
        # ladder, eigen and hsusy share one order-2 evaluation per side,
        # and each truncation search makes one probe call; every
        # antiderivative call serves both vacua
        assert sorted(jet_calls) == [("phi", 2), ("psi", 2)]
        assert len(points) == 6

    def test_demo_check_applies_ladder_operators_in_few_calls(
            self, tmp_path, monkeypatch):
        # one call per operator covers every level or bump: the coefficient
        # jets of a pair are not re-evaluated per operand
        from pseudobosons import bicoherent, model, spectral, states

        calls = []
        apply_ladder = model.apply_ladder

        def counted(*args, **kwargs):
            calls.append(args[1])
            return apply_ladder(*args, **kwargs)

        for mod in (model, states, spectral, bicoherent):
            monkeypatch.setattr(mod, "apply_ladder", counted)
        report = cmd_check(load_config(_demo_config(tmp_path, raw=False)))
        monkeypatch.undo()
        assert report.overall == "pass"
        assert 0 < len(calls) <= 10

    def test_bicoherent_never_calls_polyval(self, tmp_path, monkeypatch):
        # the resolution disc is summed over angles in closed form
        def refuse(*args, **kwargs):
            raise AssertionError("polyval called")

        monkeypatch.setattr(np.polynomial.polynomial, "polyval", refuse)
        report, _ = cmd_bicoherent(load_config(
            _demo_config(tmp_path, raw=False), out_override=tmp_path))
        assert [r.verdict for r in report.records] == ["pass", "pass"]

    def test_bicoherent_runs_without_scipy(self, tmp_path):
        import os
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
        script = (
            "import sys\n"
            "from pseudobosons.cli import main\n"
            "code = main(['bicoherent', '--config', sys.argv[1], '--out', "
            "sys.argv[2]])\n"
            "assert code == 0, code\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
        cfg = _demo_config(tmp_path, raw=False)
        done = subprocess.run([sys.executable, "-c", script, str(cfg),
                               str(tmp_path / "out")],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr


DEMO_INI = Path(__file__).resolve().parents[1] / "demos" / "example_run.ini"


def _demo_config(tmp_path, *, raw: bool, n_max: int = 8):
    """The demo config, with its commented raw-expression model (example1
    as a general-flavor model) enabled when ``raw``."""
    body = DEMO_INI.read_text(encoding="utf-8")
    body = body.replace("n_max = 8", f"n_max = {n_max}")
    if raw:
        body = body.replace("builtin = example2\n", "")
        body = re.sub(r"^# (alpha_[ab]|beta_[ab]) ", r"\1 ", body,
                      flags=re.M)
    return write_config(tmp_path, body, name=f"raw{n_max}.ini" if raw
                        else "demo.ini")


class TestUnifiedClosedForm:
    """Every model that passes the conditions gets its levels from one
    Hermite closed form."""

    def test_complex_constant_alpha_ladder(self, tmp_path):
        body = ("[model]\nbuiltin = constant_alpha\n"
                "alpha_a = 0.7+0.2*i\nalpha_b = 1.1-0.3*i\nk = 0.4\n"
                "[grid]\nlo = -3\nhi = 3\npoints = 101\n"
                "[run]\nn_max = 8\nchecks = conditions ladder eigen\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        report = cmd_check(load_config(write_config(tmp_path, body)))
        assert [r.verdict for r in report.records] == ["pass"] * 3

    def test_raw_example1_check_at_level_20(self, tmp_path):
        report = cmd_check(load_config(_demo_config(tmp_path, raw=True,
                                                    n_max=20)))
        assert report.overall == "pass"
        assert report.model["flavor"] == "general"

    @pytest.mark.parametrize("raw", [True, False])
    def test_bicoherent_wide_z_grid(self, tmp_path, raw):
        # |z| up to 2.83: the transform bounds certify the pairing tails of
        # example1 given as raw expressions and of the oscillator
        body = _demo_config(tmp_path, raw=raw).read_text(encoding="utf-8")
        body = body.replace("-1.4 1.4 3", "-2.0 2.0 3").replace(
            "builtin = example2", "builtin = bosonic")
        cfg = write_config(tmp_path, body, name="wide.ini")
        report, _ = cmd_bicoherent(load_config(cfg, out_override=tmp_path))
        assert [r.verdict for r in report.records] == ["pass", "pass"]
        assert report.model["name"] == ("custom" if raw else "bosonic")

    def test_every_command_within_jet_order_3(self, tmp_path, capsys,
                                              monkeypatch):
        # no CLI path needs jets above order 3, the general flavor at 40
        # levels included
        configs = [_demo_config(tmp_path, raw=True, n_max=40),
                   _demo_config(tmp_path, raw=False)]
        monkeypatch.setattr(jets, "_MAX_ORDER", 3)
        for cfg in configs:
            for command in ("check", "states", "hamiltonian", "bicoherent"):
                out = tmp_path / f"{cfg.stem}-{command}"
                assert main([command, "--config", str(cfg), "--out",
                             str(out)]) == 0, (cfg.name, command)


class TestDerivedNormalization:
    """The normalization product is derived from the vacua on first use,
    so no result depends on which checks ran before it."""

    def test_ladder_alone_matches_the_full_check(self, tmp_path):
        body = _demo_config(tmp_path, raw=False).read_text(encoding="utf-8")
        alone = write_config(tmp_path, re.sub(
            r"^checks = .*$", "checks = ladder", body, flags=re.M), "l.ini")
        ladder = {name: {r.name: r.metric for r in
                         cmd_check(load_config(path)).records}["ladder"]
                  for name, path in (("full", tmp_path / "demo.ini"),
                                     ("alone", alone))}
        assert ladder["alone"] == ladder["full"]

    @pytest.mark.parametrize("raw", [False, True])
    def test_metric_is_the_pairing_error_estimate(self, tmp_path, raw):
        from pseudobosons import quad, states

        cfg = load_config(_demo_config(tmp_path, raw=raw))
        rec = {r.name: r for r in cmd_check(cfg).records}["normalization"]
        m = build_model(cfg.model_spec)
        res = quad.compatibility_form(
            m, m.psi_vacuum_values, m.phi_vacuum_values,
            envelope=states.pair_envelope(m, 0))
        assert rec.verdict == "pass"
        assert rec.metric == res.abs_error_estimate / abs(res.value)
        assert rec.metric > 0.0  # raw example1 read exactly 0 before
        assert rec.detail["abs_error_estimate"] == res.abs_error_estimate
        assert rec.detail["quad_panels"] == res.panels_used
        assert complex(rec.detail["norm_product_re"],
                       rec.detail["norm_product_im"]) == 1.0 / res.value

    @staticmethod
    def _count_pairing_integrals(monkeypatch) -> list:
        """Outcomes ('ok' or 'diverged') of every vacuum-pairing integral
        run from now on."""
        from pseudobosons import quad, states

        outcomes = []
        integrate = states.compatibility_form

        def counted(*args, **kwargs):
            try:
                res = integrate(*args, **kwargs)
            except quad.QuadratureError:
                outcomes.append("diverged")
                raise
            outcomes.append("ok")
            return res

        monkeypatch.setattr(states, "compatibility_form", counted)
        return outcomes

    def test_check_runs_one_vacuum_pairing_integral(self, tmp_path,
                                                    monkeypatch):
        # the normalization product and the normalization record read
        # the model's one stored pairing
        outcomes = self._count_pairing_integrals(monkeypatch)
        report = cmd_check(load_config(_demo_config(tmp_path, raw=True)))
        assert report.overall == "pass"
        assert outcomes == ["ok"]

    INCOMPATIBLE = ("[model]\nbuiltin = constant_alpha\n"
                    "alpha_a = 1\nalpha_b = 0-1\nk = 0\n"
                    "[grid]\nlo = -3\nhi = 3\npoints = 101\n"
                    "[run]\nn_max = 4\n")

    def test_incompatible_vacua(self, tmp_path):
        # phi_0 = exp(x^2/2) does not pair with psi_0 = 1: the psi-side
        # checks cannot normalize their family and say so
        cfg = load_config(write_config(tmp_path, self.INCOMPATIBLE))
        report = cmd_check(cfg)
        verdicts = {r.name: r.verdict for r in report.records}
        assert verdicts == {
            "conditions": "pass", "commutator": "pass",
            "normalization": "error", "biorthonormality": "blocked",
            "ladder": "error", "eigen": "error", "hsusy": "pass",
            "hamiltonian_crosscheck": "skipped"}
        for r in report.records:
            if r.verdict == "error":
                assert "vacuum pairing diverges" in r.detail["error"], r.name
        assert report.overall == "fail"

    def test_incompatible_vacua_bicoherent_reports(self, tmp_path):
        # the pairing error lands in the records of a written report
        cfg = load_config(write_config(tmp_path, self.INCOMPATIBLE),
                          out_override=tmp_path / "out")
        report, _ = cmd_bicoherent(cfg)
        assert [r.verdict for r in report.records] == ["error", "error"]
        assert all("vacuum pairing diverges" in r.detail["error"]
                   for r in report.records)

    def test_incompatible_vacua_diverge_once_per_check(self, tmp_path,
                                                       monkeypatch):
        # normalization, ladder and eigen all report the one stored error
        outcomes = self._count_pairing_integrals(monkeypatch)
        cmd_check(load_config(write_config(tmp_path, self.INCOMPATIBLE)))
        assert outcomes == ["diverged"]

    def test_incompatible_vacua_states_keeps_phi(self, tmp_path, capsys):
        # the phi family needs no normalization: its table is written, and
        # the psi side is one error line, not a traceback
        cfg = write_config(tmp_path, self.INCOMPATIBLE)
        out = tmp_path / "out"
        assert main(["states", "--config", str(cfg), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["states_phi.csv"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: psi side: vacuum pairing diverges")

    @pytest.mark.parametrize("command", ["check", "states", "bicoherent",
                                         "hamiltonian"])
    def test_incompatible_vacua_warn_nothing(self, tmp_path, command):
        # the growing vacuum is probed in log space: with numpy warnings
        # turned into errors, every command ends as it does without
        cfg = write_config(tmp_path, self.INCOMPATIBLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == (0 if command == "hamiltonian" else 1)
        # a warning turned error would have replaced the pairing's message
        reports = {"check": ("report.json", 3),
                   "bicoherent": ("bicoherent_report.json", 2)}
        if command in reports:
            name, count = reports[command]
            report = json.loads((tmp_path / "out" / name).read_text())
            errors = [c["detail"]["error"] for c in report["checks"]
                      if c["verdict"] == "error"]
            assert len(errors) == count
            assert all("vacuum pairing diverges" in e for e in errors)


@pytest.mark.parametrize("section, key, value", [
    ("grid", "points", "many"),
    ("run", "n_max", "eight"),
    ("tolerances", "eigen", "tiny"),
    ("bicoherent", "bump_width", "0"),
    ("bicoherent", "bump2_width", "-1"),
    ("bicoherent", "max_terms", "-3"),
    ("bicoherent", "radial_nodes", "lots"),
    ("bicoherent", "z_re", "-1 1 three"),
])
def test_malformed_value_is_a_config_error(tmp_path, capsys, section, key,
                                           value):
    body = (f"[model]\nbuiltin = example2\n[{section}]\n{key} = {value}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n")
    cfg = write_config(tmp_path, body)
    assert main(["bicoherent", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err and value in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("resolution_radius", "-6"),
    ("resolution_radius", "0"),
    ("resolution_radius", "nan"),
    ("resolution_radius", "inf"),
    ("bump_center", "nan"),
    ("bump2_center", "-inf"),
    ("bump_width", "inf"),
    ("z_re", "-inf 1 3"),
    ("z_im", "-1 nan 3"),
    ("tolerance_eigen", "nan"),
    ("tolerance_resolution", "inf"),
])
def test_nonfinite_or_nonpositive_bicoherent_value(tmp_path, capsys, key,
                                                   value):
    # every [bicoherent] float is finite, and the radius is > 0 like the
    # bump widths; none of these reaches a verdict
    body = (f"[model]\nbuiltin = example2\n[bicoherent]\n{key} = {value}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n")
    cfg = write_config(tmp_path, body)
    assert main(["bicoherent", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and value in err, err
    assert not (tmp_path / "out").exists()


class TestOneSchema:
    """Every command reads the whole config through one table, so a value
    that one command does not use is still refused by all of them."""

    @pytest.mark.parametrize("command", ["check", "states", "hamiltonian",
                                         "bicoherent"])
    def test_every_command_refuses_a_bad_bicoherent_value(
            self, tmp_path, capsys, command):
        body = DEMO_INI.read_text().replace("bump_width = 1.0",
                                            "bump_width = -1")
        assert "bump_width = -1\n" in body
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "config error: [bicoherent] bump_width = -1.0 must be positive"]
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        ("[grid]\nlo = -inf\n", "[grid] lo = -inf must be finite"),
        ("[grid]\nlo = 2\nhi = 1\n", "[grid] lo must be < hi"),
        ("[run]\nchecks = eigen ladr\n",
         "[run] checks has unknown checks ['ladr']"),
        ("[tolerances]\nladr = 1\n", "unknown key 'ladr' in [tolerances]"),
        ("[bicoherent]\ntolerance_eigen = 0\n",
         "[bicoherent] tolerance_eigen = 0.0 must be positive"),
        ("[bicoherant]\nmax_terms = 5\n", "unknown section [bicoherant]"),
    ], ids=["infinite_end", "empty_grid", "unknown_check", "tolerance_key",
            "zero_tolerance", "unknown_section"])
    def test_message_names_the_section(self, tmp_path, body, message):
        cfg = write_config(tmp_path, "[model]\nbuiltin = bosonic\n" + body)
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert str(err.value).startswith(message), str(err.value)

    @pytest.mark.parametrize("command", ["check", "states", "hamiltonian",
                                         "bicoherent"])
    def test_every_command_refuses_a_negative_seed(self, tmp_path, capsys,
                                                   command):
        cfg = write_config(tmp_path, "[model]\nbuiltin = bosonic\n"
                                     "[run]\nseed = -5\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: [run] seed = -5 must be >= 0"]
        assert not out.exists()

    def test_run_keeps_unknown_keys(self, tmp_path):
        # the benchmark's configs write [run] jobs
        cfg = write_config(tmp_path, "[model]\nbuiltin = bosonic\n"
                                     "[run]\njobs = 1\n")
        assert load_config(cfg).n_max == 10

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_tol_scale_reaches_the_bicoherent_tolerances(
            self, tmp_path, capsys, monkeypatch, via):
        # the demo INI takes the [bicoherent] defaults 1e-8 and 1e-3
        args = ["bicoherent", "--config", str(DEMO_INI),
                "--out", str(tmp_path)]
        if via == "flag":
            args += ["--tol-scale", "10"]
        else:
            monkeypatch.setenv("PSEUDOBOSONS_TOL_SCALE", "10")
        assert main(args) == 0
        report = json.loads((tmp_path / "bicoherent_report.json").read_text())
        assert {c["name"]: c["tolerance"] for c in report["checks"]} == {
            "bicoherent_eigen_relations": 10 * 1e-8,
            "bicoherent_resolution": 10 * 1e-3}

    def test_tol_scale_is_checked_after_scaling(self, tmp_path):
        cfg = write_config(tmp_path, "[model]\nbuiltin = bosonic\n")
        with pytest.raises(ConfigError,
                           match=r"\[tolerances\] conditions = 0.0 must be "
                                 "positive"):
            load_config(cfg, tol_scale=0.0)
