"""tools/compare_outputs.py on stubbed command runs."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from pseudobosons.cli import build_model, load_config

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def _report(verdict, metric, timing):
    return {"model": {"name": "m"},
            "checks": [{"name": "ladder", "metric": metric,
                        "verdict": verdict, "detail": {"n": 3}}],
            "overall": verdict, "timing_seconds": timing}


def _stub(monkeypatch, outputs):
    """A run_command that writes ``outputs[side](command)`` (file name ->
    text) and records its calls."""
    calls = []

    def run_command(checkout, command, ini, out_dir):
        calls.append((checkout.name, command, ini.name))
        for name, text in outputs[checkout.name](command).items():
            (out_dir / name).write_text(text)
        (out_dir / "exit_status").write_text("0\n")
        return 0

    monkeypatch.setattr(compare_outputs, "run_command", run_command)
    return calls


def _main(tmp_path, *configs):
    return compare_outputs.main(["--base", str(tmp_path / "base"),
                                 "--change", str(tmp_path / "change"),
                                 "--work", str(tmp_path / "work"),
                                 *(str(tmp_path / c)
                                   for c in configs or ("a.ini",))])


def _lines_of(out: str, command: str) -> list:
    """The lines printed for ``command``: its head line and the indented
    ones under it."""
    lines, keep = [], False
    for line in out.splitlines():
        if not line.startswith("#   "):
            keep = line.startswith(f"# a.ini {command}:")
        if keep:
            lines.append(line)
    return lines


def test_same_outputs_apart_from_timing(monkeypatch, tmp_path, capsys):
    def side(timing):
        return lambda command: {
            "report.json": json.dumps(_report("pass", 1e-15, timing)),
            "t.csv": "x,v\n0,1\n1,2\n"}

    calls = _stub(monkeypatch, {"base": side(0.5), "change": side(0.7)})
    assert _main(tmp_path) == 0
    assert [c[:2] for c in calls] == [
        (s, c) for c in compare_outputs.COMMANDS for s in ("base", "change")]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("# a.ini ") and ": identical;" in line
               for line in lines)


def test_changed_verdict_fails_and_moves_are_reported(monkeypatch, tmp_path,
                                                      capsys):
    outputs = {
        "base": lambda command: {
            "report.json": json.dumps(_report("pass", 2.0, 1.0)),
            "t.csv": "x,v\n0,-4\n1,2\n"},
        "change": lambda command: {
            "report.json": json.dumps(_report("fail", 2.5, 1.0)),
            "t.csv": "x,v\n0,-4\n1,2.2\n"},
    }
    _stub(monkeypatch, outputs)
    assert _main(tmp_path) == 1
    out = capsys.readouterr().out
    for command in compare_outputs.COMMANDS:
        lines = _lines_of(out, command)
        assert lines[0] == (
            f"# a.ini {command}: differs; report number moved 0.5 (0.25 of "
            "max(1, |base|)) at report.json:/checks/0/metric; CSV moved 0.05 "
            "of its column's max at t.csv:v, at most 0.2 absolute")
        assert lines[1:] == ["#   metric moved 0.5 (0.25 of max(1, |base|)) "
                             "at report.json:/checks/0/metric",
                             "#   verdict changed: overall: pass -> fail",
                             "#   verdict changed: record ladder: pass -> "
                             "fail"]


def test_metric_move_is_not_hidden_by_a_counter(monkeypatch, tmp_path,
                                                capsys):
    # a detail counter moves by 48 and the metric by 1e-14: the head line
    # names the counter, and the metric's move has a line of its own
    def side(metric, panels):
        report = _report("pass", metric, 1.0)
        report["checks"].insert(0, {"name": "commutator", "metric": 2e-9,
                                    "verdict": "pass", "detail": {}})
        report["checks"][1]["detail"] = {"quad_panels": panels}
        return lambda command: {"report.json": json.dumps(report)}

    _stub(monkeypatch, {"base": side(1.8e-15, 96),
                        "change": side(1.18e-14, 48)})
    assert _main(tmp_path) == 0
    lines = _lines_of(capsys.readouterr().out, "check")
    assert "report number moved 48 (0.5 of max(1, |base|)) at " \
        "report.json:/checks/1/detail/quad_panels" in lines[0]
    assert lines[1:] == ["#   metric moved 1e-14 (1e-14 of max(1, |base|)) "
                         "at report.json:/checks/1/metric"]


def test_no_metric_line_where_no_metric_moved(monkeypatch, tmp_path,
                                              capsys):
    def side(panels):
        report = _report("pass", 1e-15, 1.0)
        report["checks"][0]["detail"] = {"quad_panels": panels}
        return lambda command: {"report.json": json.dumps(report)}

    _stub(monkeypatch, {"base": side(96), "change": side(48)})
    assert _main(tmp_path) == 0
    assert _lines_of(capsys.readouterr().out, "check")[1:] == []


def test_exit_status_and_one_sided_files(monkeypatch, tmp_path, capsys):
    _stub(monkeypatch, {
        "base": lambda command: {"t.csv": "x\n0\n"} if command == "states"
        else {},
        "change": lambda command: {}})
    assert _main(tmp_path) == 1
    out = capsys.readouterr().out
    assert _lines_of(out, "states")[1:] == [
        "#   mismatched: t.csv written on one side only"]
    assert _lines_of(out, "check")[1:] == []


@pytest.mark.parametrize("base, change, what", [
    ("x,v\n0,1\n", "x,w\n0,1\n", "t.csv changed header or row count"),
    ("x,v\n0,1\n", "x,v\n0,1\n1,2\n", "t.csv changed header or row count"),
    (json.dumps({"a": 1, "b": [2]}), json.dumps({"a": 1, "b": [2, 3]}),
     "report.json:/b/1 given on one side only"),
    (json.dumps({"a": 1, "c": 2}), json.dumps({"a": 1}),
     "report.json:/c given on one side only"),
])
def test_changed_shape_fails(monkeypatch, tmp_path, capsys, base, change,
                             what):
    name = "t.csv" if what.startswith("t.csv") else "report.json"
    _stub(monkeypatch, {"base": lambda command: {name: base},
                        "change": lambda command: {name: change}})
    assert _main(tmp_path) == 1
    assert _lines_of(capsys.readouterr().out, "check")[1:] == [
        f"#   mismatched: {what}"]


@pytest.mark.parametrize("base, change, path", [
    ("deviation 1e-07", "deviation 2e-07", "/checks/0/detail/error"),
    (True, False, "/checks/0/detail/error"),
    (None, "diverges", "/checks/0/detail/error"),
    ("a note", 1.0, "/checks/0/detail/error"),
])
def test_changed_text_fails_and_is_named(monkeypatch, tmp_path, capsys,
                                         base, change, path):
    # a report whose only change is a text: the verdicts and the other
    # numbers are the same on both sides
    def side(text):
        report = _report("error", 3e-8, 1.0)
        report["checks"][0]["detail"]["error"] = text
        return lambda command: {"report.json": json.dumps(report)}

    _stub(monkeypatch, {"base": side(base), "change": side(change)})
    assert _main(tmp_path) == 1
    lines = _lines_of(capsys.readouterr().out, "check")
    assert lines[0].startswith("# a.ini check: differs; report number "
                               "moved 0 ")
    assert f"#   text changed: report.json:{path}" in lines[1:]
    assert not [ln for ln in lines if "verdict changed" in ln]


def test_configs_of_one_name_and_a_reused_work_dir(monkeypatch, tmp_path,
                                                   capsys):
    # the base writes stale.csv only on its first run: a second run into
    # the same --work must not find it there, and two INI files named
    # a.ini must not share an output directory
    runs = []

    def base(command):
        runs.append(command)
        return {"stale.csv": "x\n0\n"} if len(runs) == 1 else {}

    _stub(monkeypatch, {"base": base, "change": lambda command: {}})
    (tmp_path / "other").mkdir()
    assert _main(tmp_path, "a.ini", "other/a.ini") == 1
    out = capsys.readouterr().out
    assert out.count("mismatched: stale.csv") == 1
    assert sorted(p.name for p in (tmp_path / "work").iterdir()) == [
        "0-a", "1-a"]
    assert _main(tmp_path) == 0
    assert "mismatched" not in capsys.readouterr().out


def test_strip_timing_at_any_depth():
    doc = {"timing_seconds": 1, "a": [{"timing_seconds": 2, "b": 3}]}
    assert compare_outputs.strip_timing(doc) == {"a": [{"b": 3}]}


def test_residual_column_is_rated_against_its_file(monkeypatch, tmp_path,
                                                  capsys):
    # a 5e-19 move in a column of residuals near 1e-17 is a last-bit move
    # of its inputs, rated against the file's largest entry; a 1e-10 move
    # in an O(1) column is still rated against that column
    rows = ["0.5,1e-17,1", "-1.4,7e-18,0.75"]
    base = "z,abs_psi,rel\n" + "\n".join(rows) + "\n"
    residual = base.replace("1e-17", "1.05e-17")
    _stub(monkeypatch, {"base": lambda command: {"t.csv": base},
                        "change": lambda command: {"t.csv": residual}})
    assert _main(tmp_path) == 0
    head = _lines_of(capsys.readouterr().out, "check")[0]
    found = re.search(r"CSV moved (\S+) of its file's max at t\.csv:abs_psi,"
                      r" at most (\S+) absolute", head)
    assert found, head
    assert float(found[1]) < 1e-13
    assert float(found[2]) == pytest.approx(5e-19, rel=1e-6)

    moved = base.replace(",1\n", ",1.0000000001\n")
    _stub(monkeypatch, {"base": lambda command: {"t.csv": base},
                        "change": lambda command: {"t.csv": moved}})
    assert _main(tmp_path) == 0
    head = _lines_of(capsys.readouterr().out, "check")[0]
    found = re.search(r"CSV moved (\S+) of its column's max at t\.csv:rel,",
                      head)
    assert found, head
    assert float(found[1]) == pytest.approx(1e-10, rel=1e-5)


@pytest.mark.parametrize("base, change, move", [
    (1.0, 1.0, 0.0), (float("nan"), float("nan"), 0.0), (1.0, -2.0, 3.0)])
def test_move(base, change, move):
    assert compare_outputs._move(base, change) == move


@pytest.mark.parametrize("name, model, flavor", [
    ("raw_example1", "custom", "general"),
    ("swanson", "swanson", "constant_alpha"),
    ("shifted_complex", "shifted", "constant_alpha"),
    ("gram_limit", "example2", "proportional"),
    ("gram_n200", "bosonic", "constant_alpha"),
])
def test_committed_configs_build_their_models(name, model, flavor):
    ini = _PATH.parent / "configs" / f"{name}.ini"
    m = build_model(load_config(ini).model_spec)
    assert (m.name, m.flavor.kind) == (model, flavor)
