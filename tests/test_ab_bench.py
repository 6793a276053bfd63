"""The pair statistics and the workload loop of tools/ab_bench.py."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def test_quartiles():
    assert ab_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


@pytest.mark.parametrize("better, base, change, won, lost, gain", [
    # ten pairs, all won, medians 1.0 apart against a base IQR of 0.45
    ("lower", [10.0 + 0.1 * i for i in range(10)],
     [9.0 + 0.1 * i for i in range(10)], 10, 0, True),
    # one tie and one loss in ten: 8 won, below nine tenths
    ("lower", [10.0] * 10, [9.0] * 8 + [10.0, 11.0], 8, 1, False),
    # all won, but by less than the base's own spread
    ("lower", [10.0, 12.0, 14.0, 16.0], [9.9, 11.9, 13.9, 15.9], 4, 0,
     False),
    # higher is better
    ("higher", [3.0] * 10, [4.0] * 10, 10, 0, True),
])
def test_summarize(better, base, change, won, lost, gain):
    row = ab_bench.summarize("m", better, base, change)
    assert (row["won"], row["lost"], row["gain"]) == (won, lost, gain)
    assert row["pairs"] == len(base)
    assert row["verdict"] == ("gain" if gain else "within bound")


@pytest.mark.parametrize("better, base, change, bound, worse", [
    # lower is better: +30% against a 25% bound is worse, +20% is not
    ("lower", [10.0] * 5, [13.0] * 5, 0.25, True),
    ("lower", [10.0] * 5, [12.0] * 5, 0.25, False),
    # exactly at the bound is not worse
    ("lower", [8.0] * 5, [10.0] * 5, 0.25, False),
    # higher is better: a 2% drop against a 1% bound is worse
    ("higher", [100.0] * 5, [98.0] * 5, 0.01, True),
    ("higher", [100.0] * 5, [99.5] * 5, 0.01, False),
    # a better median is never worse, whatever the bound
    ("lower", [10.0] * 5, [5.0] * 5, 0.0, False),
    ("higher", [3.0] * 5, [4.0] * 5, 0.0, False),
    # the median decides, not the worst pair
    ("lower", [10.0] * 5, [10.0, 10.0, 10.0, 20.0, 20.0], 0.25, False),
])
def test_worse(better, base, change, bound, worse):
    row = ab_bench.summarize("m", better, base, change, bound)
    assert row["worse"] is worse
    assert row["bound"] == bound
    assert row["verdict"] == ("worse" if worse else
                              "gain" if row["gain"] else "within bound")


def test_no_bound_is_never_worse():
    row = ab_bench.summarize("m", "lower", [1.0] * 4, [100.0] * 4)
    assert (row["worse"], row["verdict"]) == (False, "within bound")


def _stub_runs(monkeypatch, tmp_path):
    """Two checkouts declaring workloads w1 and w2, and a run_bench that
    records its calls: the change is 10% faster than the base."""
    declared = {"workloads": [{"name": "w1"}, {"name": "w2"}],
                "end_to_end": [{"name": "wall_s", "better": "lower",
                                "bound": 0.25}]}
    sides = {}
    for side in ("base", "change"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
        (sides[side] / "BENCHMARK.json").write_text(json.dumps(declared))
    calls = []

    def run_bench(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        wall = (1.0 if checkout.name == "base" else 0.9) * (
            2.0 if workload == "w2" else 1.0)
        return {"correct": True, "failed": [],
                "metrics": {"wall_s": {"value": wall}}}

    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    return sides, calls


def test_every_declared_workload_by_default(monkeypatch, tmp_path, capsys):
    sides, calls = _stub_runs(monkeypatch, tmp_path)
    assert ab_bench.main(["--base", str(sides["base"]), "--change",
                          str(sides["change"]), "--seeds", "1", "2",
                          "--seconds", "3"]) == 0
    # one workload after the other, alternating which side runs first
    assert calls == [
        ("base", "w1", 1, 3.0), ("change", "w1", 1, 3.0),
        ("change", "w1", 2, 3.0), ("base", "w1", 2, 3.0),
        ("base", "w2", 1, 3.0), ("change", "w2", 1, 3.0),
        ("change", "w2", 2, 3.0), ("base", "w2", 2, 3.0)]
    lines = capsys.readouterr().out.splitlines()
    blocks = [json.loads(line) for line in lines if line.startswith("{")]
    assert [b["workload"] for b in blocks] == ["w1", "w2"]
    assert [b["summary"][0]["change"][1] for b in blocks] == [0.9, 1.8]
    assert [line for line in lines if " pairs at " in line] == [
        "# w1: 2 pairs at 3 s, median [quartiles]",
        "# w2: 2 pairs at 3 s, median [quartiles]"]
    assert lines[-1].startswith("{")


def test_one_workload_keeps_one_block(monkeypatch, tmp_path, capsys):
    sides, calls = _stub_runs(monkeypatch, tmp_path)
    ab_bench.main(["--workload", "w2", "--base", str(sides["base"]),
                   "--change", str(sides["change"]), "--seeds", "7"])
    assert calls == [("base", "w2", 7, 35.0), ("change", "w2", 7, 35.0)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# pair 1/1 seed 7: base wall_s 2.0")
    assert lines[1] == "# w2: 1 pairs at 35 s, median [quartiles]"
    assert lines[2].startswith("# wall_s       base 2 [2, 2]  change 1.8")
    assert json.loads(lines[-1])["workload"] == "w2"
    assert len(lines) == 4
