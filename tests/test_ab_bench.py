"""The pair statistics of tools/ab_bench.py."""

import importlib.util
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
