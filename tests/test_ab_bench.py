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
