"""Alternating A/B runs of the benchmark in two checkouts.

    python3 tools/ab_bench.py --workload demo_bicoherent \\
        --base ../parent --change . --seeds 101 102 103 --seconds 35

Runs ``bench/run.py --trace 0`` for each ``--workload`` (by default every
workload that the change's ``BENCHMARK.json`` declares, one after the
other) in the ``--base`` and the ``--change`` checkout, one pair of runs
per seed at the same ``--seconds``, alternating which side runs first.
For each workload and each end-to-end metric that ``BENCHMARK.json``
declares, it prints each side's median and quartiles, and how many pairs
the change won (ties count for neither side).  A gain is claimed only
where the change won at least nine tenths of the pairs and the medians
differ by more than the base's interquartile range.  A metric reads
``worse`` where the change's median is worse than the base's by more
than that metric's ``bound`` in ``BENCHMARK.json``, relative to the base
median.  A metric that reads neither reads ``unresolved`` where the
base's interquartile range exceeds ``bound`` times the base median, so
that its spread hides a change of the bound's size, unless every change
sample beats every base sample; otherwise it reads ``within bound``.
Seeds at which a side's outputs were not all correct are listed.  Each
workload's block ends with one line holding one JSON object with every
sample of that workload.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int,
              seconds: float) -> dict:
    """One ``bench/run.py`` run; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {checkout} "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name: str, better: str, base: list, change: list,
              bound: float = math.inf) -> dict:
    """Quartiles of both sides, pairs won, whether a gain holds, whether
    the change's median is worse than the base's by more than ``bound``
    times the base median, and whether the base's interquartile range is
    wider than that; ``verdict`` is "gain", "worse", "unresolved" or
    "within bound"."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    lost = sum(sign * (b - c) < 0 for b, c in zip(base, change))
    bq, cq = quartiles(base), quartiles(change)
    gain = (won >= 0.9 * len(base)
            and sign * (bq[1] - cq[1]) > bq[2] - bq[0])
    worse = sign * (cq[1] - bq[1]) > bound * abs(bq[1])
    beats_all = all(sign * (b - c) > 0 for b in base for c in change)
    unresolved = (not (gain or worse or beats_all)
                  and bq[2] - bq[0] > bound * abs(bq[1]))
    verdict = "gain" if gain else "worse" if worse else \
        "unresolved" if unresolved else "within bound"
    return {"metric": name, "better": better, "base": bq, "change": cq,
            "won": won, "lost": lost, "pairs": len(base), "gain": gain,
            "bound": bound, "worse": worse, "unresolved": unresolved,
            "verdict": verdict}


def compare(workload: str, sides: dict, seeds: list, seconds: float,
            declared: dict) -> dict:
    """The pairs of one workload, its printed summary block and its JSON
    line; returns that JSON object."""
    samples = {"base": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            out = run_bench(sides[side], workload, seed, seconds)
            samples[side].append({"seed": seed, "correct": out["correct"],
                                  "failed": out["failed"],
                                  "metrics": {k: v["value"] for k, v in
                                              out["metrics"].items()}})
        print(f"# pair {i + 1}/{len(seeds)} seed {seed}: " + ", ".join(
            f"{side} wall_s {samples[side][-1]['metrics'].get('wall_s')}"
            for side in ("base", "change")), flush=True)

    for side, runs in samples.items():
        bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
        if bad:
            print(f"# {side}: outputs not correct at seeds {bad}")
    rows = [summarize(m["name"], m["better"],
                      [r["metrics"][m["name"]] for r in samples["base"]],
                      [r["metrics"][m["name"]] for r in samples["change"]],
                      m["bound"])
            for m in declared["end_to_end"]]
    print(f"# {workload}: {len(seeds)} pairs at {seconds:g} s, "
          f"median [quartiles]")
    for row in rows:
        (b1, b2, b3), (c1, c2, c3) = row["base"], row["change"]
        print(f"# {row['metric']:12s} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
              f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"won {row['won']}/{row['pairs']} lost {row['lost']}  "
              f"{row['verdict']} (bound {row['bound']:g})")
    result = {"workload": workload, "seconds": seconds, "summary": rows,
              "samples": samples}
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+",
                        help="workloads to compare (default: every "
                             "workload in BENCHMARK.json)")
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path("."),
                        help="checkout of the change (default: .)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one pair of runs per seed and workload")
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    sides = {"base": args.base, "change": args.change}
    for workload in workloads:
        compare(workload, sides, args.seeds, args.seconds, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
