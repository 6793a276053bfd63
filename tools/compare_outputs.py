"""Compare the outputs of the CLI in two checkouts.

    python3 tools/compare_outputs.py --base ../parent --change . \\
        demos/example_run.ini other.ini

Runs ``check``, ``states``, ``hamiltonian`` and ``bicoherent`` on each
INI file in the ``--base`` and the ``--change`` checkout, each into its
own output directory (emptied before the run, and keyed by the INI
file's position, so two INI files of the same name do not share one),
with the package imported from the checkout's ``src/``.  Reports are
compared with their ``timing_seconds`` stripped.  For each INI file and
command it prints:

* every verdict that changed: a record's verdict, a report's overall
  verdict, or the command's exit status;
* the largest absolute move of any number in the reports, with that move
  over max(1, |base|);
* on a line of its own, where a record's metric moved, the largest such
  move, so that a moved counter of a detail does not hide it;
* the largest move of any CSV entry over the largest |entry| of its
  column in the base, or of its file where every base entry of the
  column lies below 1e-12 of that (a column of residuals at the rounding
  floor moves by its own size when the last bits of its inputs do), the
  scale it used, and the largest absolute move of one;
* whether the outputs are byte-identical apart from the timing;
* every report text (a string, bool or null) that changed or is given
  on one side only, other than a verdict;
* every file written, and every report number given, on one side only,
  and every CSV whose header or row count changed.

It exits with status 1 when any verdict or text changed or any of the
last happened, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("check", "states", "hamiltonian", "bicoherent")


def run_command(checkout: Path, command: str, ini: Path,
                out_dir: Path) -> int:
    """One CLI command of ``checkout`` on ``ini``, writing into
    ``out_dir``; its exit status."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    env = {k: v for k, v in env.items() if not k.startswith("PSEUDOBOSONS_")}
    proc = subprocess.run(
        [sys.executable, "-m", "pseudobosons", command, "--config",
         str(Path(ini).resolve()), "--out", str(out_dir)],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    (out_dir / "exit_status").write_text(f"{proc.returncode}\n")
    return proc.returncode


def strip_timing(doc):
    """``doc`` without any ``timing_seconds`` key, at any depth."""
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items()
                if k != "timing_seconds"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def _leaves(doc, path=""):
    """(path, value) for every leaf of a JSON document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{path}/{k}")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, f"{path}/{i}")
    else:
        yield path, doc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _verdicts(doc) -> dict:
    """name -> verdict of every record of a report, and its overall."""
    out = {f"record {r['name']}": r.get("verdict")
           for r in doc.get("checks", [])}
    out["overall"] = doc.get("overall")
    return out


def _move(a: float, b: float) -> float:
    """|a - b|, 0 where both are the same number or both nan."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b)


def _texts(doc) -> dict:
    """path -> value of every string, bool or null leaf of a report but
    its verdicts (see :func:`_verdicts`)."""
    verdicts = {"/overall"} | {f"/checks/{i}/verdict"
                               for i in range(len(doc.get("checks", [])))}
    return {path: v for path, v in _leaves(doc)
            if not _is_number(v) and path not in verdicts}


def compare_reports(base: dict, change: dict) -> dict:
    """Changed verdicts, the largest move of a report number, the paths
    of the numbers given on one side only, and the paths of the texts
    that changed or are given on one side only."""
    vb, vc = _verdicts(base), _verdicts(change)
    changed = [(k, vb.get(k), vc.get(k)) for k in sorted(set(vb) | set(vc))
               if vb.get(k) != vc.get(k)]
    tb, tc = _texts(base), _texts(change)
    missing = object()  # a null leaf is a text, not an absent one
    texts = sorted(p for p in tb.keys() | tc.keys()
                   if tb.get(p, missing) != tc.get(p, missing))
    nb, nc = ({p: float(v) for p, v in _leaves(doc) if _is_number(v)}
              for doc in (base, change))
    both = nb.keys() & nc.keys()
    metrics = {f"/checks/{i}/metric"
               for i in range(len(base.get("checks", [])))} & both
    return {"verdicts": changed, "number": _largest_move(nb, nc, both),
            "metric": _largest_move(nb, nc, metrics),
            "one_sided": sorted(nb.keys() ^ nc.keys()), "texts": texts}


def _largest_move(nb: dict, nc: dict, paths) -> tuple:
    """(move, move / max(1, |base|), path) of the largest move between
    the numbers ``nb`` and ``nc`` at any of ``paths`` (nan the largest),
    or (0, 0, None) where none moved."""
    worst = (0.0, 0.0, None)
    for path in paths:
        move = _move(nb[path], nc[path])
        if move > worst[0] or math.isnan(move):
            worst = (move, move / max(1.0, abs(nb[path])), path)
    return worst


def _read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


# a CSV column whose base entries all lie below this fraction of its
# file's largest |entry| holds residuals at the rounding floor
FLOOR_FRACTION = 1e-12


def compare_csv(base: Path, change: Path):
    """(largest move over its scale, largest absolute move, the column of
    the first, the name of its scale), or None where the header or the
    row count changed.  A column's scale is its largest |base entry|
    ("column's"), or, where every base entry of the column lies below
    ``FLOOR_FRACTION`` of the largest finite |base entry| of the file,
    that file maximum ("file's"): a column of residuals at the rounding
    floor moves by its own size when the last bits of its inputs do."""
    hb, rb = _read_csv(base)
    hc, rc = _read_csv(change)
    if hb != hc or len(rb) != len(rc):
        return None
    file_max = max((abs(v) for row in rb for v in row if math.isfinite(v)),
                   default=0.0)
    worst, largest = (0.0, None, "column's"), 0.0
    for j, name in enumerate(hb):
        col = [row[j] for row in rb]
        scale = max((abs(v) for v in col if not math.isnan(v)), default=0.0)
        kind = "column's"
        if scale < FLOOR_FRACTION * file_max:
            scale, kind = file_max, "file's"
        for a, b in zip(col, (row[j] for row in rc)):
            move = _move(a, b)
            largest = max(largest, move)
            if move / (scale or 1.0) > worst[0] or math.isnan(move):
                worst = (move / (scale or 1.0), name, kind)
    return worst[0], largest, worst[1], worst[2]


def compare_dirs(base: Path, change: Path) -> dict:
    """The comparison of the outputs of one command on both sides."""
    files = sorted({p.name for p in base.iterdir()}
                   | {p.name for p in change.iterdir()})
    result = {"verdicts": [], "number": (0.0, 0.0, None),
              "metric": (0.0, 0.0, None),
              "csv": (0.0, 0.0, None, "column's"),
              "mismatched": [], "texts": [], "identical": True}
    for name in files:
        pb, pc = base / name, change / name
        if not (pb.exists() and pc.exists()):
            result["mismatched"].append(f"{name} written on one side only")
            result["identical"] = False
            continue
        if name == "exit_status":
            sb, sc = pb.read_text().strip(), pc.read_text().strip()
            if sb != sc:
                result["verdicts"].append(("exit status", sb, sc))
                result["identical"] = False
        elif name.endswith(".json"):
            db = strip_timing(json.loads(pb.read_text()))
            dc = strip_timing(json.loads(pc.read_text()))
            rep = compare_reports(db, dc)
            result["verdicts"] += rep["verdicts"]
            result["mismatched"] += [f"{name}:{path} given on one side only"
                                     for path in rep["one_sided"]]
            result["texts"] += [f"{name}:{path}" for path in rep["texts"]]
            for key in ("number", "metric"):
                if rep[key][0] > result[key][0] or math.isnan(rep[key][0]):
                    result[key] = rep[key][:2] + (f"{name}:{rep[key][2]}",)
            result["identical"] &= db == dc
        elif name.endswith(".csv"):
            moved = compare_csv(pb, pc)
            result["identical"] &= pb.read_bytes() == pc.read_bytes()
            if moved is None:
                result["mismatched"].append(
                    f"{name} changed header or row count")
                continue
            move, largest, column, scale = moved
            if move > result["csv"][0] or math.isnan(move):
                result["csv"] = (move, result["csv"][1], f"{name}:{column}",
                                 scale)
            result["csv"] = (result["csv"][0],
                             max(result["csv"][1], largest),
                             *result["csv"][2:])
        else:
            result["identical"] &= pb.read_bytes() == pc.read_bytes()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("configs", type=Path, nargs="+",
                        help="INI run configurations")
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path("."),
                        help="checkout of the change (default: .)")
    parser.add_argument("--work", type=Path,
                        help="directory for the outputs (default: a "
                             "temporary one, removed afterwards)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        bad = False
        for i, ini in enumerate(args.configs):
            for command in COMMANDS:
                dirs = {}
                for side in ("base", "change"):
                    dirs[side] = work / f"{i}-{ini.stem}" / command / side
                    shutil.rmtree(dirs[side], ignore_errors=True)
                    dirs[side].mkdir(parents=True)
                    run_command(getattr(args, side), command, ini,
                                dirs[side])
                res = compare_dirs(dirs["base"], dirs["change"])
                move, rel, where = res["number"]
                cmove, cabs, column, scale = res["csv"]
                print(f"# {ini.name} {command}: "
                      + ("identical" if res["identical"] else "differs")
                      + f"; report number moved {move:.3g} "
                        f"({rel:.3g} of max(1, |base|)) at {where}; "
                        f"CSV moved {cmove:.3g} of its {scale} max "
                        f"at {column}, at most {cabs:.3g} absolute")
                move, rel, where = res["metric"]
                if where is not None:
                    print(f"#   metric moved {move:.3g} ({rel:.3g} of "
                          f"max(1, |base|)) at {where}")
                for what, vb, vc in res["verdicts"]:
                    print(f"#   verdict changed: {what}: {vb} -> {vc}")
                for what in res["texts"]:
                    print(f"#   text changed: {what}")
                for what in res["mismatched"]:
                    print(f"#   mismatched: {what}")
                bad |= bool(res["verdicts"] or res["texts"]
                            or res["mismatched"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
