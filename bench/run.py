"""Benchmark of the pseudobosons CLI, end to end and layer by layer.

    python3 bench/run.py --workload demo_check --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each workload writes its own seeded INI file and runs
one CLI command (``check`` or ``bicoherent``) through ``cli.main`` in this
process, with ``jobs = 1`` and one BLAS/OpenMP thread.

``--trace 0`` repeats the untraced command until ``--seconds`` are used
and reports the end-to-end metrics: the median wall time of a command
(after one warm-up command) and the median set-up time of fresh
processes (import, config load, model build), both scaled to a fixed
machine speed by a probe timed around each, the peak resident set and
the identities verified per command.
``--trace 1`` runs the command once untraced and twice traced, and
reports the per-layer metrics of ``tracer.Tracer``.

Every command's outputs are checked (see ``workloads.check_outputs``);
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details, the environment and
the spans of a traced run go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread, set before numpy is imported; these variables
# reach only this process and the set-up processes it starts
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("PSEUDOBOSONS_")]:
    del os.environ[_var]  # the generated INI is the program's only input

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEMO_INI = ROOT / "demos" / "example_run.ini"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

SETUP_REPS = 3
MIN_COMMANDS = 2
TRACED_COMMANDS = 2
# The CPU is shared with other tenants: its speed drifts by up to 2x over
# tens of seconds, alike for the program and for a fixed probe of the same
# kind of work run next to it.  Each command's wall time is scaled by
# PROBE_REF_S / (mean probe time before and after it), i.e. to a machine on
# which the probe takes 0.2 s.
PROBE_REF_S = 0.2

SETUP_CODE = (
    "import sys\n"
    "from pathlib import Path\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import pseudobosons\n"
    "from pseudobosons import cli\n"
    "cfg = cli.load_config(Path(sys.argv[2]))\n"
    "cli.build_model(cfg.model_spec)\n"
)

CHECK_BOUNDARIES = (
    "cli.check.conditions", "cli.check.commutator", "cli.check.normalization",
    "cli.check.biorthonormality", "cli.check.ladder", "cli.check.eigen",
    "cli.check.hsusy", "cli.check.hamiltonian_crosscheck",
    "jets.Jet", "expressions.eval_jet", "expressions.eval_values",
    "states.StateFamily.jet", "states.verify_ladder",
    "states.fix_normalization", "model.apply_ladder",
    "model.check_pb_conditions", "model.commutator_residual",
    "spectral.eigen_residual", "spectral.hsusy_shift_check",
    "quad.integrate_line", "quad.compatibility_form",
    "quad.biorthonormality_matrix",
)
# boundaries that must record calls on each workload, so that a missed
# rebinding cannot zero a layer unnoticed
EXPECTED_BOUNDARIES = {
    "demo_check": CHECK_BOUNDARIES + (
        "spectral.HamiltonianCoeffs.values", "quad.hermite_value"),
    "general_check": CHECK_BOUNDARIES + (
        "expressions.Antideriv.value_at", "expressions.Antideriv.quad_calls"),
    "demo_bicoherent": (
        "cli.command", "states.fix_normalization", "expressions.eval_values",
        "quad.integrate_line", "quad.hermite_value", "quad.state_overlaps",
        "quad.compatibility_form", "bicoherent.PairingSeries",
        "bicoherent.eigen_relation_residual",
        "bicoherent.resolution_of_identity"),
}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _environment(load_at_start) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "jobs": 1,
        "probe_ref_s": PROBE_REF_S,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


class Runner:
    """One workload at one seed: its config, work directory and checks."""

    def __init__(self, cli, workload, seed: int, work: Path):
        from workloads import pairing_oracle, write_config

        self.cli = cli
        self.workload = workload
        self.out_dir = work / "out"
        self.ini = work / "run.ini"
        self.params = write_config(workload, seed, DEMO_INI, self.out_dir,
                                   self.ini)
        self.oracle = (pairing_oracle(self.params)
                       if workload.command == "bicoherent" else None)
        self.ops: list = []  # (command index, name, identity, ok, note)
        self.commands = 0
        self.reference = None  # output files of the first command

    def command(self, call=lambda main, argv: main(argv)):
        """Run the CLI command once, through ``call(cli.main, argv)``;
        returns (wall seconds, output files)."""
        from workloads import check_outputs, read_outputs

        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [self.workload.command, "--config", str(self.ini)]
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = call(self.cli.main, argv)
        except Exception:  # a crash is a failed command, not a lost run
            code = -1
            print(traceback.format_exc(), file=sys.stderr)
        wall = time.perf_counter() - start
        files = read_outputs(self.workload, self.out_dir)
        self.commands += 1
        for name, identity, ok, note in check_outputs(
                self.workload, self.params, code, files, self.oracle):
            self.gate(name, ok, note, identity)
        if self.reference is None:
            self.reference = files
        else:
            self.gate("outputs_identical", files == self.reference,
                      sorted(n for n in files
                             if files[n] != self.reference.get(n)))
        return wall, files

    def gate(self, name, ok, note=None, identity=False):
        self.ops.append((self.commands, name, identity, bool(ok), repr(note)))

    @property
    def failed(self) -> list:
        return [op for op in self.ops if not op[3]]

    def identities_per_command(self) -> float:
        good = sum(1 for op in self.ops if op[2] and op[3])
        return good / max(self.commands, 1)


def measure_setup(ini: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(ini)],
                   check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                   timeout=120)
    return time.perf_counter() - start


class _ProbeJet:
    """A few truncated Taylor coefficients, like ``jets.Jet``."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        self.base = float(base)
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)

    def __add__(self, other):
        return _ProbeJet(self.base, self.coeffs + other.coeffs)

    def __mul__(self, other):
        if isinstance(other, _ProbeJet):
            conv = np.convolve(self.coeffs, other.coeffs)
            return _ProbeJet(self.base, conv[: self.coeffs.size])
        return _ProbeJet(self.base, self.coeffs * complex(other))

    def deriv(self):
        k = np.arange(1, self.coeffs.size)
        return _ProbeJet(self.base, self.coeffs[1:] * k)


def jet_probe() -> float:
    """Seconds taken by per-point jet arithmetic on fresh small objects,
    the work that dominates ``check``."""
    start = time.perf_counter()
    acc = 0j
    for k in range(16000):
        x = _ProbeJet(k * 1e-3, [k * 1e-3, 1.0, 0.0, 0.0])
        y = x * x + x * 0.5
        acc += (y * x + y).deriv().coeffs[0]
    return time.perf_counter() - start


_PROBE_TAPS = np.array([0.5 + 0.1j, -0.25, 0.125j, 0.3])
_PROBE_NODES = np.linspace(-4.0, 4.0, 3000) * (1.0 + 0.01j)


def array_probe() -> float:
    """Seconds taken by tiny-array complex arithmetic and a three-term
    recurrence over a mid-size complex array (like Hermite evaluation on
    quadrature nodes), the work that dominates ``bicoherent``."""
    start = time.perf_counter()
    acc = 0j
    for k in range(40000):
        a = np.asarray([complex(k), 1.0, 0.5, 0.25], dtype=np.complex128)
        acc += np.convolve(a, _PROBE_TAPS)[2]
    y = _PROBE_NODES
    for _ in range(200):
        h_prev, h = np.ones_like(y), 2.0 * y
        for k in range(1, 40):
            h, h_prev = 2.0 * y * h - 2.0 * k * h_prev, h
        acc += h[7] * 1e-60
    return time.perf_counter() - start


SPEED_PROBES = {"check": jet_probe, "bicoherent": array_probe}


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of untraced commands."""
    # set-up is scaled the same way, by the array probe, which tracked it
    # better than the jet probe
    setups, setup_probes = [], []
    before = array_probe()
    for _ in range(SETUP_REPS):
        setups.append(measure_setup(runner.ini))
        after = array_probe()
        setup_probes.append(0.5 * (before + after))
        before = after
    setup_scaled = [t * PROBE_REF_S / p for t, p in zip(setups, setup_probes)]

    speed_probe = SPEED_PROBES[runner.workload.command]
    walls, probes = [], []
    start = time.perf_counter()
    runner.command()  # warm-up: first-touch memory and lazy imports
    before = speed_probe()
    while True:
        wall, _ = runner.command()
        after = speed_probe()
        walls.append(wall)
        probes.append(0.5 * (before + after))
        before = after
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_COMMANDS and \
                elapsed + statistics.median(walls) + after > seconds:
            break
    scaled = [w * PROBE_REF_S / p for w, p in zip(walls, probes)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops": (runner.identities_per_command(), "count"),
    }
    return metrics, {"wall_raw_s": walls, "probe_s": probes,
                     "wall_scaled_s": scaled, "setup_raw_s": setups,
                     "setup_probe_s": setup_probes,
                     "setup_scaled_s": setup_scaled}


def traced_run(runner: Runner, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced command, then traced ones."""
    from tracer import Tracer

    untraced, reference = runner.command()
    tracer = Tracer()
    tracer.install()
    runs = []
    try:
        for _ in range(TRACED_COMMANDS):
            tracer.reset()
            _, files = runner.command(tracer.command)
            runner.gate("traced_outputs_identical", files == reference,
                        sorted(n for n in files if files[n] != reference.get(n)))
            runs.append((tracer.layer_metrics(runner.cli.CHECK_FUNCS),
                         dict(tracer.counts), tracer.spans))
    finally:
        tracer.restore()
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent"],
                   "commands": [run[2] for run in runs]}, fh)

    layers, calls, _ = runs[0]
    for name in EXPECTED_BOUNDARIES[runner.workload.name]:
        runner.gate(f"boundary_calls:{name}", calls.get(name, 0) > 0,
                    calls.get(name, 0))
    metrics = {}
    for name in layers:
        values = [run[0][name] for run in runs]
        unit = Tracer.unit(name)
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            runner.gate(f"count_repeats:{name}", len(set(values)) == 1, values)
            metrics[name] = (values[0], unit)
    runner.gate("calls_repeat", all(run[1] == runs[0][1] for run in runs))
    metrics["trace.overhead_s"] = (metrics["cli.command.s"][0] - untraced, "s")
    return metrics, {"untraced_wall_s": untraced,
                     "traced_wall_s": [run[0]["cli.command.s"] for run in runs],
                     "boundary_calls": calls}


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    if not (SRC / "pseudobosons" / "__init__.py").is_file():
        return _fail(f"no package source under {SRC}")
    if not DEMO_INI.is_file():
        return _fail(f"missing {DEMO_INI}")
    sys.path.insert(0, str(SRC))
    import pseudobosons
    from pseudobosons import cli

    if Path(pseudobosons.__file__).resolve().parent != SRC / "pseudobosons":
        return _fail(f"imported pseudobosons from {pseudobosons.__file__}")

    env = _environment(load_at_start)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    OUT_ROOT.mkdir(exist_ok=True)
    try:
        runner = Runner(cli, workload, args.seed, work)
        if args.trace:
            metrics, samples = traced_run(
                runner, OUT_ROOT / f"{tag}-spans.json.gz")
        else:
            metrics, samples = timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only if no other run is using it

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in
                declared["per_layer" if args.trace else "end_to_end"]}
    if {k: u for k, (_, u) in metrics.items()} != declared:
        return _fail("metrics differ from those declared in BENCHMARK.json")

    failed = runner.failed
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commands": runner.commands,
        "environment": env, "samples": samples,
        "metrics": {k: v[0] for k, v in metrics.items()},
        "ops": runner.ops,
    }
    (OUT_ROOT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"# environment {json.dumps(env)}")
    print(f"# {workload.name} seed={args.seed} commands={runner.commands} "
          f"ops={runner.identities_per_command():g} "
          f"ops_failed={len(failed)}")
    for op in failed:
        print(f"# FAILED command {op[0]}: {op[1]} {op[4]}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if "wall_raw_s" in samples:
        print(f"# unscaled command walls (s): "
              f"{[round(w, 3) for w in samples['wall_raw_s']]}, set-ups (s): "
              f"{[round(w, 3) for w in samples['setup_raw_s']]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runner.ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
