"""The benchmark's workloads: seeded run configurations and the checks
that decide whether a command's outputs are correct.

Sizes are fixed; the seed moves only the random bumps.  Each workload
writes its own INI file, derived from ``demos/example_run.ini``, and the
program sees nothing but that file.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate

# example1's coefficients as raw expressions, which makes a
# general-flavor model; the name is deliberately not a builtin name
RAW_MODEL = {
    "name": "raw_rational",
    "alpha_a": "1/(1+x^2)",
    "beta_a": "x + x^3/3",
    "alpha_b": "1/(1+x^2)",
    "beta_b": "-2*x/(1+x^2)^2",
}

# independent values of the normalization product 1 / <psi_0, phi_0>
NORM_ORACLES = {
    # psi_0 = 2 cosh x, phi_0 = exp(-cosh^2 x): the pairing is 2 sqrt(pi)/e
    "example2": math.e / (2.0 * math.sqrt(math.pi)),
    # psi_0 = 1 + x^2, phi_0 = exp(-u^2/2) with du = (1 + x^2) dx
    "raw_rational": 1.0 / math.sqrt(2.0 * math.pi),
}

ALL_CHECKS = ("conditions commutator normalization biorthonormality ladder "
              "eigen hsusy hamiltonian_crosscheck")

CHECK_OUTPUTS = ("report.json",)
BICOHERENT_OUTPUTS = ("pairings.csv", "eigen_relations.csv", "resolution.csv",
                      "bicoherent_report.json")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the CLI subcommand

    @property
    def outputs(self) -> tuple:
        return CHECK_OUTPUTS if self.command == "check" else BICOHERENT_OUTPUTS


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w for w in (
        Workload("demo_check", "check"),
        Workload("demo_bicoherent", "bicoherent"),
        Workload("general_check", "check"),
    )
}


def run_seed(seed: int) -> int:
    """The ``[run] seed`` written for a workload seed (numpy wants >= 0)."""
    return seed % 2**32


def write_config(workload: Workload, seed: int, demo_ini: Path,
                 out_dir: Path, path: Path) -> dict:
    """Write the workload's INI file and return its parameters."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not cp.read(demo_ini):
        raise FileNotFoundError(f"cannot read {demo_ini}")
    cp["run"]["seed"] = str(run_seed(seed))
    cp["run"]["checks"] = ALL_CHECKS
    cp["run"]["jobs"] = "1"
    cp["output"]["dir"] = str(out_dir)
    if workload.name == "general_check":
        cp["model"] = RAW_MODEL
        cp["grid"].update({"lo": "-3", "hi": "3", "points": "101"})
        cp["run"]["n_max"] = "4"
    if workload.name == "demo_bicoherent":
        # small seeded jitters of the two bumps around the demo's; kept
        # small because the quadrature work moves with them (centers by
        # +-0.3 and widths over 0.75..0.9 change the panel count by ~10%)
        rng = np.random.default_rng([run_seed(seed), 1])
        bico = cp["bicoherent"]
        for key in ("bump_center", "bump2_center"):
            center = float(bico[key]) + rng.uniform(-0.05, 0.05)
            bico[key] = repr(center)
        for key in ("bump_width", "bump2_width"):
            width = float(bico[key]) * rng.uniform(0.97, 1.0)
            bico[key] = repr(width)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return {s: dict(cp[s]) for s in cp.sections()}


def read_outputs(workload: Workload, out_dir: Path) -> dict:
    """Output files by name; reports lose only their timing field."""
    files = {}
    for name in workload.outputs:
        path = out_dir / name
        if not path.is_file():
            continue
        data = path.read_bytes()
        if name.endswith(".json"):
            doc = json.loads(data)
            doc.pop("timing_seconds", None)
            data = (json.dumps(doc, indent=2) + "\n").encode()
        files[name] = data
    return files


def _bump(center: float, width: float):
    def h(x):
        t = (x - center) / width
        return math.exp(-1.0 / (1.0 - t * t)) if abs(t) < 1.0 else 0.0
    return h


def pairing_oracle(params: dict) -> float:
    """<f, g> of the two real bumps by scipy's QUADPACK."""
    bico = params["bicoherent"]
    g = (float(bico["bump_center"]), float(bico["bump_width"]))
    f = (float(bico["bump2_center"]), float(bico["bump2_width"]))
    lo, hi = max(g[0] - g[1], f[0] - f[1]), min(g[0] + g[1], f[0] + f[1])
    if lo >= hi:
        return 0.0
    fh, gh = _bump(*f), _bump(*g)
    val, _ = integrate.quad(lambda x: fh(x) * gh(x), lo, hi,
                            epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def _csv_rows(data: bytes) -> int:
    return data.count(b"\n") - 1  # minus the header


def check_outputs(workload: Workload, params: dict, exit_code: int,
                  files: dict, oracle: float) -> list:
    """Verdicts on one command's outputs as (name, is_identity, ok, note).

    Identities are the report's non-skipped records and the independent
    oracles; the rest are gates (exit code, overall verdict, files).
    ``oracle`` is ``pairing_oracle(params)`` for a bicoherent workload.
    """
    ops = [("exit_code", False, exit_code == 0, exit_code)]
    missing = [n for n in workload.outputs if n not in files]
    ops.append(("outputs_exist", False, not missing, missing))
    report_name = ("report.json" if workload.command == "check"
                   else "bicoherent_report.json")
    if report_name not in files:
        return ops
    report = json.loads(files[report_name])
    ops.append(("overall", False, report["overall"] == "pass",
                report["overall"]))
    records = {r["name"]: r for r in report["checks"]}
    for r in report["checks"]:
        if r["verdict"] == "skipped":
            continue
        ok = (r["verdict"] == "pass" and r["metric"] is not None
              and r["metric"] <= r["tolerance"])
        ops.append((r["name"], True, ok, (r["verdict"], r["metric"])))

    if workload.command == "check":
        expected = ALL_CHECKS.split()
        ops.append(("all_checks_reported", False,
                    [r["name"] for r in report["checks"]] == expected,
                    list(records)))
        if workload.name == "general_check":
            # no printed Hamiltonian exists for a raw model: the
            # cross-check must not pass without looking at it
            cross = records.get("hamiltonian_crosscheck", {})
            ops.append(("crosscheck_skipped", False,
                        cross.get("verdict") == "skipped",
                        cross.get("verdict")))
        norm = records.get("normalization", {}).get("detail", {})
        got = complex(norm.get("norm_product_re", math.nan),
                      norm.get("norm_product_im", math.nan))
        want = NORM_ORACLES[params["model"].get("name")
                            or params["model"]["builtin"]]
        tol = records.get("normalization", {}).get("tolerance", 1e-9)
        ops.append(("norm_product_oracle", True, abs(got - want) <= tol,
                    abs(got - want)))
        return ops

    bico = params["bicoherent"]
    z_points = int(bico["z_re"].split()[2]) * int(bico["z_im"].split()[2])
    rows = {"pairings.csv": z_points, "eigen_relations.csv": z_points,
            "resolution.csv": 6}  # six radii in the resolution trace
    for name, want in rows.items():
        got = _csv_rows(files[name]) if name in files else None
        ops.append((f"rows:{name}", False, got == want, (got, want)))
    detail = records.get("bicoherent_resolution", {}).get("detail", {})
    ref = complex(detail.get("reference_re", math.nan),
                  detail.get("reference_im", math.nan))
    ops.append(("pairing_oracle", True, abs(ref - oracle) <= 1e-10,
                abs(ref - oracle)))
    return ops
