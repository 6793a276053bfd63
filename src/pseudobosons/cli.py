"""Config-driven command-line front end.

Subcommands: ``check`` (verification suite), ``states`` (CSV tables of
the two families), ``bicoherent`` (weak-pairing tables, eigen-relation
residuals, resolution-of-identity comparison), ``hamiltonian``
(coefficient tables plus printed-formula cross-checks).

Configs are INI files; see the schema in the package README.  Exit
status: 0 all checks pass, 1 check failures (report still written) or a
``states`` or ``hamiltonian`` table the model cannot give (the ``states``
tables before it still written), 2 config errors.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import bicoherent as bc
from . import expressions as ex
from . import model as model_mod
from . import quad, spectral, states

ENV_PREFIX = "PSEUDOBOSONS_"

CHECK_ORDER = (
    "conditions",
    "commutator",
    "normalization",
    "biorthonormality",
    "ladder",
    "eigen",
    "hsusy",
    "hamiltonian_crosscheck",
)

DEFAULT_TOLERANCES = {
    "conditions": 1e-10,
    "commutator": 1e-8,
    "normalization": 1e-9,
    "biorthonormality": 1e-8,
    "ladder": 1e-8,
    "eigen": 1e-6,
    "hsusy": 1e-6,
    "hamiltonian_crosscheck": 1e-12,
}

# checks that cannot run once an upstream one has failed
BLOCKED_BY = {
    "commutator": "conditions",
    "normalization": "conditions",
    "biorthonormality": "normalization",
    "ladder": "conditions",
    "eigen": "conditions",
    "hsusy": "conditions",
    "hamiltonian_crosscheck": "conditions",
}


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    model_spec: dict
    n_max: int
    grid_lo: float
    grid_hi: float
    grid_points: int
    checks: list
    tolerances: dict
    seed: int
    out_dir: Path
    bicoherent: dict

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_lo, self.grid_hi, self.grid_points)


@dataclass
class CheckRecord:
    name: str
    inputs_digest: str
    metric: Optional[float]
    tolerance: Optional[float]
    verdict: str  # pass | fail | blocked | skipped | error
    detail: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    model: dict
    records: list
    overall: str
    timing_seconds: float

    def to_json(self, *, include_timing: bool = True) -> str:
        doc = {
            "model": self.model,
            "checks": [
                {
                    "name": r.name,
                    "inputs": r.inputs_digest,
                    "metric": r.metric,
                    "tolerance": r.tolerance,
                    "verdict": r.verdict,
                    "detail": r.detail,
                }
                for r in self.records
            ],
            "overall": self.overall,
        }
        if include_timing:
            doc["timing_seconds"] = self.timing_seconds
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _record(name: str, digest: str, metric, tol: float,
            detail: dict) -> CheckRecord:
    """A computed check: skipped without a metric, else pass or fail."""
    if metric is None:
        return CheckRecord(name, digest, None, tol, "skipped", detail)
    metric = float(metric)
    return CheckRecord(name, digest, metric, tol,
                       "pass" if metric <= tol else "fail", detail)


def _guarded_record(name: str, digest: str, tol: float,
                    compute: Callable[[], tuple]) -> CheckRecord:
    """The record of ``compute() -> (metric, detail)``; an exception becomes
    an ``error`` record carrying ``Type: message`` and the command goes on."""
    try:
        metric, detail = compute()
    except Exception as exc:  # report the failure, keep going
        return CheckRecord(name, digest, None, tol, "error",
                           {"error": f"{type(exc).__name__}: {exc}"})
    return _record(name, digest, metric, tol, detail)


def _report(echo: dict, records: list, start: float) -> VerificationReport:
    """The report of one command: it fails if any record failed, was
    blocked or raised."""
    bad = any(r.verdict in ("fail", "blocked", "error") for r in records)
    return VerificationReport(echo, records, "fail" if bad else "pass",
                              time.perf_counter() - start)


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------

def _parse_scalar(text: str) -> complex:
    """Parse a numeric parameter using the expression grammar; the result
    must be a constant (no x)."""
    tree = ex.parse_expr(text)
    if _mentions_var(tree):
        raise ConfigError(f"parameter {text!r} must be a constant")
    return complex(tree.eval_values(np.array([0.0]))[0])


def _mentions_var(tree) -> bool:
    if isinstance(tree, ex.Var):
        return True
    for attr in ("left", "right", "arg", "base_expr"):
        child = getattr(tree, attr, None)
        if child is not None and _mentions_var(child):
            return True
    return False


def _real(value: complex, what: str) -> float:
    if value.imag != 0:
        raise ConfigError(f"{what} must be real, got {value}")
    return value.real


def _number(values, key: str, default, kind=float):
    """``values[key]`` (or ``default``) as ``kind``; a ConfigError if not."""
    raw = values.get(key, default)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"{key} = {raw!r} is not a valid {kind.__name__}") from None


# the [bicoherent] keys that _bicoherent_params reads
BICOHERENT_KEYS = ("z_re", "z_im", "bump_center", "bump_width", "bump2_center",
                   "bump2_width", "resolution_radius", "radial_nodes",
                   "angular_nodes", "max_terms", "tolerance_eigen",
                   "tolerance_resolution")


# the keys each section may hold, where an unknown one (a typo) is refused
# rather than ignored.  A [model] with a builtin passes its keys to
# build_builtin, which refuses unknown parameters, and [tolerances] keys are
# checked as they are read.  [run] is not checked yet: the benchmark's
# configs still carry a [run] jobs key (ROADMAP, benchmark housekeeping).
KNOWN_KEYS = {
    "grid": ("lo", "hi", "points"),
    "output": ("dir",),
    "bicoherent": BICOHERENT_KEYS,
    "model": ("alpha_a", "beta_a", "alpha_b", "beta_b", "name"),
}


def _refuse_unknown_keys(cp: configparser.ConfigParser) -> None:
    """A ConfigError naming the first key of a section in
    :data:`KNOWN_KEYS` that the section does not know."""
    for section, known in KNOWN_KEYS.items():
        keys = list(cp[section]) if section in cp else []
        if section == "model" and "builtin" in keys:
            continue
        unknown = [k for k in keys if k not in known]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in [{section}]; "
                              f"known: {', '.join(known)}")


def load_config(path: Path, *, out_override=None,
                tol_scale: float = 1.0) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "model" not in cp:
        raise ConfigError("config needs a [model] section")
    _refuse_unknown_keys(cp)
    model_spec = dict(cp["model"])

    grid = cp["grid"] if "grid" in cp else {}
    lo = _number(grid, "lo", -4.0)
    hi = _number(grid, "hi", 4.0)
    points = _number(grid, "points", 201, int)
    if points < 2:
        raise ConfigError("grid points must be >= 2")
    if not lo < hi:
        raise ConfigError("grid lo must be < hi")

    run = cp["run"] if "run" in cp else {}
    n_max = _number(run, "n_max", 10, int)
    if n_max < 0:
        raise ConfigError("run n_max must be >= 0")
    seed = _number(run, "seed", 20240901, int)
    raw_checks = run.get("checks", " ".join(CHECK_ORDER))
    checks = [c for c in raw_checks.replace(",", " ").split() if c]
    unknown = [c for c in checks if c not in CHECK_ORDER]
    if unknown:
        raise ConfigError(f"unknown checks {unknown}; known: {CHECK_ORDER}")

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in cp:
        for key in cp["tolerances"]:
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance key {key!r}")
            tolerances[key] = _number(cp["tolerances"], key, None)
    if tol_scale != 1.0:
        tolerances = {k: v * tol_scale for k, v in tolerances.items()}
    if any(v <= 0 for v in tolerances.values()):
        raise ConfigError("tolerances must be positive")

    out_dir = Path(out_override) if out_override else \
        Path(cp["output"].get("dir", "out")) if "output" in cp else Path("out")

    bico = dict(cp["bicoherent"]) if "bicoherent" in cp else {}

    return RunConfig(
        model_spec=model_spec, n_max=n_max, grid_lo=lo, grid_hi=hi,
        grid_points=points, checks=checks, tolerances=tolerances, seed=seed,
        out_dir=out_dir, bicoherent=bico,
    )


def build_model(spec: dict) -> model_mod.PBModel:
    spec = dict(spec)
    if "builtin" in spec:
        name = spec.pop("builtin").strip()
        params = {}
        for key, val in spec.items():
            try:
                value = _parse_scalar(val)
            except ex.ExpressionError as exc:
                raise ConfigError(
                    f"bad [model] parameter {key} = {val!r}: {exc}") from exc
            params[key] = _real(value, "theta") if key == "theta" else value
        try:
            return model_mod.build_builtin(name, **params)
        except (model_mod.ModelError, TypeError) as exc:
            raise ConfigError(f"cannot build builtin {name!r}: {exc}") from exc
    required = ("alpha_a", "beta_a", "alpha_b", "beta_b")
    missing = [k for k in required if k not in spec]
    if missing:
        raise ConfigError(
            f"[model] needs either 'builtin' or all of {required}; "
            f"missing {missing}"
        )
    try:
        return model_mod.from_expressions(
            spec["alpha_a"], spec["beta_a"], spec["alpha_b"], spec["beta_b"],
            name=spec.get("name", "custom"),
        )
    except ex.ExpressionError as exc:
        raise ConfigError(f"bad coefficient expression: {exc}") from exc


def _model_echo(m: model_mod.PBModel) -> dict:
    return {
        "name": m.name,
        "flavor": m.flavor.kind,
        "alpha_a": ex.to_source(m.alpha_a),
        "beta_a": ex.to_source(m.beta_a),
        "alpha_b": ex.to_source(m.alpha_b),
        "beta_b": ex.to_source(m.beta_b),
    }


def _digest(payload) -> str:
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def _random_bumps(cfg: RunConfig, count: int = 5) -> list:
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.grid_lo, cfg.grid_hi
    mid, span = 0.5 * (lo + hi), 0.5 * (hi - lo)
    bumps = []
    for _ in range(count):
        center = mid + 0.5 * span * rng.uniform(-1.0, 1.0)
        width = rng.uniform(0.5, 1.0) * min(1.5, 0.4 * span)
        bumps.append(quad.TestFunction(center=center, width=width))
    return bumps


# Each check takes the model, the config and the run's states.GridJets on
# the config's grid, whose jets the grid checks read.

def _check_conditions(m, cfg, jets):
    rep = model_mod.check_pb_conditions(
        m, jets.grid, tol=cfg.tolerances["conditions"], jets=jets)
    return rep.max_abs, {"residual1_max": rep.max_abs1,
                         "residual2_max": rep.max_abs2}


def _worst(residuals) -> float:
    """The largest residual, nan if any is nan: a residual that could not
    be computed fails its check instead of being skipped over."""
    return float(np.max(list(residuals)))


def _check_commutator(m, cfg, jets):
    bumps = _random_bumps(cfg)
    return _worst(stats.sup_abs for stats in model_mod.commutator_residual(
        m, [bump.jet for bump in bumps], jets.grid, jets=jets)), \
        {"bumps": len(bumps)}


def _check_normalization(m, cfg, jets):
    """The relative error estimate of the vacuum pairing <psi_0, phi_0>
    that fixes the normalization product, read from the model's stored
    pairing: the check integrates nothing of its own."""
    value, res = m.norm_product, states.vacuum_pairing(m)
    return res.abs_error_estimate / abs(res.value), {
        "norm_product_re": value.real, "norm_product_im": value.imag,
        "abs_error_estimate": float(res.abs_error_estimate),
        "quad_panels": res.panels_used}


def _check_biorthonormality(m, cfg, jets):
    """The Gram matrix's deviation from the identity.  A deviation above
    the tolerance by no more than the Gram's own error, its largest error
    estimate or the roundoff floor of its largest entry mass, cannot tell
    a fail from noise, and is an error."""
    _, dev, res = quad.biorthonormality_matrix(m, cfg.n_max,
                                               return_integral=True)
    estimate = float(np.max(res.abs_error_estimate))
    mass = float(np.max(res.abs_mass))
    err = max(estimate, quad.ROUNDOFF_FLOOR * mass)
    tol = cfg.tolerances["biorthonormality"]
    if tol < dev <= tol + err:
        raise quad.QuadratureError(
            f"precision-limited: deviation {dev:.3g} exceeds the tolerance "
            f"{tol:.3g} by no more than the Gram's own error {err:.3g}")
    return dev, {"matrix_size": cfg.n_max + 1,
                 "max_abs_error_estimate": estimate,
                 "max_entry_mass": mass,
                 "quad_panels": res.panels_used}


def _check_ladder(m, cfg, jets):
    if cfg.n_max < 1:  # the relations of level n reach level n + 1
        return None, {"note": "the ladder check needs n_max >= 1"}
    phi = states.StateFamily(m, "phi", max_n=cfg.n_max)
    psi = states.StateFamily(m, "psi", max_n=cfg.n_max)
    return _worst(res.max for res in states.verify_ladder(
        phi, psi, range(cfg.n_max), jets.grid, jets=jets)), \
        {"levels": cfg.n_max}


def _check_eigen(m, cfg, jets):
    levels = range(cfg.n_max + 1)
    worst = _worst(r for side in ("H", "H_dag")
                   for r in spectral.eigen_residual(m, side, levels,
                                                    jets.grid, jets=jets))
    return worst, {"levels": cfg.n_max + 1}


def _check_hsusy(m, cfg, jets):
    return _worst(spectral.hsusy_shift_check(m, range(cfg.n_max + 1),
                                             jets.grid, jets=jets)), \
        {"levels": cfg.n_max + 1}


def _check_hamiltonian_crosscheck(m, cfg, jets):
    """The model's own H and H^dag coefficients against the printed
    operators of the builtin it claims to be."""
    if m.name in ("example1", "example2"):
        printed, k = m.name, 1.0
    elif (m.flavor.kind == "constant_alpha"
          and m.flavor.alpha_a == 1.0 and m.flavor.alpha_b == 1.0
          and m.flavor.k.imag == 0.0):
        printed, k = "constant_k", m.flavor.k.real
    else:
        return None, {"note": "no printed coefficients for this model"}
    return spectral.printed_hamiltonian_crosscheck(
        m, printed, k=k, grid=jets.grid, jets=jets), {}


CHECK_FUNCS: dict[str, Callable] = {
    "conditions": _check_conditions,
    "commutator": _check_commutator,
    "normalization": _check_normalization,
    "biorthonormality": _check_biorthonormality,
    "ladder": _check_ladder,
    "eigen": _check_eigen,
    "hsusy": _check_hsusy,
    "hamiltonian_crosscheck": _check_hamiltonian_crosscheck,
}


def cmd_check(cfg: RunConfig) -> VerificationReport:
    """Run the selected checks in dependency order; a failed prerequisite
    marks its dependents blocked rather than running them."""
    start = time.perf_counter()
    m = build_model(cfg.model_spec)
    echo = _model_echo(m)
    # the grid checks read one evaluation of the model's jets on the grid
    jets = states.GridJets(m, cfg.grid, cfg.n_max)
    selected = [c for c in CHECK_ORDER if c in cfg.checks]
    outcome: dict[str, str] = {}
    records: list[CheckRecord] = []

    def digest_for(name):
        return _digest({
            "check": name, "model": echo, "n_max": cfg.n_max, "seed": cfg.seed,
            "grid": [cfg.grid_lo, cfg.grid_hi, cfg.grid_points],
            "tolerance": cfg.tolerances[name],
        })

    # one pass: every prerequisite comes earlier in CHECK_ORDER
    for name in selected:
        pre = BLOCKED_BY.get(name)
        if pre is not None and outcome.get(pre) in ("fail", "blocked",
                                                    "error"):
            rec = CheckRecord(name, digest_for(name), None,
                              cfg.tolerances[name], "blocked",
                              {"blocked_by": pre})
        else:
            rec = _guarded_record(name, digest_for(name),
                                  cfg.tolerances[name],
                                  lambda: CHECK_FUNCS[name](m, cfg, jets))
        records.append(rec)
        outcome[name] = rec.verdict
    return _report(echo, records, start)


# ----------------------------------------------------------------------
# CSV emission
# ----------------------------------------------------------------------

def _fmt(v: float) -> str:
    """v to 17 significant digits; an exact zero prints 0, whatever its
    sign (-0.0 + 0.0 is 0.0)."""
    return f"{v + 0.0:.17g}"


def _write_csv(path: Path, header: list, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def cmd_states(cfg: RunConfig) -> list[Path]:
    """Tabulate both families on the grid, one CSV per side.  A side the
    model cannot evaluate (the psi side of vacua that do not pair needs
    their normalization) is a ModelError naming it, and so is a level
    that leaves double range on the grid, as in ``check``; either is
    raised after the tables of the sides before it are written."""
    m = build_model(cfg.model_spec)
    xs = cfg.grid
    paths = []
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for side in ("phi", "psi"):
        fam = states.StateFamily(m, side, max_n=cfg.n_max)
        try:
            # a level beyond double range is refused below, not warned of
            with np.errstate(over="ignore", invalid="ignore"):
                rows = fam.values_all(xs)
        except (model_mod.ModelError, ex.ExpressionError) as exc:
            raise model_mod.ModelError(f"{side} side: {exc}") from exc
        states.refuse_non_finite_levels(side, range(cfg.n_max + 1), xs, rows)
        cols = [xs.astype(float)]
        header = ["x"]
        for n, vals in enumerate(rows):
            cols.extend([vals.real, vals.imag])
            header.extend([f"{side}{n}_re", f"{side}{n}_im"])
        paths.append(_write_csv(cfg.out_dir / f"states_{side}.csv", header,
                                zip(*cols)))
    return paths


def _bicoherent_params(cfg: RunConfig) -> dict:
    """The ``[bicoherent]`` settings; every float is finite, the widths
    and the resolution radius are > 0, and anything else is a
    ConfigError naming its key."""
    bico = cfg.bicoherent

    def finite(key, default):
        value = _number(bico, key, default)
        if not math.isfinite(value):
            raise ConfigError(f"bicoherent {key} = {value} must be finite")
        return value

    def positive(key, default):
        value = finite(key, default)
        if not value > 0:
            raise ConfigError(f"bicoherent {key} = {value} must be > 0")
        return value

    def triple(key, default):
        raw = bico.get(key, default)
        try:
            lo, hi, n = raw.split()
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError:
            raise ConfigError(
                f"bicoherent {key} = {raw!r} needs 'lo hi count'") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"bicoherent {key} = {raw!r} needs finite ends")
        if n < 1:
            raise ConfigError(f"bicoherent {key} count must be >= 1")
        return lo, hi, n

    def count(key, default, least):
        value = _number(bico, key, default, int)
        if value < least:
            raise ConfigError(f"bicoherent {key} count must be >= {least}, "
                              f"not {value}")
        return value

    return {
        "z_re": triple("z_re", "-1.4 1.4 3"),
        "z_im": triple("z_im", "-1.4 1.4 3"),
        "bump_center": finite("bump_center", 0.0),
        "bump_width": positive("bump_width", 1.0),
        "bump2_center": finite("bump2_center", 0.2),
        "bump2_width": positive("bump2_width", 0.8),
        "resolution_radius": positive("resolution_radius", 6.0),
        "radial_nodes": count("radial_nodes", 96, 1),
        "angular_nodes": count("angular_nodes", 0, 0) or None,  # 0: default
        "max_terms": count("max_terms", 60, 0),
        "tolerance_eigen": finite("tolerance_eigen", 1e-8),
        "tolerance_resolution": finite("tolerance_resolution", 1e-3),
    }


def _series_outcomes(m, groups: list, side: str, max_terms: int) -> list:
    """The ket series of every test function in ``groups`` (a list of
    lists) on one side, in order, each a ``PairingSeries`` or the
    exception its integrals raised, kept as a value for every record that
    reads it.  All functions share one batched integral pair; where that
    raises, a group holding a function the error flags as failed keeps
    that error, and every other group is integrated once on its own, so
    one failing function fails only its own group and is not integrated
    twice."""
    flat = [h for grp in groups for h in grp]
    try:
        return bc.pairing_series(m, flat, side, max_terms=max_terms)
    except Exception as exc:  # each group below meets its own error
        batch_error = exc
    # one flag per function, where the error says which functions failed
    failed = getattr(batch_error, "failed", None)
    if np.shape(failed) != (len(flat),):
        failed = np.zeros(len(flat), dtype=bool)
    out = []
    for grp in groups:
        start = len(out)
        if failed[start:start + len(grp)].any():
            out.extend([batch_error] * len(grp))
            continue
        try:
            out.extend(bc.pairing_series(m, grp, side, max_terms=max_terms))
        except Exception as exc:  # a record reports it
            out.extend([exc] * len(grp))
    return out


def _outcome(value):
    """A value kept by :func:`_series_outcomes`; its exception is raised."""
    if isinstance(value, Exception):
        raise value
    return value


def cmd_bicoherent(cfg: RunConfig) -> tuple[VerificationReport, list[Path]]:
    """Weak-pairing tables over a z-grid, eigen-relation residuals, and
    the resolution-of-identity comparison with its radius trace."""
    start = time.perf_counter()
    p = _bicoherent_params(cfg)
    m = build_model(cfg.model_spec)
    echo = _model_echo(m)
    g = quad.TestFunction(center=p["bump_center"], width=p["bump_width"])
    f = quad.TestFunction(center=p["bump2_center"], width=p["bump2_width"])
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    re_lo, re_hi, re_n = p["z_re"]
    im_lo, im_hi, im_n = p["z_im"]
    z_grid = [complex(a, b)
              for a in np.linspace(re_lo, re_hi, re_n)
              for b in np.linspace(im_lo, im_hi, im_n)]

    # one batched integral per side serves both records: the ket series
    # of g, of g' (a^dag g on phi, b g on psi) and of f; each series is
    # kept as its outcome, so a failing f leaves the eigen record standing
    # and no record integrates again what another one already has
    phi_out, psi_out = (
        _series_outcomes(m, [[g, bc.TransformedTestFunction(m, op, g)], [f]],
                         side, p["max_terms"])
        for side, op in (("phi", "a_dag"), ("psi", "b")))
    g_out = [phi_out[0], psi_out[0]]

    def certified(series, z: complex) -> complex:
        """<Phi(z), g> or <Psi(z), g>; nan where the tail is not certified."""
        try:
            return series.eval(z).conjugate()
        except model_mod.ModelError:
            return complex(np.nan, np.nan)

    def z_grid_tables():
        g_kets = [_outcome(o) for o in g_out]
        pairings = [[certified(series, z) for series in g_kets]
                    for z in z_grid]
        paths.append(_write_csv(cfg.out_dir / "pairings.csv",
                                ["z_re", "z_im", "phi_re", "phi_im",
                                 "psi_re", "psi_im"],
                                [(z.real, z.imag, vp.real, vp.imag, vs.real,
                                  vs.imag)
                                 for z, (vp, vs) in zip(z_grid, pairings)]))

        eigen = bc.eigen_relation_residual(
            m, z_grid, g, max_terms=p["max_terms"],
            series=[[_outcome(o) for o in side[:2]]
                    for side in (phi_out, psi_out)])
        rows = [(z.real, z.imag, abs(res.residual_phi), abs(res.residual_psi),
                 res.relative_phi, res.relative_psi)
                for z, res in zip(z_grid, eigen)]
        paths.append(_write_csv(cfg.out_dir / "eigen_relations.csv",
                                ["z_re", "z_im", "abs_phi", "abs_psi",
                                 "rel_phi", "rel_psi"], rows))
        # every table row is written; the points a series could not
        # certify carry nan and make the record an error
        uncertified = [abs(z) for z, vals, row in zip(z_grid, pairings, rows)
                       if np.isnan(vals).any() or np.isnan(row[2:4]).any()]
        if uncertified:
            raise model_mod.ModelError(
                f"non-convergent pairing tail within {p['max_terms']} terms "
                f"at {len(uncertified)} of {len(z_grid)} z points, the "
                f"smallest at |z| = {min(uncertified):.3g}; their columns "
                "are nan")
        # where the right-hand side vanishes (z = 0) the relative residual
        # is nan and the absolute one stands in for it
        worst_eigen = _worst(
            abs(resid) if np.isnan(rel) else rel for res in eigen
            for rel, resid in ((res.relative_phi, res.residual_phi),
                               (res.relative_psi, res.residual_psi)))
        return worst_eigen, {"z_points": len(z_grid)}

    def resolution_record():
        # f's series before g's, so the first failing one is reported
        f_series = [_outcome(side[2]) for side in (phi_out, psi_out)]
        resolution = bc.resolution_of_identity(
            m, f, g, R=p["resolution_radius"], n_r=p["radial_nodes"],
            n_theta=p["angular_nodes"], max_terms=p["max_terms"],
            g_series=[_outcome(o) for o in g_out], f_series=f_series)
        ref = resolution.reference
        rows = [
            (rr, vpp.real, vpp.imag, vpf.real, vpf.imag, ref.real, ref.imag,
             abs(vpp - ref), abs(vpf - ref))
            for rr, vpp, vpf in resolution.trace
        ]
        paths.append(_write_csv(
            cfg.out_dir / "resolution.csv",
            ["radius", "phi_psi_re", "phi_psi_im", "psi_phi_re", "psi_phi_im",
             "reference_re", "reference_im", "deviation_phi_psi",
             "deviation_psi_phi"], rows))
        return (_worst((resolution.deviation_phi_psi,
                        resolution.deviation_psi_phi)),
                {"radius": p["resolution_radius"],
                 "reference_re": ref.real, "reference_im": ref.imag,
                 "tail_estimate": resolution.tail_estimate})

    # the pairing table and eigen relations share the z-grid tail checks
    records = [
        _guarded_record("bicoherent_eigen_relations",
                        _digest({"model": echo,
                                 "z": [[z.real, z.imag] for z in z_grid]}),
                        p["tolerance_eigen"], z_grid_tables),
        _guarded_record("bicoherent_resolution",
                        _digest({"model": echo, "R": p["resolution_radius"]}),
                        p["tolerance_resolution"], resolution_record),
    ]
    return _report(echo, records, start), paths


def cmd_hamiltonian(cfg: RunConfig) -> tuple[VerificationReport, list[Path]]:
    """Coefficient tables of H and H^dag plus the printed-formula
    cross-check when one exists for the model.  Coefficients the model
    cannot give on the grid (a pole on it) are a ModelError naming the
    side and the point, and no table is written."""
    start = time.perf_counter()
    m = build_model(cfg.model_spec)
    echo = _model_echo(m)
    jets = states.GridJets(m, cfg.grid, cfg.n_max)
    xs = jets.grid
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    header = ["x"]
    cols = [xs.astype(float)]
    for side, tags in (("H", ("k2", "k1", "k0")),
                       ("H_dag", ("q2", "q1", "q0"))):
        try:
            vals = spectral.hamiltonian_coeffs(m, side).values(xs, jets=jets)
        except (model_mod.ModelError, ex.ExpressionError) as exc:
            raise model_mod.ModelError(f"{side} coefficients: {exc}") \
                from exc
        for tag, arr in zip(tags, vals):
            cols.extend([arr.real, arr.imag])
            header.extend([f"{tag}_re", f"{tag}_im"])
    path = _write_csv(cfg.out_dir / "hamiltonian.csv", header, zip(*cols))

    metric, detail = _check_hamiltonian_crosscheck(m, cfg, jets)
    rec = _record("hamiltonian_crosscheck", _digest(echo), metric,
                  cfg.tolerances["hamiltonian_crosscheck"], detail)
    return _report(echo, [rec], start), [path]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

# command -> (runner returning the report and its tables, report file)
REPORTING_COMMANDS = {
    "check": (lambda cfg: (cmd_check(cfg), []), "report.json"),
    "bicoherent": (cmd_bicoherent, "bicoherent_report.json"),
    "hamiltonian": (cmd_hamiltonian, "hamiltonian_report.json"),
}


def _env(name: str) -> Optional[str]:
    return os.environ.get(ENV_PREFIX + name)


def _console_reason(r: CheckRecord) -> str:
    """Why an error or blocked record has no metric, for its console
    line; the report carries the same text in its detail."""
    if r.verdict == "error":
        return f"  {r.detail['error']}"
    if r.verdict == "blocked":
        return f"  blocked_by={r.detail['blocked_by']}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pseudobosons",
        description="Build pseudo-bosonic ladder models and verify their "
                    "algebraic and integral identities.",
    )
    parser.add_argument("command",
                        choices=["check", "states", "bicoherent",
                                 "hamiltonian"])
    parser.add_argument("--config", default=_env("CONFIG"),
                        help="path to the INI run configuration")
    parser.add_argument("--out", default=_env("OUT"),
                        help="output directory (overrides config)")
    parser.add_argument("--tol-scale", type=float,
                        default=float(_env("TOL_SCALE") or 1.0),
                        help="multiply every tolerance by this factor")
    args = parser.parse_args(argv)

    if not args.config:
        print("error: --config is required (or set "
              f"{ENV_PREFIX}CONFIG)", file=sys.stderr)
        return 2
    try:
        cfg = load_config(Path(args.config), out_override=args.out,
                          tol_scale=args.tol_scale)
        try:
            if args.command == "states":
                paths = cmd_states(cfg)
            else:
                run, report_name = REPORTING_COMMANDS[args.command]
                report, paths = run(cfg)
        except model_mod.ModelError as exc:  # a table the model cannot give
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.command == "states":
            for path in paths:
                print(f"wrote {path}")
            return 0
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        out = cfg.out_dir / report_name
        out.write_text(report.to_json(), encoding="utf-8")
        for path in paths + [out]:
            print(f"wrote {path}")
        for r in report.records:
            metric = "-" if r.metric is None else f"{r.metric:.3e}"
            print(f"  {r.name:<24} {r.verdict:<8} metric={metric}"
                  + _console_reason(r))
        return 0 if report.overall == "pass" else 1
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
