"""Config-driven command-line front end.

Subcommands: ``check`` (verification suite), ``states`` (CSV tables of
the two families), ``bicoherent`` (weak-pairing tables, eigen-relation
residuals, resolution-of-identity comparison), ``hamiltonian``
(coefficient tables plus printed-formula cross-checks).

Configs are INI files read through one table, :data:`SCHEMA`, which
gives each key of each section its parser, default and constraint (see
the package README).  Every command validates the whole config, so a
value one command does not read is still a config error for it.

Every record a command computes gets its verdict from one rule,
:func:`_record`: a check returns its deviation, its detail and, where it
has one, the certified error of that deviation, and raises only where it
cannot measure.

Exit status: 0 all checks pass, 1 check failures (report still written)
or a ``states`` or ``hamiltonian`` table the model cannot give (the
``states`` tables before it still written), 2 config errors.
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
from typing import Callable, NamedTuple, Optional

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

# the verdicts that fail a report and block the checks that need them
FAILING = frozenset({"fail", "blocked", "error"})

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


def _record(name: str, digest: str, tol: float,
            compute: Callable[[], tuple]) -> CheckRecord:
    """The record of ``compute() -> (metric, detail[, error])``: a
    deviation, its detail and, where it has one, the certified error of
    that deviation (0 otherwise).  An exception is an ``error`` record
    carrying ``Type: message``, and the command goes on; no metric is
    ``skipped``; a metric within ``tol`` passes; one above it by no more
    than its own error cannot tell a fail from noise and is an ``error``
    that keeps its metric and detail; anything else (nan too) fails."""
    try:
        metric, detail, *err = compute()
    except Exception as exc:  # report the failure, keep going
        return CheckRecord(name, digest, None, tol, "error",
                           {"error": f"{type(exc).__name__}: {exc}"})
    if metric is None:
        return CheckRecord(name, digest, None, tol, "skipped", detail)
    metric, err = float(metric), float(err[0]) if err else 0.0
    if metric <= tol:
        verdict = "pass"
    elif metric <= tol + err:
        verdict, detail = "error", {**detail, "error": (
            f"precision-limited: deviation {metric:.3g} exceeds the "
            f"tolerance {tol:.3g} by no more than its own error {err:.3g}")}
    else:
        verdict = "fail"
    return CheckRecord(name, digest, metric, tol, verdict, detail)


def _report(echo: dict, records: list, start: float) -> VerificationReport:
    """The report of one command: it fails if any record has a
    :data:`FAILING` verdict."""
    bad = any(r.verdict in FAILING for r in records)
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


class Key(NamedTuple):
    """One config key.  ``parse`` reads its text, or ``default`` where the
    key is absent (None: it stays absent), and raises ValueError where it
    cannot; ``check`` says what is wrong with the value, or None.  A
    ``tolerance`` is multiplied by the run's tolerance scale first."""
    parse: Callable
    default: object = None
    check: Optional[Callable] = None
    tolerance: bool = False


def _finite(value: float) -> Optional[str]:
    return None if math.isfinite(value) else f"= {value} must be finite"


def _positive(value: float) -> Optional[str]:
    return _finite(value) or (
        None if value > 0 else f"= {value} must be positive")


def _count(least: int) -> Callable:
    return lambda n: None if n >= least else \
        f"count must be >= {least}, not {n}"


def _z_range(text: str) -> tuple:
    """``lo hi count``, with finite ends."""
    lo, hi, n = text.split()
    lo, hi, n = float(lo), float(hi), int(n)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(text)
    return lo, hi, n


def _z_points(z: tuple) -> Optional[str]:
    return _count(1)(z[2])


def _check_names(text: str) -> list:
    return [c for c in text.replace(",", " ").split() if c]


def _known_checks(names: list) -> Optional[str]:
    unknown = [c for c in names if c not in CHECK_ORDER]
    return f"has unknown checks {unknown}; known: {CHECK_ORDER}" \
        if unknown else None


# what a value its parser refuses should have been
_EXPECTED = {float: "a valid float", int: "a valid int",
             _z_range: "'lo hi count' with finite ends"}

# section -> key -> Key: every key a section may hold.  An unknown key
# (a typo) is refused rather than ignored, except in [run]: the
# benchmark's configs still write [run] jobs (ROADMAP, benchmark
# housekeeping).  A [model] with a builtin skips its keys here and passes
# them to build_builtin, which refuses unknown parameters.
SCHEMA = {
    "model": {key: Key(str) for key in
              ("alpha_a", "beta_a", "alpha_b", "beta_b", "name")},
    "grid": {
        "lo": Key(float, -4.0, _finite),
        "hi": Key(float, 4.0, _finite),
        "points": Key(int, 201, _count(2)),
    },
    "run": {
        "n_max": Key(int, 10, _count(0)),
        "checks": Key(_check_names, " ".join(CHECK_ORDER), _known_checks),
        "seed": Key(int, 20240901,
                    lambda n: None if n >= 0 else f"= {n} must be >= 0"),
    },
    "tolerances": {name: Key(float, tol, _positive, tolerance=True)
                   for name, tol in DEFAULT_TOLERANCES.items()},
    "output": {"dir": Key(Path, "out")},
    "bicoherent": {
        "z_re": Key(_z_range, "-1.4 1.4 3", _z_points),
        "z_im": Key(_z_range, "-1.4 1.4 3", _z_points),
        "bump_center": Key(float, 0.0, _finite),
        "bump_width": Key(float, 1.0, _positive),
        "bump2_center": Key(float, 0.2, _finite),
        "bump2_width": Key(float, 0.8, _positive),
        "resolution_radius": Key(float, 6.0, _positive),
        "radial_nodes": Key(int, 96, _count(1)),
        "angular_nodes": Key(int, 0, _count(0)),  # 0: the rule's default
        "max_terms": Key(int, 60, _count(0)),
        "tolerance_eigen": Key(float, 1e-8, _positive, tolerance=True),
        "tolerance_resolution": Key(float, 1e-3, _positive, tolerance=True),
    },
}


def _read_section(cp: configparser.ConfigParser, section: str,
                  tol_scale: float) -> dict:
    """The values of ``section`` read through :data:`SCHEMA`; a
    ConfigError naming the section and the key of the first one wrong."""
    keys = SCHEMA[section]
    given = cp[section] if section in cp else {}
    unknown = [k for k in given if k not in keys]
    if unknown and section != "run":
        raise ConfigError(f"unknown key {unknown[0]!r} in [{section}]; "
                          f"known: {', '.join(keys)}")
    values = {}
    for key, spec in keys.items():
        raw = given.get(key, spec.default)
        if raw is None:
            continue
        try:
            value = spec.parse(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not "
                              f"{_EXPECTED[spec.parse]}") from None
        if spec.tolerance:
            value *= tol_scale
        wrong = spec.check and spec.check(value)
        if wrong:
            raise ConfigError(f"[{section}] {key} {wrong}")
        values[key] = value
    return values


def load_config(path: Path, *, out_override=None,
                tol_scale: float = 1.0) -> RunConfig:
    """The run configuration at ``path``, every section checked, whatever
    the command; ``tol_scale`` multiplies every tolerance."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if "model" not in cp:
        raise ConfigError("config needs a [model] section")
    unknown = [s for s in cp.sections() if s not in SCHEMA]
    if unknown:
        raise ConfigError(f"unknown section [{unknown[0]}]; "
                          f"known: {', '.join(SCHEMA)}")
    builtin = "builtin" in cp["model"]
    sec = {s: _read_section(cp, s, tol_scale) for s in SCHEMA
           if not (s == "model" and builtin)}
    grid, run = sec["grid"], sec["run"]
    if not grid["lo"] < grid["hi"]:
        raise ConfigError("[grid] lo must be < hi")
    return RunConfig(
        model_spec=dict(cp["model"]) if builtin else sec["model"],
        n_max=run["n_max"], grid_lo=grid["lo"], grid_hi=grid["hi"],
        grid_points=grid["points"], checks=run["checks"],
        tolerances=sec["tolerances"], seed=run["seed"],
        out_dir=Path(out_override) if out_override else sec["output"]["dir"],
        bicoherent=sec["bicoherent"],
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
    """The worst commutator residual over the random bumps; bumps that
    are all 0 at every grid point leave nothing measured, which is an
    error and not a pass."""
    bumps = _random_bumps(cfg)
    if not any(np.any(bump.values(jets.grid)) for bump in bumps):
        raise model_mod.ModelError(
            f"none of the {len(bumps)} test functions is nonzero at any of "
            f"the {jets.grid.size} grid points")
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
    """The Gram matrix's deviation from the identity, certified to its
    largest error estimate or the roundoff floor of its largest entry
    mass, whichever is larger.  The detail names the route: the Gauss-
    Hermite rules with their node counts and largest difference, or the
    adaptive integral with its panels."""
    _, dev, res = quad.biorthonormality_matrix(m, cfg.n_max,
                                               return_integral=True)
    estimate = float(np.max(res.abs_error_estimate))
    mass = float(np.max(res.abs_mass))
    if isinstance(res, quad.GaussHermiteResult):
        route, work = "gauss_hermite", {"nodes": list(res.nodes),
                                        "rule_difference": res.rule_difference}
    else:
        route, work = "adaptive", {"quad_panels": res.panels_used}
    return dev, {"matrix_size": cfg.n_max + 1, "route": route,
                 "max_abs_error_estimate": estimate,
                 "max_entry_mass": mass, **work}, \
        max(estimate, quad.ROUNDOFF_FLOOR * mass)


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
    records: dict[str, CheckRecord] = {}
    # one pass: every prerequisite comes earlier in CHECK_ORDER
    for name in (c for c in CHECK_ORDER if c in cfg.checks):
        pre, tol = BLOCKED_BY.get(name), cfg.tolerances[name]
        digest = _digest({
            "check": name, "model": echo, "n_max": cfg.n_max, "seed": cfg.seed,
            "grid": [cfg.grid_lo, cfg.grid_hi, cfg.grid_points],
            "tolerance": tol})
        if pre in records and records[pre].verdict in FAILING:
            records[name] = CheckRecord(name, digest, None, tol, "blocked",
                                        {"blocked_by": pre})
        else:
            records[name] = _record(name, digest, tol,
                                    lambda: CHECK_FUNCS[name](m, cfg, jets))
    return _report(echo, list(records.values()), start)


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


def _outcomes(compute, groups: list) -> list:
    """compute(items) over the items of every group in ``groups`` (a list
    of lists) in one call: one result per item, in order, or the
    exception the call raised, kept by :func:`states.keep_outcome`.
    Where that call raises, a group the error flags (``failed``, one
    entry per item) keeps that error without computing again, and every
    other group is computed on its own."""
    flat = [item for grp in groups for item in grp]
    if not flat:
        return []
    batch = states.keep_outcome(lambda: compute(flat))
    if not isinstance(batch, Exception):
        return list(batch)
    failed = getattr(batch, "failed", None)
    if np.shape(failed) != (len(flat),):
        failed = np.zeros(len(flat), dtype=bool)
    out = []
    for grp in groups:
        kept = batch if failed[len(out):len(out) + len(grp)].any() \
            else states.keep_outcome(lambda: compute(grp))
        out.extend([kept] * len(grp) if isinstance(kept, Exception)
                   else kept)
    return out


def _series_outcomes(m, groups: dict, max_terms: int) -> dict:
    """side -> the ket series of every test function in ``groups[side]``
    (a list of lists), in order, each a ``PairingSeries`` or the exception
    its integrals raised.  The coefficients are one batched integral per
    side, and the tail bounds one integral over every (side, function)
    whose coefficients were computed (see :func:`bc.overlap_bounds`).
    Where one of them raises, each (side, group) that the error flags
    keeps it and every other one is integrated again on its own (see
    :func:`_outcomes`): a failing function takes down neither another
    group nor its own series on the other side."""
    rows = {side: _outcomes(
        lambda hs, side=side: quad.state_overlaps(
            m, hs, side, max_terms, state_in_bra=False), grps)
        for side, grps in groups.items()}
    units = []  # each (side, group) with coefficients, as (side, h) pairs
    for side, grps in groups.items():
        side_rows = iter(rows[side])
        for grp in grps:
            # a group's functions share one outcome
            if not isinstance([next(side_rows) for _ in grp][0], Exception):
                units.append([(side, h) for h in grp])
    bounds = iter(_outcomes(lambda pairs: bc.overlap_bounds(m, pairs),
                            units))

    def series(row):
        if isinstance(row, Exception):
            return row
        bound = next(bounds)
        return bound if isinstance(bound, Exception) \
            else bc.PairingSeries(row, bound)

    return {side: [series(row) for row in rows[side]] for side in groups}


def cmd_bicoherent(cfg: RunConfig) -> tuple[VerificationReport, list[Path]]:
    """Weak-pairing tables over a z-grid, eigen-relation residuals, and
    the resolution-of-identity comparison with its radius trace."""
    start = time.perf_counter()
    p = cfg.bicoherent
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

    # one batched coefficient integral per side and one bound integral
    # for both serve both records: the ket series of g, of g' (a^dag g on
    # phi, b g on psi) and of f; each series is kept as its outcome, so a
    # failing f leaves the eigen record standing and no record integrates
    # again what another one already has
    phi_out, psi_out = _series_outcomes(
        m, {side: [[g, bc.TransformedTestFunction(m, op, g)], [f]]
            for side, op in (("phi", "a_dag"), ("psi", "b"))},
        p["max_terms"]).values()
    g_out = [phi_out[0], psi_out[0]]

    def z_grid_tables():
        # <Phi(z), g> and <Psi(z), g> at every z, nan where the tail is
        # not certified
        pairings = list(zip(*(np.conj(states.read_outcome(o).values(z_grid))
                              for o in g_out)))
        paths.append(_write_csv(cfg.out_dir / "pairings.csv",
                                ["z_re", "z_im", "phi_re", "phi_im",
                                 "psi_re", "psi_im"],
                                [(z.real, z.imag, vp.real, vp.imag, vs.real,
                                  vs.imag)
                                 for z, (vp, vs) in zip(z_grid, pairings)]))

        eigen = bc.eigen_relation_residual(
            m, z_grid, g, max_terms=p["max_terms"],
            series=[[states.read_outcome(o) for o in side[:2]]
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
        f_series = [states.read_outcome(side[2])
                    for side in (phi_out, psi_out)]
        resolution = bc.resolution_of_identity(
            m, f, g, R=p["resolution_radius"], n_r=p["radial_nodes"],
            n_theta=p["angular_nodes"] or None, max_terms=p["max_terms"],
            g_series=[states.read_outcome(o) for o in g_out],
            f_series=f_series)
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
        _record("bicoherent_eigen_relations",
                _digest({"model": echo,
                         "z": [[z.real, z.imag] for z in z_grid]}),
                p["tolerance_eigen"], z_grid_tables),
        _record("bicoherent_resolution",
                _digest({"model": echo, "R": p["resolution_radius"]}),
                p["tolerance_resolution"], resolution_record),
    ]
    return _report(echo, records, start), paths


def cmd_hamiltonian(cfg: RunConfig) -> tuple[VerificationReport, list[Path]]:
    """Coefficient tables of H and H^dag plus the printed-formula
    cross-check when one exists for the model, a record like those of
    ``check``.  Coefficients the model cannot give on the grid (a pole on
    it) are a ModelError naming the side and the point, and no table is
    written."""
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

    rec = _record("hamiltonian_crosscheck", _digest(echo),
                  cfg.tolerances["hamiltonian_crosscheck"],
                  lambda: _check_hamiltonian_crosscheck(m, cfg, jets))
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
