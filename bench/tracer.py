"""Outside-in tracing of the pseudobosons layers.

The tracer wraps the public functions of each package module from the
outside: it replaces every binding of a wrapped object in every loaded
``pseudobosons`` module (``from .quad import integrate_line`` makes a
second binding in ``bicoherent``, ``from .model import apply_ladder`` one
in ``states`` and ``spectral``, and so on), and the class attribute for
methods.  Nothing under ``src/`` changes; ``restore()`` undoes every patch.

Two kinds of boundary are recorded:

* frames: pushed on a span stack with a start time.  When a frame ends,
  its duration is added to the inclusive time of its kind (only for the
  outermost frame of that kind, so recursion is not counted twice) and,
  minus the time of its child frames, to the self time of its kind.
  Coarse frames (commands, checks, pairing series, overlaps, Gram
  matrices, integrals) are also kept as spans (id, name, start, end,
  parent id) for the trace file.
* counters: per-point boundaries (``Jet.__init__``, ``eval_jet``) that run
  millions of times only bump an integer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter

# frame around each integrand call made by integrate_line
INTEGRAND = "quad.integrate_line.integrand"


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "outermost")

    def __init__(self, name, start, span_id, outermost):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.outermost = outermost


class Tracer:
    """Span stack, counters and the patches that feed them."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.active: Counter = Counter()
        self.spans: list[list] = []  # [id, name, start, end, parent id]
        self.counts: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.jet_max_order = 0
        self._patches: list[tuple] = []

    # -- frames -------------------------------------------------------

    def reset(self):
        """Clear all measurements; the patches stay in place."""
        if self.stack:
            raise RuntimeError("cannot reset a tracer with open frames")
        self.active.clear()
        self.spans = []
        self.counts.clear()
        self.inclusive.clear()
        self.self_time.clear()
        self.jet_max_order = 0

    def enter(self, name: str, record: bool) -> _Frame:
        span_id = len(self.spans) + 1 if record else 0
        frame = _Frame(name, 0.0, span_id, self.active[name] == 0)
        if record:
            parent = 0
            for f in reversed(self.stack):
                if f.span_id:
                    parent = f.span_id
                    break
            # reserve the slot now so that children get larger ids
            self.spans.append([span_id, name, 0.0, 0.0, parent])
        self.active[name] += 1
        self.stack.append(frame)
        frame.start = _perf()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = _perf()
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError(f"span stack out of order: {top.name} "
                               f"closed as {frame.name}")
        duration = end - frame.start
        self.active[frame.name] -= 1
        self.self_time[frame.name] += duration - frame.child
        if frame.outermost:
            self.inclusive[frame.name] += duration
        if self.stack:
            self.stack[-1].child += duration
        if frame.span_id:
            span = self.spans[frame.span_id - 1]
            span[2] = frame.start
            span[3] = end

    def parent_name(self):
        return self.stack[-1].name if self.stack else None

    def timed(self, name: str, fn, *, record: bool = False):
        """Wrap ``fn`` in a frame that also counts its calls."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            frame = tracer.enter(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return wrapper

    # -- patching -----------------------------------------------------

    def _rebind(self, orig, wrapped) -> None:
        """Replace every module-level binding of ``orig`` in the package."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "pseudobosons" and \
                    not modname.startswith("pseudobosons."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no binding of {orig!r} found to patch")

    def patch_function(self, module, attr: str, make_wrapper):
        orig = getattr(module, attr)
        self._rebind(orig, make_wrapper(orig))

    def patch_method(self, cls, attr: str, make_wrapper):
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, make_wrapper(orig))

    def patch_item(self, mapping: dict, key, make_wrapper):
        orig = mapping[key]
        self._patches.append((mapping, key, orig))
        mapping[key] = make_wrapper(orig)

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- the package's layers -------------------------------------------

    def install(self):
        """Patch every traced boundary of the loaded package."""
        from pseudobosons import (bicoherent, cli, expressions, jets, model,
                                  quad, spectral, states)

        self._install_jets(jets)
        self._install_expressions(expressions)
        self._install_quad(quad)

        timed = self.timed
        for mod, attr in ((states, "fix_normalization"),
                          (states, "verify_ladder"),
                          (model, "check_pb_conditions"),
                          (model, "commutator_residual"),
                          (spectral, "eigen_residual"),
                          (spectral, "hsusy_shift_check"),
                          (bicoherent, "eigen_relation_residual"),
                          (bicoherent, "resolution_of_identity")):
            name = f"{mod.__name__.split('.')[-1]}.{attr}"
            self.patch_function(mod, attr,
                                lambda fn, n=name: timed(n, fn, record=True))
        # per-point boundaries: frames for timing, but no stored spans
        self.patch_function(model, "apply_ladder",
                            lambda fn: timed("model.apply_ladder", fn))
        self.patch_method(states.StateFamily, "jet",
                          lambda fn: timed("states.StateFamily.jet", fn))
        self.patch_method(spectral.HamiltonianCoeffs, "values",
                          lambda fn: timed("spectral.HamiltonianCoeffs.values",
                                           fn, record=True))
        self.patch_method(bicoherent.PairingSeries, "__init__",
                          lambda fn: timed("bicoherent.PairingSeries", fn,
                                           record=True))
        for check in list(cli.CHECK_FUNCS):
            self.patch_item(cli.CHECK_FUNCS, check,
                            lambda fn, n=f"cli.check.{check}":
                            timed(n, fn, record=True))

    def _install_jets(self, jets):
        tracer = self
        counts = self.counts

        def make(orig):
            @functools.wraps(orig)
            def __init__(self, base, coeffs):
                orig(self, base, coeffs)
                counts["jets.Jet"] += 1
                order = self.coeffs.size - 1
                if order > tracer.jet_max_order:
                    tracer.jet_max_order = order
            return __init__

        self.patch_method(jets.Jet, "__init__", make)

    def _install_expressions(self, ex):
        tracer = self
        counts = self.counts

        def make_eval_jet(orig):
            @functools.wraps(orig)
            def eval_jet(self, x, order):
                counts["expressions.eval_jet"] += 1
                return orig(self, x, order)
            return eval_jet

        for cls in vars(ex).values():
            if isinstance(cls, type) and issubclass(cls, ex.FunctionExpr) \
                    and "eval_jet" in cls.__dict__ \
                    and cls is not ex.FunctionExpr:
                self.patch_method(cls, "eval_jet", make_eval_jet)

        name = "expressions.eval_values"

        def make_eval_values(orig):
            @functools.wraps(orig)
            def eval_values(self, xs):
                # an entry from outside the evaluator, not its recursion
                if tracer.parent_name() != name:
                    counts[name] += 1
                    counts[name + ".points"] += getattr(xs, "size", 1)
                frame = tracer.enter(name, False)
                try:
                    return orig(self, xs)
                finally:
                    tracer.exit(frame)
            return eval_values

        self.patch_method(ex.FunctionExpr, "eval_values", make_eval_values)
        self.patch_method(ex.Antideriv, "value_at",
                          lambda fn: self.timed(
                              "expressions.Antideriv.value_at", fn,
                              record=True))

    def _install_quad(self, quad):
        tracer = self
        counts = self.counts
        name = "quad.integrate_line"

        def make_integrate_line(orig):
            @functools.wraps(orig)
            def integrate_line(f, *args, **kwargs):
                if tracer.parent_name() == name:
                    # the reversed-bounds recursion: one integral, not two
                    return orig(f, *args, **kwargs)
                counts[name] += 1
                if tracer.parent_name() == "expressions.Antideriv.value_at":
                    counts["expressions.Antideriv.quad_calls"] += 1

                def integrand(xs):
                    frame = tracer.enter(INTEGRAND, False)
                    try:
                        return f(xs)
                    finally:
                        tracer.exit(frame)

                frame = tracer.enter(name, True)
                try:
                    res = orig(integrand, *args, **kwargs)
                except quad.QuadratureError:
                    counts[name + ".errors"] += 1
                    raise
                finally:
                    tracer.exit(frame)
                counts[name + ".panels"] += res.panels_used
                return res
            return integrate_line

        self.patch_function(quad, "integrate_line", make_integrate_line)
        self.patch_function(quad, "hermite_value",
                            lambda fn: self.timed("quad.hermite_value", fn))
        for attr in ("compatibility_form", "state_overlaps",
                     "biorthonormality_matrix"):
            self.patch_function(quad, attr,
                                lambda fn, n=f"quad.{attr}":
                                self.timed(n, fn, record=True))

    # -- results ------------------------------------------------------

    def command(self, fn, *args):
        """Run one CLI command inside a recorded ``cli.command`` frame."""
        self.counts["cli.command"] += 1
        frame = self.enter("cli.command", True)
        try:
            return fn(*args)
        finally:
            self.exit(frame)

    def layer_metrics(self, check_names) -> dict:
        """Per-layer metrics of everything traced since the last reset."""
        c, inc = self.counts, self.inclusive
        out = {f"cli.check.{n}.s": inc[f"cli.check.{n}"] for n in check_names}
        out["cli.command.s"] = inc["cli.command"]
        out.update({
            "jets.Jet.created": c["jets.Jet"],
            "jets.Jet.max_order": self.jet_max_order,
            "states.StateFamily.jet.calls": c["states.StateFamily.jet"],
            "states.StateFamily.jet.s": inc["states.StateFamily.jet"],
            "states.verify_ladder.s": inc["states.verify_ladder"],
            "states.fix_normalization.s": inc["states.fix_normalization"],
            "model.apply_ladder.calls": c["model.apply_ladder"],
            "model.apply_ladder.s": inc["model.apply_ladder"],
            "model.check_pb_conditions.s": inc["model.check_pb_conditions"],
            "model.commutator_residual.s": inc["model.commutator_residual"],
            "spectral.eigen_residual.calls": c["spectral.eigen_residual"],
            "spectral.eigen_residual.s": inc["spectral.eigen_residual"],
            "spectral.hsusy_shift_check.s": inc["spectral.hsusy_shift_check"],
            "spectral.HamiltonianCoeffs.values.s":
                inc["spectral.HamiltonianCoeffs.values"],
            "expressions.eval_values.calls": c["expressions.eval_values"],
            "expressions.eval_values.points":
                c["expressions.eval_values.points"],
            "expressions.eval_values.self_s":
                self.self_time["expressions.eval_values"],
            "expressions.eval_jet.calls": c["expressions.eval_jet"],
            "expressions.Antideriv.value_at.calls":
                c["expressions.Antideriv.value_at"],
            "expressions.Antideriv.value_at.s":
                inc["expressions.Antideriv.value_at"],
            "expressions.Antideriv.quad_calls":
                c["expressions.Antideriv.quad_calls"],
            "quad.integrate_line.calls": c["quad.integrate_line"],
            "quad.integrate_line.panels": c["quad.integrate_line.panels"],
            # computed, not counted: 15 Kronrod nodes per panel
            "quad.integrate_line.evals": 15 * c["quad.integrate_line.panels"],
            "quad.integrate_line.self_s": self.self_time["quad.integrate_line"],
            "quad.integrate_line.integrand_s": inc[INTEGRAND],
            "quad.integrate_line.errors": c["quad.integrate_line.errors"],
            "quad.hermite_value.calls": c["quad.hermite_value"],
            "quad.hermite_value.s": inc["quad.hermite_value"],
            "quad.compatibility_form.calls": c["quad.compatibility_form"],
            "quad.state_overlaps.calls": c["quad.state_overlaps"],
            "quad.biorthonormality_matrix.s":
                inc["quad.biorthonormality_matrix"],
            "bicoherent.PairingSeries.created": c["bicoherent.PairingSeries"],
            "bicoherent.PairingSeries.s": inc["bicoherent.PairingSeries"],
            "bicoherent.eigen_relation_residual.s":
                inc["bicoherent.eigen_relation_residual"],
            "bicoherent.resolution_of_identity.s":
                inc["bicoherent.resolution_of_identity"],
        })
        return out

    @staticmethod
    def unit(name: str) -> str:
        if name.endswith((".s", "_s")):
            return "s"
        if name == "quad.integrate_line.evals":
            return "computed_count"
        return "count"
