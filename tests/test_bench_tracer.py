"""The benchmark's tracer must still find every boundary it wraps.

``bench/tracer.py`` patches package functions by their bindings and
methods through their class ``__dict__``.  A renamed function, or a
method that is no longer defined on its class, would otherwise break the
benchmark only when the benchmark runs.
"""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from pseudobosons import bicoherent, cli, model, spectral, states

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer_cls():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return tracer.Tracer


@pytest.fixture
def bench_run():
    """``bench/run.py`` as a module, with ``bench/`` on the path for the
    modules it imports when it runs; its import-time changes to the
    environment are undone."""
    environ = dict(os.environ)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run",
                                                      BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run
    finally:
        sys.path.remove(str(BENCH))
        os.environ.clear()
        os.environ.update(environ)


def _bindings():
    return (model.apply_ladder, states.apply_ladder, spectral.apply_ladder,
            bicoherent.apply_ladder, states.StateFamily.__dict__["jet"],
            spectral.HamiltonianCoeffs.__dict__["values"])


def test_install_traces_the_layers_and_restore_undoes_it(tracer_cls):
    originals = _bindings()
    t = tracer_cls()
    try:
        t.install()
        patched = _bindings()
        assert all(p is not o for p, o in zip(patched, originals))
        m = model.build_builtin("example2")
        states.fix_normalization(m)
        grid = np.linspace(-2.0, 2.0, 21)
        states.verify_ladder(states.StateFamily(m, "phi", max_n=2),
                             states.StateFamily(m, "psi", max_n=2), 1, grid)
        spectral.eigen_residual(m, "H", 1, grid)
        for name in ("model.apply_ladder", "states.StateFamily.jet",
                     "states.verify_ladder", "spectral.eigen_residual",
                     "spectral.HamiltonianCoeffs.values",
                     "states.fix_normalization", "quad.integrate_line"):
            assert t.counts[name] > 0, name
    finally:
        t.restore()
    assert all(b is o for b, o in zip(_bindings(), originals))


@pytest.mark.parametrize("workload", ["demo_check", "demo_bicoherent",
                                      "general_check"])
def test_workload_records_every_expected_boundary(bench_run, tracer_cls,
                                                  tmp_path, workload):
    # the traced benchmark gates each workload on these boundaries, so a
    # dropped one fails here too, not only under --trace 1
    from workloads import WORKLOADS

    runner = bench_run.Runner(cli, WORKLOADS[workload], 13, tmp_path)
    t = tracer_cls()
    try:
        t.install()
        runner.command(t.command)
    finally:
        t.restore()
    assert runner.failed == []
    missing = [name for name in bench_run.EXPECTED_BOUNDARIES[workload]
               if t.counts[name] == 0]
    assert missing == []
