"""Run a CLI command in a child process with a cap on its address space.

A command whose memory grows without bound then fails inside the cap
(numpy raises MemoryError) instead of waking the machine's OOM killer,
and a command that hangs is killed at its timeout.  The result carries
the child's exit code, its output streams and its own peak resident set.

    run = run_cli(["check", "--config", "run.ini"], memory_mb=1000)
    assert run.code == 1 and run.peak_rss_mb < 300
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


@dataclass
class ChildRun:
    code: int  # the exit code, or -signal where a signal ended the child
    stdout: str
    stderr: str
    peak_rss_mb: float
    timed_out: bool


def run_cli(argv, *, memory_mb: int = 1000, timeout: float = 120.0,
            cwd=None) -> ChildRun:
    """``python -m pseudobosons *argv`` with the package under ``src/``,
    one BLAS thread and an address space of at most ``memory_mb``; killed
    after ``timeout`` seconds."""
    limit = memory_mb * 2**20

    def cap():  # runs in the child, before it starts python
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pseudobosons", *map(str, argv)],
            stdout=out, stderr=err, env=env, cwd=cwd, preexec_fn=cap)
        # os.wait4 reaps the child with its own resource usage
        deadline = time.monotonic() + timeout
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                timed_out = True
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        streams = [f.read().decode("utf-8", "replace") for f in (out, err)]
    return ChildRun(proc.returncode, *streams, usage.ru_maxrss / 1024.0,
                    timed_out)
