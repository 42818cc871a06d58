"""Checkout layout, the shared clock, and one-at-a-time child processes."""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from pathlib import Path

#: root of the checkout: the directory that holds perfbench/, src/ and fixtures/
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
CHILD = Path(__file__).resolve().parent / "child.py"

WORKLOADS = ("corpus", "fg-ladder", "bulk-sample", "cli")

#: the benchmark runs no worker threads.  numpy's OpenBLAS otherwise starts
#: one per core at import, and their spinning slowed each fresh interpreter
#: by about 0.1 s of a 0.3 s start on 2 cores, by an amount that varied with
#: the host's load
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1"}

#: a child that has not exited after this many seconds is killed and counted as an error
CHILD_TIMEOUT_S = 120.0


def now() -> float:
    """CLOCK_MONOTONIC in seconds: one clock shared with child processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def missing_sources() -> list[str]:
    """Paths the benchmark needs from the checkout that are absent."""
    need = [SRC / "fermat_pdde" / "__init__.py", FIXTURES / "example1.json"]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def child_env() -> dict:
    """Environment for children: one BLAS thread, the checkout's `src` first on the import path."""
    env = {**os.environ, **SINGLE_THREAD}
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class ChildTimeout(RuntimeError):
    pass


def run_child(argv: list[str]):
    """Run one child to completion in the checkout root.

    Returns (exit code, combined stdout/stderr text, spawn time, reap
    time, peak RSS in KiB).  Both times are on the `now()` clock; the reap
    time is taken after the child has exited and been waited for.
    """
    start = now()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    chunks = []
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = start + CHILD_TIMEOUT_S - now()
                if left <= 0 or not sel.select(left):
                    proc.kill()
                    raise ChildTimeout(f"child {argv!r} still running after {CHILD_TIMEOUT_S:.0f} s")
                data = os.read(proc.stdout.fileno(), 1 << 16)
                if not data:
                    break
                chunks.append(data)
    finally:
        # wait4 reaps the child and gives its own peak RSS; setting
        # returncode tells Popen the child is already reaped
        _, status, usage = os.wait4(proc.pid, 0)
        end = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    text = b"".join(chunks).decode("utf-8", "replace")
    return proc.returncode, text, start, end, usage.ru_maxrss
