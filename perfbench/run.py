"""Known-answer benchmark of the fermat-pdde pipeline.

    python3 perfbench/run.py --workload {corpus,fg-ladder,bulk-sample,cli}
                             --seed N --seconds S --trace {0,1}

One process, one thread, a closed loop with one client: the next op
starts when the previous one has finished.  Child processes (the set-up
measurements and the `cli` workload's commands) run one at a time.  The
run repeats whole cycles of the workload's op list until `--seconds`
have passed, checks every answer against its known value, and prints a
header line, a report line and, last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics and `--trace 1` the per-layer
metrics of BENCHMARK.json.  Each run also writes its op times, and when
traced every span, to perfbench/results/.  See perfbench/README.md for
the definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

from procs import CHILD, FIXTURES, ROOT, SINGLE_THREAD, SRC, WORKLOADS, missing_sources, now, run_child

RESULTS = ROOT / "perfbench" / "results"
#: fresh interpreters timed per run for setup_s (after one discarded warm-up),
#: spread evenly over the loop: a fresh interpreter's cost shifts with the
#: host's load over seconds to minutes, and children started back to back
#: all caught the same moment
SETUP_RUNS = 5
#: the tail percentile leaves at least this many samples beyond it
TAIL_BEYOND = 10
#: and is at most this percentile: on `corpus` (about 6000 ops a run) the
#: 10th-slowest op is decided by the handful of ~10 ms gen-2 garbage
#: collections that land in a run, which made it swing by a quarter
TAIL_CAP = 99.0


def _commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout or without git."""
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over the package sources and fixtures, which identifies the code measured."""
    h = hashlib.sha256()
    for p in sorted([*(SRC / "fermat_pdde").glob("*.py"), *FIXTURES.glob("*.json")]):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def header(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    from fermat_pdde import default_backend

    numba = importlib.util.find_spec("numba") is not None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "backend": default_backend(),
        "numba": "importable" if numba else "numba not importable: numpy path only",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "load": "closed loop, 1 client, 1 thread; child processes one at a time",
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def setup_child(workload: str, seed: int) -> dict:
    """One fresh interpreter: import, default_context() and one warm-up op."""
    code, text, start, _, _ = run_child([str(CHILD), "setup", workload, str(seed)])
    if code != 0:
        raise RuntimeError(f"set-up child exited with {code}:\n{text}")
    stamps = json.loads(text.splitlines()[-1])
    return {
        "setup_s": stamps["done"] - start,
        "interpreter_s": stamps["start"] - start,
        "import_s": stamps["imported"] - stamps["start"],
        "command_s": stamps["done"] - stamps["imported"],
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, up to TAIL_CAP, with TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return 100.0, s[-1]
    k = min(len(s) - TAIL_BEYOND, math.ceil(len(s) * TAIL_CAP / 100)) - 1
    return 100.0 * (k + 1) / len(s), s[k]


def sustained_cycle_s(cycle_s: list[float]) -> float:
    """The 90th-percentile cycle time: nine cycles in ten run at least this fast."""
    if len(cycle_s) < 2:
        return cycle_s[0]
    return statistics.quantiles(cycle_s, n=10, method="inclusive")[-1]


def end_to_end(times, points, cycle_s, loop_s, rss_kb, setup) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and for the report the median and loop averages.

    A shared host's core speed drifts by a quarter or more over tens of
    seconds, which moved the median op time and the loop-average rates of
    ten runs by up to 40% between their quartiles.  The slow end holds
    still, so the rates are taken at the 90th-percentile cycle time (each
    cycle runs every op once) and the latency gate is the tail.
    """
    cycle = sustained_cycle_s(cycle_s)
    pct, tail_s = tail(times)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setup), "s"),
        "verdict_ms_tail": (tail_s * 1e3, "ms"),
        "verdicts_per_s": (len(times) / len(cycle_s) / cycle, "1/s"),
        "points_per_s": (sum(points) / len(cycle_s) / cycle, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
    }
    report = {
        "samples": {"setup_s": len(setup), "verdict_ms_tail": len(times),
                    "verdicts_per_s": len(cycle_s), "points_per_s": len(cycle_s), "peak_rss_mb": 1},
        "tail_percentile": pct,
        "verdict_ms_p50": statistics.median(times) * 1e3,
        "loop_verdicts_per_s": len(times) / loop_s,
        "loop_points_per_s": sum(points) / loop_s,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, report


def per_layer(tracer, cycles: int, times, setup) -> dict:
    """The per-layer metrics of a traced run; see README.md for each definition."""
    from tracing import LAYER_SPANS

    secs, calls = tracer.layer_totals()
    c = tracer.counts
    m = {}
    for name in LAYER_SPANS:
        m[f"{name}_s"] = (secs[name] / cycles, "s/cycle")
        m[f"{name}_calls"] = (calls[name] / cycles, "count/cycle")
    m["verify.reduce_s"] = (tracer.reduce_s / cycles, "s/cycle")
    m["verify.skip_ratio"] = (c["verify.skipped"] / c["verify.samples"] if c["verify.samples"] else 0.0,
                              "ratio")
    for name in ("expr.tree_nodes", "expr.distinct_nodes", "tape.instructions",
                 "backends.lane_ops", "elliptic.wp_points"):
        m[name] = (c[name] / cycles, "count/cycle")
    checks = calls["verify.check"]
    m["tape.tapes_per_verdict"] = (c["tape.check_tapes"] / checks if checks else 0.0, "ratio")
    m["backends.lane_ops_per_s"] = (c["backends.lane_ops"] / secs["backends.eval"]
                                    if secs["backends.eval"] else 0.0, "1/s")
    m["backends.ok_ratio"] = (c["backends.ok_lanes"] / c["backends.lanes"] if c["backends.lanes"] else 0.0,
                              "ratio")
    # cli.* are medians per process: the workload's commands on `cli`, the
    # set-up children elsewhere
    procs = tracer.samples if tracer.samples else {
        f"cli.{k}": [r[k] for r in setup] for k in ("interpreter_s", "import_s", "command_s")}
    for k in ("interpreter_s", "import_s", "command_s"):
        m[f"cli.{k}"] = (statistics.median(procs[f"cli.{k}"]), "s")
    m["cli.processes"] = (len(procs["cli.command_s"]), "count")
    m["trace.verdict_ms_p50"] = (statistics.median(times) * 1e3, "ms")
    m["trace.spans"] = (len(tracer.spans) / cycles, "count/cycle")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """Run one workload, write its results file; returns (header, report, result)."""
    import tracing
    import workloads

    head = header(workload, seed, seconds, trace)
    ops = workloads.build_ops(workload, seed)
    setup_child(workload, seed)  # discarded: it fills the bytecode and page caches
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    ops[0].run(tracing.NullTracer())  # untimed warm-up op

    times, points, labels, rss, cycle_s, setup = [], [], [], [], [], []
    wrong, errors = 0, []
    gc_before = [g["collections"] for g in gc.get_stats()]
    loop_start = now()
    paused = 0.0  # time spent in set-up children, which the loop clock leaves out
    while True:
        while len(setup) < SETUP_RUNS and now() - loop_start - paused >= len(setup) * seconds / SETUP_RUNS:
            t0 = now()
            setup.append(setup_child(workload, seed))
            paused += now() - t0
        cycle_start = now()
        for op in ops:
            tracer.begin_op()
            t0 = now()
            try:
                out = op.run(tracer)
            except Exception as err:  # an op that raises is counted, and the loop goes on
                t1 = now()
                errors.append(f"{op.label}: {type(err).__name__}: {err}")
                points.append(0)
            else:
                t1 = now()
                wrong += not out.correct
                points.append(out.points)
                rss.append(out.rss_kb)
            times.append(t1 - t0)
            labels.append(op.label)
            tracer.run_deferred()
        cycle_s.append(now() - cycle_start)
        if now() - loop_start - paused >= seconds:
            break
    cycles = len(cycle_s)
    loop_s = now() - loop_start - paused
    while len(setup) < SETUP_RUNS:
        setup.append(setup_child(workload, seed))
    gc_runs = [g["collections"] - b for g, b in zip(gc.get_stats(), gc_before)]

    if workload == "cli":
        rss_kb = max(rss, default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        metrics = per_layer(tracer, cycles, times, setup)
        extra = {}
    else:
        metrics, extra = end_to_end(times, points, cycle_s, loop_s, rss_kb, setup)
    by_label: dict[str, list[float]] = {}
    for label, t in zip(labels, times):
        by_label.setdefault(label, []).append(t)
    report = {
        "attempted": len(times),
        "wrong_verdicts": wrong,
        "errors": len(errors),
        "error_rate": len(errors) / len(times),
        "cycles": cycles,
        "ops_per_cycle": len(ops),
        "loop_s": loop_s,
        "gc_collections_by_generation": gc_runs,
        **extra,
        "op_ms_p50": {k: statistics.median(v) * 1e3 for k, v in by_label.items()},
        "setup": setup,
        "error_messages": errors[:5],
    }
    result = {
        "correct": wrong == 0 and not errors,
        "attempted": len(times),
        "failed": wrong + len(errors),
        "metrics": metrics,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    doc = {"header": head, "report": report, "result": result,
           "ops": {"labels": labels, "times_s": times, "cycle_s": cycle_s}}
    if trace:
        doc["span_fields"] = ["op", "id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = tracer.spans
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(doc))
    return head, report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = missing_sources()
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    head, report, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"header": head}))
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
