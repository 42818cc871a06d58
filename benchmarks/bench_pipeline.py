"""Time the pipeline layer by layer and print one strict-JSON record of it.

The record has a header and four sections:

* ``fg_rung``: the rung of perfbench's fg-ladder workload (f =
  exp(z1+..+zn)*prod(zj+1) + sin(z1*z2), operator d^(1,...,1), 2000
  points), cold, per phase: parse (f and beta), residual, scale_terms,
  compile (`compile_expr` of the check's roots on its own),
  check_residual (which compiles them again) and total (every phase but
  compile).  Each repeat follows a full collection and parses afresh, so
  no expression or derivative memo survives from the one before; building
  the problem belongs to no phase.  With the minimum and median of the
  repeats come the distinct nodes under the check's roots, the check
  tape's instructions and slots, and the intern entries the residual added.
* ``sample_ladder``: `check_residual` of example1, example6 and the cubic
  Fermat pair h = z1 + z2/2 (built, guarded and toleranced as the
  `fermat` command does) per point count: the wall time and minor faults
  of one call, the tracemalloc peak of a second and the `repr` of its
  report.  A check works one block of points at a time, so the peak
  reads the same from 1e4 points on.
* ``minor_faults``: a fresh array the allocator cannot serve from memory
  it already holds costs one minor page fault per 4 KiB page touched, so
  fault counts show per-block allocations that a timing hides in its
  noise.  First per op of perfbench's corpus and bulk-sample op lists
  (seed 1, untraced): one warm cycle, then the mean over cycles.  Then
  per call alone: the fg n = 7 check, example1 at 200 and at the bulk
  points, the cubic pair at the bulk points, one `is_identically_zero`
  probe and `estimate_order` of the example1..3 candidates.  Each call
  runs once untimed (interned nodes, memos, the wp context), then the
  mean over repeats, then the tracemalloc peak of one more.  A count
  depends on what ran before it in the process, so this section runs
  first: the ops in the mix of a fresh benchmark process.
* ``cold_start``: fresh `python -m fermat_pdde --format machine`
  processes, one BLAS thread, the tree's `src` as PYTHONPATH.  Each round
  runs every command once per `--src` tree, in an order that alternates
  from round to round, so a drift of the host's speed reaches every tree
  alike.  Per tree: the median and quartiles of each command's wall time,
  the mean `-X importtime` self-time of each `fermat_pdde` module in one
  more `verify` per round (null for a module not imported), and the 8
  fixtures verified by one process against 8 processes (null when the
  tree's `verify` takes one file).

Faults are `getrusage(RUSAGE_SELF).ru_minflt`, this process only.  The
header holds what the numbers depend on, `sys.dont_write_bytecode`
among them: when it is on and no `__pycache__` exists, every child
compiles the package from source.

    PYTHONPATH=src python benchmarks/bench_pipeline.py > BENCH_pipeline.json
    PYTHONPATH=src python benchmarks/bench_pipeline.py --quick --src src --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from fermat_pdde import (
    Const,
    LinearPDOperator,
    PDDEProblem,
    SamplingPolicy,
    check_residual,
    construct_fermat_pair,
    estimate_order,
    load_problem,
    parse,
    residual,
    scale_terms,
)
from fermat_pdde import expr as ex
from fermat_pdde.expr import Expr, Wp
from fermat_pdde.tape import compile_expr
from fermat_pdde.verify import is_identically_zero

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "perfbench"))
from procs import SINGLE_THREAD  # noqa: E402
from run import _commit  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import build_ops, fg_texts  # noqa: E402

LADDER = (100, 1_000, 10_000, 100_000, 1_000_000)
#: label -> CLI arguments after `--format machine`; the fixtures use no wp
COMMANDS = {"verify": ["verify", "fixtures/example4.json"], "order": ["order", "fixtures/example4.json"]}
FIXTURE_ARGS = sorted(f"fixtures/{p.name}" for p in FIXTURES.glob("*.json"))


class Sizes(NamedTuple):
    fg: tuple[int, ...]  # dimensions n of the fg rung
    fg_repeats: int
    ladder: tuple[int, ...]  # point counts of the sample ladder
    bulk: int  # points of the bulk checks alone
    call_repeats: int  # calls per case alone
    cycles: int  # perfbench cycles per workload
    rounds: int  # cold-start rounds


FULL = Sizes(tuple(range(2, 9)), 7, LADDER, 100_000, 20, 10, 10)
#: the sizes CI runs
QUICK = Sizes((3, 12), 1, LADDER[:3], 5000, 1, 1, 1)


def measure(call) -> tuple[float, int, object]:
    """Wall seconds, minor faults and the result of one call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = call()
    wall = time.perf_counter() - t0
    return wall, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, out


def traced_peak(call) -> tuple[int, object]:
    """tracemalloc's peak in bytes over one call, and its result."""
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def simd_target() -> str:
    """numpy's highest dispatched SIMD target this process enables, else its baseline."""
    try:
        from numpy._core import _multiarray_umath as umath  # numpy >= 2
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (enabled or umath.__cpu_baseline__ or ["none"])[-1]


def header(quick: bool) -> dict:
    return {"commit": _commit(), "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "simd": simd_target(), "dont_write_bytecode": sys.dont_write_bytecode,
            "quick": quick}


def fg_problem(beta: Expr, n: int) -> PDDEProblem:
    """The fg equation of the rung: operator d^(1,...,1), alpha = 1, m1 = 2, m2 = 1, c = i/2."""
    return PDDEProblem(kind="fg", n=n, m1=2, m2=1, c=(0.5j,) * n, alpha=Const(1.0),
                       beta=beta, operator=LinearPDOperator(n=n, coeffs={(1,) * n: Const(1.0)}))


def fg_once(n: int, seed: int) -> tuple[dict[str, float], dict[str, int]]:
    """The phase times of one cold rung, and its tape and intern counts."""
    f_text, beta_text = fg_texts(n)
    s = {}
    s["parse"], _, (f, beta) = measure(lambda: (parse(f_text, n), parse(beta_text, n)))
    problem = fg_problem(beta, n)
    before = len(ex._TABLE)
    s["residual"], _, res = measure(lambda: residual(problem, f))
    interned = len(ex._TABLE) - before
    s["scale_terms"], _, scales = measure(lambda: scale_terms(problem, f))
    s["compile"], _, tape = measure(lambda: compile_expr([res, *scales]))
    policy = SamplingPolicy(samples=2000, seed=seed)
    s["check_residual"], _, rep = measure(lambda: check_residual(res, scales, policy, n))
    if not rep.passed:
        raise SystemExit(f"fg n={n}: the rung should pass, got max_rel {rep.max_rel_residual!r}")
    s["total"] = sum(v for k, v in s.items() if k != "compile")
    return s, {"distinct_nodes": len(ex._postorder([res, *scales])), "instructions": len(tape.ops),
               "slots": tape.n_slots, "intern_entries": interned}


def fg_rung(dims: tuple[int, ...], repeats: int) -> list[dict]:
    rows = []
    for n in dims:
        runs = []
        for seed in range(repeats):
            gc.collect()
            runs.append(fg_once(n, seed))
        ms = {p: [r[p] * 1e3 for r, _ in runs] for p in runs[0][0]}
        # the first repeat's counts: each repeat builds the same rung cold
        rows.append({"n": n, "repeats": repeats, **runs[0][1],
                     "ms": {p: {"min": round(min(v), 3), "median": round(statistics.median(v), 3)}
                            for p, v in ms.items()}})
    return rows


def ladder_cases() -> dict[str, tuple]:
    """name -> (residual, scale terms, guards, base policy, n) of the sampled checks."""
    cases = {}
    for name in ("example1", "example6"):
        lp = load_problem(FIXTURES / f"{name}.json")
        cases[name] = residual(lp.problem, lp.f), scale_terms(lp.problem, lp.f), None, lp.policy, lp.problem.n
    h = parse("z1 + z2/2", 2)
    f, g = construct_fermat_pair("cubic", h)
    problem = PDDEProblem(kind="fermat", n=2, m1=3, g=g)
    cases["cubic:z1 + z2/2"] = (residual(problem, f), scale_terms(problem, f), [(Wp(h), 0.1)],
                                SamplingPolicy(tol=1e-7), 2)
    return cases


def check_call(case: tuple, samples: int):
    res, scales, guards, policy, n = case
    policy = replace(policy, samples=samples)
    return lambda: check_residual(res, scales, policy, n, guards=guards)


def sample_ladder(ladder: tuple[int, ...]) -> list[dict]:
    rows = []
    for name, case in ladder_cases().items():
        check_call(case, ladder[0])()  # warm: wp context, interned nodes
        for samples in ladder:
            call = check_call(case, samples)
            wall, faults, _ = measure(call)
            peak, rep = traced_peak(call)
            rows.append({"case": name, "samples": samples, "wall_s": round(wall, 4), "minor_faults": faults,
                         "peak_mib": round(peak / 2**20, 3), "report": repr(rep)})
    return rows


def op_faults(cycles: int) -> list[dict]:
    tracer = NullTracer()
    rows = []
    for workload in ("corpus", "bulk-sample"):
        ops = build_ops(workload, 1)
        for op in ops:
            op.run(tracer)
        total = dict.fromkeys((op.label for op in ops), 0)
        for _ in range(cycles):
            for op in ops:
                total[op.label] += measure(partial(op.run, tracer))[1]
        rows += [{"case": f"{workload} {label}", "minor_faults": count / cycles} for label, count in total.items()]
    return rows


def fault_calls(bulk: int):
    """(name, call) per case; each call makes one verdict or one estimate."""
    f_text, beta_text = fg_texts(7)
    f = parse(f_text, 7)
    problem = fg_problem(parse(beta_text, 7), 7)
    res, scales = residual(problem, f), scale_terms(problem, f)
    yield "fg n=7 check, 2000 points", lambda: check_residual(res, scales, SamplingPolicy(samples=2000), 7)
    cases = ladder_cases()
    for samples in (200, bulk):
        yield f"example1 check, {samples} points", check_call(cases["example1"], samples)
    yield f"cubic pair check, {bulk} points", check_call(cases["cubic:z1 + z2/2"], bulk)
    ex1_res, _, _, _, ex1_n = cases["example1"]
    yield "is_identically_zero probe, example1 residual", lambda: is_identically_zero(ex1_res, ex1_n)
    for name in ("example1", "example2", "example3"):
        lp = load_problem(FIXTURES / f"{name}.json")
        yield f"estimate_order {name}, 200 directions", lambda lp=lp: estimate_order(lp.f, lp.problem.n)


def call_faults(bulk: int, repeats: int) -> list[dict]:
    rows = []
    for name, call in fault_calls(bulk):
        call()
        mean = sum(measure(call)[1] for _ in range(repeats)) / repeats
        peak, _ = traced_peak(call)
        rows.append({"case": name, "minor_faults": mean, "peak_kib": round(peak / 2**10, 1)})
    return rows


def child(src: Path, argv: list[str], flags: tuple[str, ...] = (), strict: bool = True) -> tuple[float | None, str]:
    """Wall time of one `fermat_pdde` process on tree `src`, and its stderr.

    A child that exits 2 (malformed input) stops the script, or when not
    `strict` gives no wall time: a tree whose `verify` takes one file
    rejects the batch.
    """
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(src)}
    wall, _, proc = measure(lambda: subprocess.run(
        [sys.executable, *flags, "-m", "fermat_pdde", "--format", "machine", *argv], cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
    if proc.returncode not in (0, 1):
        if not strict:
            return None, proc.stderr
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return wall, proc.stderr


def self_times(stderr: str) -> dict[str, float]:
    """Module -> self-time in seconds, from `-X importtime` lines of fermat_pdde modules."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            self_us, _, name = line[len("import time:"):].split("|")
            if name.strip().startswith("fermat_pdde"):
                out[name.strip()] = int(self_us) * 1e-6
    return out


def quartiles_ms(values: list[float]) -> dict[str, float]:
    qs = values * 3 if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")
    return {k: round(q * 1e3, 2) for k, q in zip(("q1", "median", "q3"), qs)}


def cold_start(trees: list[Path], rounds: int) -> list[dict]:
    walls = {(t, c): [] for t in trees for c in [*COMMANDS, "batch", "separate"]}
    imports = {t: [] for t in trees}
    for k in range(rounds):
        jobs = [(t, c) for t in trees for c in COMMANDS]
        for t, c in jobs[::-1] if k % 2 else jobs:
            walls[t, c].append(child(t, COMMANDS[c])[0])
        for t in trees[::-1] if k % 2 else trees:
            imports[t].append(self_times(child(t, COMMANDS["verify"], ("-X", "importtime"))[1]))
            walls[t, "batch"].append(child(t, ["verify", *FIXTURE_ARGS], strict=False)[0])
            walls[t, "separate"].append(sum(child(t, ["verify", f])[0] for f in FIXTURE_ARGS))

    modules = sorted({m for t in trees for run in imports[t] for m in run})
    rows = []
    for t in trees:
        seen = {m: [run[m] for run in imports[t] if m in run] for m in modules}
        batch = walls[t, "batch"]
        rows.append({
            "src": os.path.relpath(t, ROOT), "rounds": rounds,
            "commands": {c: {"argv": " ".join(argv), "wall_ms": quartiles_ms(walls[t, c])}
                         for c, argv in COMMANDS.items()},
            "import_self_ms": {**{m: round(statistics.mean(v) * 1e3, 2) if v else None for m, v in seen.items()},
                               "total": round(sum(sum(v) for v in seen.values()) / rounds * 1e3, 2)},
            "fixtures": {"files": len(FIXTURE_ARGS),
                         "one_process_s": None if None in batch else round(statistics.median(batch), 3),
                         "processes_s": round(statistics.median(walls[t, "separate"]), 3)}})
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="the small sizes CI runs")
    ap.add_argument("--src", action="append", type=Path,
                    help="source tree for cold start, repeatable (default: this checkout's src)")
    args = ap.parse_args()
    sizes = QUICK if args.quick else FULL
    trees = [p.resolve() for p in (args.src or [ROOT / "src"])]
    faults = {"seed": 1, "cycles": sizes.cycles, "ops": op_faults(sizes.cycles),
              "bulk": sizes.bulk, "repeats": sizes.call_repeats,
              "calls": call_faults(sizes.bulk, sizes.call_repeats)}
    doc = {"header": header(args.quick), "fg_rung": fg_rung(sizes.fg, sizes.fg_repeats),
           "sample_ladder": sample_ladder(sizes.ladder), "minor_faults": faults,
           "cold_start": cold_start(trees, sizes.rounds)}
    json.dump(doc, sys.stdout, indent=1, allow_nan=False)
    print()


if __name__ == "__main__":
    main()
