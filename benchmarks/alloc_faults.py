"""Minor page faults and tracemalloc peak per call, for the calls a verdict is made of.

A fresh array the allocator cannot serve from memory it already holds
costs one minor page fault per 4 KiB page touched, so fault counts show
per-block allocations that a timing hides in its noise.  Faults are
counted with `getrusage(RUSAGE_SELF).ru_minflt`, this process only (the
script starts no thread or child).  Two parts, one JSON line per case:

* the perfbench `corpus` and `bulk-sample` op lists (seed `--seed`),
  untraced, first, as in a fresh benchmark process: one warm cycle, then
  `--cycles` cycles, with the mean faults per op.  An op's count depends
  on what the ops before it left in the allocator, so this is the count
  in the mix the benchmark runs.
* the calls alone: one fg check (n = 7 at 2000 points, the perfbench
  fg-ladder rung), example1 checks at 200 and at `--bulk` points, the
  cubic Fermat pair at `--bulk` points, one `is_identically_zero` probe
  and `estimate_order` of the example1..3 candidates at 200 directions.
  Each runs once untimed (interned nodes, memos, the wp context), then
  `--repeats` times in a row for the mean fault count, then once under
  tracemalloc for its peak.

    PYTHONPATH=src python benchmarks/alloc_faults.py
    PYTHONPATH=src python benchmarks/alloc_faults.py --bulk 5000 --repeats 1 --cycles 1
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

from fermat_pdde import (
    SamplingPolicy,
    check_residual,
    estimate_order,
    load_problem,
    parse,
    residual,
    scale_terms,
)
from fermat_pdde.verify import is_identically_zero
from fg_rung import fg_problem, fg_texts
from sample_ladder import cases as ladder_cases

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def calls(bulk: int):
    """(name, call) per case; each call makes one verdict or one estimate."""
    f_text, beta_text = fg_texts(7)
    f = parse(f_text, 7)
    problem = fg_problem(parse(beta_text, 7), 7)
    res, scales = residual(problem, f), scale_terms(problem, f)
    yield "fg n=7 check, 2000 points", lambda: check_residual(res, scales, SamplingPolicy(samples=2000), 7)
    ladder = {name: case for name, *case in ladder_cases()}
    res, scales, _, policy, n = ladder["example1"]
    for samples in (200, bulk):
        p = replace(policy, samples=samples)
        yield f"example1 check, {samples} points", lambda p=p: check_residual(res, scales, p, n)
    cres, cscales, guards, cpolicy, cn = ladder["cubic:z1 + z2/2"]
    cp = replace(cpolicy, samples=bulk)
    yield f"cubic pair check, {bulk} points", lambda: check_residual(cres, cscales, cp, cn, guards=guards)
    yield "is_identically_zero probe, example1 residual", lambda: is_identically_zero(res, n)
    for name in ("example1", "example2", "example3"):
        lp = load_problem(FIXTURES / f"{name}.json")
        yield f"estimate_order {name}, 200 directions", lambda lp=lp: estimate_order(lp.f, lp.problem.n)


def faults(call) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bulk", type=int, default=100_000, help="points of the bulk checks")
    ap.add_argument("--repeats", type=int, default=20, help="calls per case alone")
    ap.add_argument("--cycles", type=int, default=10, help="perfbench cycles per workload")
    ap.add_argument("--seed", type=int, default=1, help="perfbench workload seed")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import NullTracer
    from workloads import build_ops

    tracer = NullTracer()
    for workload in ("corpus", "bulk-sample"):
        ops = build_ops(workload, args.seed)
        for op in ops:
            op.run(tracer)
        total = {op.label: 0 for op in ops}
        for _ in range(args.cycles):
            for op in ops:
                total[op.label] += faults(partial(op.run, tracer))
        for label, count in total.items():
            print(json.dumps({"case": f"{workload} {label}", "minor_faults": count / args.cycles}), flush=True)

    for name, call in calls(args.bulk):
        call()
        mean = sum(faults(call) for _ in range(args.repeats)) / args.repeats
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(json.dumps({"case": name, "minor_faults": mean, "peak_kib": round(peak / 2**10, 1)}),
              flush=True)


if __name__ == "__main__":
    main()
