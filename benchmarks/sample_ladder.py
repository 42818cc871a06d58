"""Time one check and measure its memory on a sample-count ladder of 1e2 .. 1e6 points.

For example1, example6 and the cubic Fermat pair h = z1 + z2/2 (built,
guarded and toleranced as the `fermat` command does), one JSON line per
sample count: the wall time of one `check_residual` call, the tracemalloc
peak of a second, identical call, and the exact `repr` of its report.  A
check samples, evaluates and reduces one block of points at a time, so
the peak should read the same from 1e4 points on:

    PYTHONPATH=src python benchmarks/sample_ladder.py
    PYTHONPATH=src python benchmarks/sample_ladder.py --max-samples 10000
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

from fermat_pdde import (
    PDDEProblem,
    SamplingPolicy,
    check_residual,
    construct_fermat_pair,
    load_problem,
    parse,
    residual,
    scale_terms,
)
from fermat_pdde.expr import Wp

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
LADDER = (100, 1_000, 10_000, 100_000, 1_000_000)


def cases():
    """(name, residual, scale terms, guards, base policy, n) per ladder case."""
    for name in ("example1", "example6"):
        lp = load_problem(FIXTURES / f"{name}.json")
        yield name, residual(lp.problem, lp.f), scale_terms(lp.problem, lp.f), None, lp.policy, lp.problem.n
    h = parse("z1 + z2/2", 2)
    f, g = construct_fermat_pair("cubic", h)
    problem = PDDEProblem(kind="fermat", n=2, m1=3, g=g)
    yield ("cubic:z1 + z2/2", residual(problem, f), scale_terms(problem, f), [(Wp(h), 0.1)],
           SamplingPolicy(tol=1e-7), 2)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-samples", type=int, default=LADDER[-1])
    args = ap.parse_args()
    for name, res, scales, guards, base, n in cases():
        check_residual(res, scales, base, n, guards=guards)  # warm: wp context, interned nodes
        for samples in (s for s in LADDER if s <= args.max_samples):
            policy = replace(base, samples=samples)
            t0 = time.perf_counter()
            check_residual(res, scales, policy, n, guards=guards)
            wall = time.perf_counter() - t0
            tracemalloc.start()
            try:
                rep = check_residual(res, scales, policy, n, guards=guards)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(json.dumps({"case": name, "samples": samples, "wall_s": round(wall, 4),
                              "peak_mib": round(peak / 2**20, 3), "report": repr(rep)}), flush=True)


if __name__ == "__main__":
    main()
