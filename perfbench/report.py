"""Every workload, untraced and traced, in one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workloads a,b]

Prints each end-to-end metric by name and unit with its sample count,
the median op time and loop-average rates the report carries, the wrong
verdicts and error rate, the tracing overhead (traced minus untraced
median op time), every per-layer metric, and the share of op time each
group of layers takes in the traced run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spread import run_once

ROOT = Path(__file__).resolve().parent.parent

#: layer groups compared for the dominant-layer predictions (seconds per cycle);
#: parsing is left out because its replay overlaps problemfile.load.  The
#: groups overlap where a replay sits inside another group: problem
#: validation inside files and constructors, compile and eval inside order
#: estimates; of the four workloads only `corpus` has such ops
GROUPS = {
    "symbolic build": ("operators.problem_s", "operators.residual_s",
                       "operators.scale_terms_s", "tape.compile_s"),
    "evaluation": ("backends.eval_s",),
    "  of which wp": ("elliptic.wp_many_s",),
    "sample + reduce": ("verify.sample_s", "verify.reduce_s"),
    "files": ("problemfile.load_s",),
    "constructors": ("construct.build_s", "periodic.generate_s"),
    "order estimate": ("verify.order_s",),
}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    for workload in args.workloads.split(","):
        plain = run_once(workload, args.seed, args.seconds, trace=0)
        traced = run_once(workload, args.seed, args.seconds, trace=1)
        rep, res = plain["report"], plain["result"]
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, {rep['cycles']} cycles "
              f"of {rep['ops_per_cycle']} ops)")
        print(f"  wrong_verdicts {rep['wrong_verdicts']}  error_rate {rep['error_rate']:.4f}  "
              f"attempted {rep['attempted']}  correct {res['correct']}")
        for name, m in res["metrics"].items():
            note = f"  (p{rep['tail_percentile']:.2f})" if name == "verdict_ms_tail" else ""
            print(f"  {name:<20} {m['value']:14.6g} {m['unit']:<6} n={rep['samples'][name]}{note}")
        print(f"  {'verdict_ms_p50':<20} {rep['verdict_ms_p50']:14.6g} ms     n={rep['attempted']}"
              "  (reported, not gated)")
        for name in ("loop_verdicts_per_s", "loop_points_per_s"):
            print(f"  {name:<20} {rep[name]:14.6g} 1/s    (loop average, not gated)")
        layer = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        overhead = layer["trace.verdict_ms_p50"] - rep["verdict_ms_p50"]
        print(f"  tracing overhead: {overhead:+.4g} ms on the median op "
              f"(traced {layer['trace.verdict_ms_p50']:.4g} ms)")
        print(f"  traced: wrong_verdicts {traced['report']['wrong_verdicts']}  "
              f"error_rate {traced['report']['error_rate']:.4f}")
        for name, m in traced["result"]["metrics"].items():
            print(f"    {name:<28} {m['value']:14.6g} {m['unit']}")
        total = sum(layer[k] for group, names in GROUPS.items() if group != "  of which wp"
                    for k in names)
        if total > 0:
            print("  share of traced layer time per cycle:")
            for group, names in GROUPS.items():
                share = sum(layer[k] for k in names) / total
                print(f"    {group:<16} {100 * share:6.1f} %")
        else:
            cmd = layer["cli.interpreter_s"] + layer["cli.import_s"] + layer["cli.command_s"]
            for k in ("cli.interpreter_s", "cli.import_s", "cli.command_s"):
                print(f"    {k:<16} {100 * layer[k] / cmd:6.1f} % of a command")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
