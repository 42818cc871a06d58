"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads corpus,cli] [--seeds 1-10] [--seconds S]

Runs `run.py` once per seed and workload, one run at a time, and prints
for every end-to-end metric its median, quartiles and the spread
(third minus first quartile, as a share of the median), next to the
metric's bound in BENCHMARK.json.  A later change compares its medians
with the parent's under the same settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = (0.0, "")
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run_once(workload, seed, args.seconds)
            runs.append(r)
            rep, res = r["report"], r["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"wrong={rep['wrong_verdicts']} errors={rep['errors']}", flush=True)
        print(f"\n{workload}: {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(vals)
            unit = runs[0]["result"]["metrics"][name]["unit"]
            flag = "" if sp < bound / 3 else ("  over bound/3" if sp <= bound else "  OVER BOUND")
            worst = max(worst, (sp / bound, f"{name} on {workload}"))
            print(f"{workload}: {name:<16} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.4f} {bound:6.2f} {unit}{flag}")
        print(flush=True)
    print(f"largest spread as a share of its bound: {worst[0]:.3f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
