"""Dump the verification report of every fixture over a seed x radius sweep.

One JSON line per (fixture, seed, radius) with the verdict, the point
counts and the exact `repr` of max_abs/max_rel, then a SHA-256 digest of
those lines.  It uses only the public API, so running it on two commits
and comparing the outputs (or just the digests) shows whether a change
moved any report by a single bit:

    PYTHONPATH=src python benchmarks/fixture_reports.py > reports.jsonl
    PYTHONPATH=src python benchmarks/fixture_reports.py --samples 20000 --seeds 0-4
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import replace
from pathlib import Path

from fermat_pdde import check_residual, load_problem, residual, scale_terms

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-99", help="inclusive range a-b")
    ap.add_argument("--radii", default="2,4,8")
    ap.add_argument("--samples", type=int, default=200)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    radii = [float(r) for r in args.radii.split(",")]

    digest = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.json")):
        lp = load_problem(path)
        res = residual(lp.problem, lp.f)
        scales = scale_terms(lp.problem, lp.f)
        for seed in range(lo, hi + 1):
            for radius in radii:
                policy = replace(lp.policy, seed=seed, radius=radius, samples=args.samples)
                rep = check_residual(res, scales, policy, lp.problem.n)
                line = json.dumps({
                    "fixture": path.stem, "seed": seed, "radius": radius,
                    "verdict": rep.verdict, "tested": rep.points_tested,
                    "skipped": rep.points_skipped, "max_abs": repr(rep.max_abs_residual),
                    "max_rel": repr(rep.max_rel_residual),
                })
                digest.update(line.encode() + b"\n")
                print(line)
    print(json.dumps({"sha256": digest.hexdigest()}))


if __name__ == "__main__":
    main()
