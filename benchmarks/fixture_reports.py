"""Dump the verification report of every fixture and Fermat pair over a seed x radius sweep.

One JSON line per (fixture, seed, radius) with the verdict, the point
counts and the exact `repr` of max_abs/max_rel, then a SHA-256 digest of
those lines.  Then the same for the Fermat pairs, built, guarded and
toleranced by the `fermat` command itself (`--format machine`), with a
digest of their own: the fixtures use no wp, so their digest shows
whether a change moved a non-wp report by a single bit, while the pair
digest shows whether the wp-heavy cubic reports moved.  Running it on two
commits and comparing the outputs (or just the digests) tells which
reports changed.

Last come the solution families: every `construct` theorem, run through
the `construct` command (`--format machine`) with the seed as both the
generator and the sampling seed, and the m1 = 3 negative control, built
by `construct_cor1_m3_control`.  One line per report gives its verdict
and residual maxima; the digest covers the whole `construct` output for
t1-i and t1-ii, so it shows whether a change moved those solutions' text
or reports by a single bit.

A header line first names numpy and its highest enabled SIMD target:
the max_abs and max_rel bits, and so the three digests above, can move
with the target (numpy picks its loops by CPU).  Last comes a verdict
digest over the verdict, tested and skipped counts of every report line,
which should read the same on every target.

It also checks the verdicts: one count line per fixture, pair and family
goes to stderr, and the script exits 1 when a fixture's verdict differs
from its `expected_status` (`inconsistent` expects fail), a Fermat pair
or a theorem fails, or the control passes:

    PYTHONPATH=src python benchmarks/fixture_reports.py > reports.jsonl
    PYTHONPATH=src python benchmarks/fixture_reports.py --samples 20000 --seeds 0-4
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from bench_pipeline import simd_target
from fermat_pdde import (
    SamplingPolicy,
    check_residual,
    construct_cor1_m3_control,
    load_problem,
    make_periodic,
    residual,
    scale_terms,
    verify_problem,
)
from fermat_pdde.cli import main as cli_main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: (CLI kind, h, n): the corpus pairs and the bulk-sample cubic pair
FERMAT_PAIRS = (
    ("cos-sin", "z1+z2^2", 2),
    ("mobius", "z1*z2", 2),
    ("cubic", "z1", 1),
    ("cubic", "z1 + z2/2", 2),
)

#: (theorem, c) for `construct`: every theorem, with a shift it is solvable at
THEOREMS = (
    ("t1-i", "14,1,3,5"),
    ("t1-ii", "0,pi*i,pi*i"),
    ("t2-i", "2,3,2,4"),
    ("t2-ii", "pi*i,2*pi*i,-pi*i,2*pi*i"),
    ("cor1", "0.6,1.1,0.9"),
    ("cor2", "0.5,1.4,0.8"),
    ("equ1", "1,1"),
    ("equ2", "1,3"),
)
#: the shift of the m1 = 3 control, that of cor1
CONTROL_C = (0.6, 1.1, 0.9)

#: the verdict each `expected_status` of a problem file calls for
EXPECTED_VERDICT = {"pass": "pass", "fail": "fail", "inconsistent": "fail"}


def _tally(label: str, verdicts: list[str], expected: str | None) -> int:
    """Print one count line to stderr; return how many verdicts are not `expected`."""
    passed = verdicts.count("pass")
    wrong = 0 if expected is None else sum(v != expected for v in verdicts)
    print(f"{label}: {passed} pass, {len(verdicts) - passed} fail "
          f"(expected {expected or 'either'}: {wrong} unexpected)", file=sys.stderr)
    return wrong


def _line(record: dict, verdicts, digest=None) -> None:
    """Print one report line; add its verdict and counts to `verdicts`, the whole line to `digest`."""
    line = json.dumps(record)
    verdicts.update(json.dumps([record["verdict"], record["tested"], record["skipped"]]).encode() + b"\n")
    if digest is not None:
        digest.update(line.encode() + b"\n")
    print(line)


def _cli_doc(argv: list[str]) -> dict:
    """The `--format machine` document of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([*argv, "--format", "machine"])
    if code not in (0, 1):  # 1 is a failed verdict, which the caller counts
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def _fermat_report(kind: str, h: str, n: int, seed: int, radius: float, samples: int) -> dict:
    return _cli_doc(["fermat", "--kind", kind, "--h", h, "--n", str(n), "--seed", str(seed),
                     "--radius", repr(radius), "--samples", str(samples)])["report"]


def _family_record(label: str, seed: int, rep: dict) -> dict:
    return {"family": label, "seed": seed, "verdict": rep["verdict"], "tested": rep["points_tested"],
            "skipped": rep["points_skipped"], "max_abs": repr(rep["max_abs_residual"]),
            "max_rel": repr(rep["max_rel_residual"])}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-99", help="inclusive range a-b")
    ap.add_argument("--radii", default="2,4,8")
    ap.add_argument("--samples", type=int, default=200)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    radii = [float(r) for r in args.radii.split(",")]

    print(json.dumps({"numpy": np.__version__, "simd": simd_target()}))
    wrong = 0
    verdict_digest = hashlib.sha256()
    digest = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.json")):
        lp = load_problem(path)
        res = residual(lp.problem, lp.f)
        scales = scale_terms(lp.problem, lp.f)
        verdicts = []
        for seed in range(lo, hi + 1):
            for radius in radii:
                policy = replace(lp.policy, seed=seed, radius=radius, samples=args.samples)
                rep = check_residual(res, scales, policy, lp.problem.n)
                verdicts.append(rep.verdict)
                _line({
                    "fixture": path.stem, "seed": seed, "radius": radius,
                    "verdict": rep.verdict, "tested": rep.points_tested,
                    "skipped": rep.points_skipped, "max_abs": repr(rep.max_abs_residual),
                    "max_rel": repr(rep.max_rel_residual),
                }, verdict_digest, digest)
        wrong += _tally(path.stem, verdicts, EXPECTED_VERDICT.get(lp.expected_status))
    print(json.dumps({"sha256": digest.hexdigest()}))

    digest = hashlib.sha256()
    for kind, h, n in FERMAT_PAIRS:
        verdicts = []
        for seed in range(lo, hi + 1):
            for radius in radii:
                rep = _fermat_report(kind, h, n, seed, radius, args.samples)
                verdicts.append(rep["verdict"])
                _line({
                    "pair": kind, "h": h, "seed": seed, "radius": radius,
                    "verdict": rep["verdict"], "tested": rep["points_tested"],
                    "skipped": rep["points_skipped"], "max_abs": repr(rep["max_abs_residual"]),
                    "max_rel": repr(rep["max_rel_residual"]),
                }, verdict_digest, digest)
        wrong += _tally(f"{kind} {h}", verdicts, "pass")
    print(json.dumps({"fermat_sha256": digest.hexdigest()}))

    digest = hashlib.sha256()
    for theorem, c in THEOREMS:
        verdicts = []
        for seed in range(lo, hi + 1):
            doc = _cli_doc(["construct", "--theorem", theorem, "--c", c, "--gen-seed", str(seed),
                            "--seed", str(seed), "--samples", str(args.samples)])
            verdicts.append(doc["report"]["verdict"])
            _line(_family_record(theorem, seed, doc["report"]), verdict_digest)
            if theorem.startswith("t1-"):
                digest.update(json.dumps(doc).encode() + b"\n")
        wrong += _tally(f"construct {theorem}", verdicts, "pass")
    verdicts = []
    for seed in range(lo, hi + 1):
        g = make_periodic(CONTROL_C[1:], 2, seed=seed)
        f, problem = construct_cor1_m3_control(len(CONTROL_C), CONTROL_C, g)
        rep = verify_problem(problem, f, SamplingPolicy(seed=seed, samples=args.samples)).to_dict()
        verdicts.append(rep["verdict"])
        _line(_family_record("cor1 m1=3 control", seed, rep), verdict_digest)
    wrong += _tally("cor1 m1=3 control", verdicts, "fail")
    print(json.dumps({"t1_families_sha256": digest.hexdigest()}))
    print(json.dumps({"verdict_sha256": verdict_digest.hexdigest()}))
    if wrong:
        raise SystemExit(f"{wrong} verdicts differ from the expected ones")


if __name__ == "__main__":
    main()
