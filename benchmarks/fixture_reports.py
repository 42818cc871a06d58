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

It also checks the verdicts: one count line per fixture and pair goes to
stderr, and the script exits 1 when a fixture's verdict differs from its
`expected_status` (`inconsistent` expects fail) or a Fermat pair fails:

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

from fermat_pdde import check_residual, load_problem, residual, scale_terms
from fermat_pdde.cli import main as cli_main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: (CLI kind, h, n): the corpus pairs and the bulk-sample cubic pair
FERMAT_PAIRS = (
    ("cos-sin", "z1+z2^2", 2),
    ("mobius", "z1*z2", 2),
    ("cubic", "z1", 1),
    ("cubic", "z1 + z2/2", 2),
)


#: the verdict each `expected_status` of a problem file calls for
EXPECTED_VERDICT = {"pass": "pass", "fail": "fail", "inconsistent": "fail"}


def _tally(label: str, verdicts: list[str], expected: str | None) -> int:
    """Print one count line to stderr; return how many verdicts are not `expected`."""
    passed = verdicts.count("pass")
    wrong = 0 if expected is None else sum(v != expected for v in verdicts)
    print(f"{label}: {passed} pass, {len(verdicts) - passed} fail "
          f"(expected {expected or 'either'}: {wrong} unexpected)", file=sys.stderr)
    return wrong


def _line(digest, record: dict) -> None:
    line = json.dumps(record)
    digest.update(line.encode() + b"\n")
    print(line)


def _fermat_report(kind: str, h: str, n: int, seed: int, radius: float, samples: int) -> dict:
    argv = ["fermat", "--kind", kind, "--h", h, "--n", str(n), "--seed", str(seed),
            "--radius", repr(radius), "--samples", str(samples), "--format", "machine"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code not in (0, 1):  # 1 is a failed verdict, which the caller counts
        raise SystemExit(f"fermat {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())["report"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-99", help="inclusive range a-b")
    ap.add_argument("--radii", default="2,4,8")
    ap.add_argument("--samples", type=int, default=200)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    radii = [float(r) for r in args.radii.split(",")]

    wrong = 0
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
                _line(digest, {
                    "fixture": path.stem, "seed": seed, "radius": radius,
                    "verdict": rep.verdict, "tested": rep.points_tested,
                    "skipped": rep.points_skipped, "max_abs": repr(rep.max_abs_residual),
                    "max_rel": repr(rep.max_rel_residual),
                })
        wrong += _tally(path.stem, verdicts, EXPECTED_VERDICT.get(lp.expected_status))
    print(json.dumps({"sha256": digest.hexdigest()}))

    digest = hashlib.sha256()
    for kind, h, n in FERMAT_PAIRS:
        verdicts = []
        for seed in range(lo, hi + 1):
            for radius in radii:
                rep = _fermat_report(kind, h, n, seed, radius, args.samples)
                verdicts.append(rep["verdict"])
                _line(digest, {
                    "pair": kind, "h": h, "seed": seed, "radius": radius,
                    "verdict": rep["verdict"], "tested": rep["points_tested"],
                    "skipped": rep["points_skipped"], "max_abs": repr(rep["max_abs_residual"]),
                    "max_rel": repr(rep["max_rel_residual"]),
                })
        wrong += _tally(f"{kind} {h}", verdicts, "pass")
    print(json.dumps({"fermat_sha256": digest.hexdigest()}))
    if wrong:
        raise SystemExit(f"{wrong} verdicts differ from the expected ones")


if __name__ == "__main__":
    main()
