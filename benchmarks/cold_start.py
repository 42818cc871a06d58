"""Cold start of one-shot `fermat-pdde` processes: wall times and import self-times.

A `verify` or `order` call is one short process, most of whose time is
interpreter start and imports.  This script runs K rounds of fresh
`python -m fermat_pdde --format machine ...` processes.  Each round
starts every command once per source tree, in an order that alternates
from round to round, so a drift of the host's speed reaches every command
and tree alike.  It prints, per tree:

* per command, the median and quartiles of the process wall time;
* per `fermat_pdde` module, the mean `-X importtime` self-time, in one
  extra `verify` process per round; a module the command does not import
  reads `-`;
* the 8 fixtures verified by one `verify` process against 8 processes;
* `sys.dont_write_bytecode` in the children: when it is on and no
  `__pycache__` exists, every process compiles the package from source.

Children run with one BLAS thread (as perfbench's do) and the tree's
`src` as PYTHONPATH:

    python benchmarks/cold_start.py --runs 10
    python benchmarks/cold_start.py --runs 10 --src src --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted(f"fixtures/{p.name}" for p in (ROOT / "fixtures").glob("*.json"))

#: label -> CLI arguments after `--format machine`; the fixtures use no wp
COMMANDS = {
    "verify": ["verify", "fixtures/example4.json"],
    "order": ["order", "fixtures/example4.json"],
}


def _env(src: Path) -> dict:
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(src)}


def _run(src: Path, argv: list[str], flags: tuple[str, ...] = (), strict: bool = True) -> tuple[float, str]:
    """Wall time of one child and its stderr.

    A child that exits 2 (malformed input) stops the script, or when not
    `strict` gives the wall time NaN: a tree whose `verify` takes one
    file rejects the batch.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-m", "fermat_pdde", "--format", "machine", *argv],
                          cwd=ROOT, env=_env(src), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 1):
        if not strict:
            return math.nan, proc.stderr
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return wall, proc.stderr


def _self_times(stderr: str) -> dict[str, float]:
    """Module -> self-time in seconds, from `-X importtime` lines of fermat_pdde modules."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            self_us, _, name = line[len("import time:"):].split("|")
            if name.strip().startswith("fermat_pdde"):
                out[name.strip()] = int(self_us) * 1e-6
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _dont_write_bytecode(src: Path) -> bool:
    out = subprocess.run([sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
                         env=_env(src), capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="rounds K (default 10)")
    ap.add_argument("--src", action="append", type=Path,
                    help="source tree to run, repeatable (default: this checkout's src)")
    args = ap.parse_args()
    trees = [p.resolve() for p in (args.src or [ROOT / "src"])]

    walls = {(t, c): [] for t in trees for c in [*COMMANDS, "batch", "separate"]}
    imports = {t: [] for t in trees}
    for k in range(args.runs):
        jobs = [(t, c) for t in trees for c in COMMANDS]
        for t, c in jobs[::-1] if k % 2 else jobs:
            walls[t, c].append(_run(t, COMMANDS[c])[0])
        for t in trees[::-1] if k % 2 else trees:
            imports[t].append(_self_times(_run(t, COMMANDS["verify"], ("-X", "importtime"))[1]))
            walls[t, "batch"].append(_run(t, ["verify", *FIXTURES], strict=False)[0])
            walls[t, "separate"].append(sum(_run(t, ["verify", f])[0] for f in FIXTURES))

    modules = sorted({m for t in trees for run in imports[t] for m in run})
    for t in trees:
        print(f"tree {t}  (sys.dont_write_bytecode={_dont_write_bytecode(t)}, {args.runs} runs, "
              f"python {sys.version.split()[0]})")
        for c, argv in COMMANDS.items():
            q1, q2, q3 = _quartiles(walls[t, c])
            print(f"  {c:>8}: median {q2 * 1e3:7.1f} ms  [q1 {q1 * 1e3:7.1f}, q3 {q3 * 1e3:7.1f}]"
                  f"  ({' '.join(argv)})")
        total = 0.0
        print("  import self-time of `verify`, mean ms:")
        for m in modules:
            seen = [run[m] for run in imports[t] if m in run]
            total += sum(seen) / args.runs
            shown = f"{statistics.mean(seen) * 1e3:7.2f}" if seen else "      -"
            print(f"    {m:<24} {shown}")
        print(f"    {'total':<24} {total * 1e3:7.2f}")
        batch, separate = statistics.median(walls[t, "batch"]), statistics.median(walls[t, "separate"])
        one = "takes one file" if math.isnan(batch) else f"{batch:.3f} s"
        print(f"  {len(FIXTURES)} fixtures: one verify process {one}, "
              f"{len(FIXTURES)} processes {separate:.3f} s (medians)")


if __name__ == "__main__":
    main()
