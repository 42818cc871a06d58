"""Time one `fg` rung cold: parse, residual, scale_terms and check_residual.

The rung is the one of perfbench's `fg-ladder` workload: f = exp(z1+..+zn)
* prod(zj+1) + sin(z1*z2), operator index (1,...,1), 2000 points.  The
ladder reports rates over n = 2..7 with the memos of earlier cycles still
warm; this script times the phases of a single rung separately and cold,
the form in which a change to the symbolic layer is compared with its
parent.  Every repeat parses f and beta afresh after a full garbage
collection, so no expression or derivative survives from the previous
repeat (expressions are interned and memoize their derivatives).  `parse` reads f and beta;
building and validating the problem belongs to no phase.  `compile`
times `compile_expr` on the check's roots (residual and scale terms) on
its own; `check_residual` compiles the same roots again, so `total`, the
sum of parse, residual, scale_terms and check_residual, counts the
compile once.  Prints the minimum and the median of the repeats, per
phase, in milliseconds, then the distinct nodes under the check's roots
(the nodes `expr._postorder` lists and the compiler reads), the check
tape's instruction and slot counts and the entries the residual added
to the intern table (the new nodes it built):

    PYTHONPATH=src python benchmarks/fg_rung.py --n 7 --repeats 7
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

from fermat_pdde import (
    Const,
    LinearPDOperator,
    PDDEProblem,
    SamplingPolicy,
    check_residual,
    parse,
    residual,
    scale_terms,
)
from fermat_pdde import expr as ex
from fermat_pdde.expr import Expr
from fermat_pdde.tape import compile_expr


def fg_texts(n: int) -> tuple[str, str]:
    """f and the beta that makes it an exact solution (alpha = 1, m1 = 2, m2 = 1, c = i/2)."""
    zs = [f"z{j}" for j in range(1, n + 1)]
    s = "+".join(zs)
    f = f"exp({s})*" + "*".join(f"({z}+1)" for z in zs) + " + sin(z1*z2)"
    # the mixed partial d^(1,...,1) f; that of sin(z1*z2) vanishes for n >= 3
    mixed = f"exp({s})*" + "*".join(f"({z}+2)" for z in zs)
    if n == 2:
        mixed += " + cos(z1*z2) - z1*z2*sin(z1*z2)"
    shifted = (f"exp({s}+{n}*i/2)*" + "*".join(f"({z}+1+i/2)" for z in zs)
               + " + sin((z1+i/2)*(z2+i/2))")
    return f, f"({mixed})^2 + ({shifted}) - ({f})"


def fg_problem(beta: Expr, n: int) -> PDDEProblem:
    """The fg equation of the rung: operator d^(1,...,1), alpha = 1, m1 = 2, m2 = 1, c = i/2."""
    return PDDEProblem(kind="fg", n=n, m1=2, m2=1, c=(0.5j,) * n, alpha=Const(1.0),
                       beta=beta, operator=LinearPDOperator(n=n, coeffs={(1,) * n: Const(1.0)}))


def once(n: int, seed: int) -> tuple[dict[str, float], dict[str, int]]:
    """The phase times of one cold rung, and its tape and intern counts."""
    f_text, beta_text = fg_texts(n)
    t0 = time.perf_counter()
    f = parse(f_text, n)
    beta = parse(beta_text, n)
    t1 = time.perf_counter()
    problem = fg_problem(beta, n)  # its validation is no phase of the rung
    table_before = len(ex._TABLE)
    t2 = time.perf_counter()
    res = residual(problem, f)
    t3 = time.perf_counter()
    interned = len(ex._TABLE) - table_before
    scales = scale_terms(problem, f)
    t4 = time.perf_counter()
    tape = compile_expr([res, *scales])
    t5 = time.perf_counter()
    rep = check_residual(res, scales, SamplingPolicy(samples=2000, seed=seed), n)
    t6 = time.perf_counter()
    if not rep.passed:
        raise SystemExit(f"n={n}: the rung should pass, got max_rel {rep.max_rel_residual!r}")
    phases = {"parse": t1 - t0, "residual": t3 - t2, "scale_terms": t4 - t3, "compile": t5 - t4,
              "check_residual": t6 - t5}
    phases["total"] = sum(v for k, v in phases.items() if k != "compile")
    return phases, {"check distinct nodes": len(ex._postorder([res, *scales])),
                    "tape instructions": len(tape.ops), "tape slots": tape.n_slots,
                    "residual intern entries": interned}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    runs = []
    for seed in range(args.repeats):
        gc.collect()
        runs.append(once(args.n, seed))
    for phase in runs[0][0]:
        times = [r[phase] * 1e3 for r, _ in runs]
        print(f"{phase:>15}: min {min(times):8.2f} ms  median {statistics.median(times):8.2f} ms")
    # the first repeat's counts: each repeat builds the same rung cold
    for name, count in runs[0][1].items():
        print(f"{name}: {count}")


if __name__ == "__main__":
    main()
