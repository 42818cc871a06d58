"""Time one `fg` rung cold: residual + scale_terms + check_residual.

The rung is the one of perfbench's `fg-ladder` workload: f = exp(z1+..+zn)
* prod(zj+1) + sin(z1*z2), operator index (1,...,1), 2000 points.  The
ladder reports rates over n = 2..7 with the memos of earlier cycles still
warm; this script times the three phases of a single rung separately and
cold, the form in which ROADMAP item 2 states its n = 7 target.  Every
repeat parses f and beta afresh after a full garbage collection, so no
expression or derivative survives from the previous repeat (expressions
are interned and memoize their derivatives).  Prints the minimum and the
median of the repeats, per phase, in milliseconds:

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


def once(n: int, seed: int) -> dict[str, float]:
    f_text, beta_text = fg_texts(n)
    f = parse(f_text, n)
    beta = parse(beta_text, n)
    problem = PDDEProblem(kind="fg", n=n, m1=2, m2=1, c=(0.5j,) * n, alpha=Const(1.0),
                          beta=beta, operator=LinearPDOperator(n=n, coeffs={(1,) * n: Const(1.0)}))
    t0 = time.perf_counter()
    res = residual(problem, f)
    t1 = time.perf_counter()
    scales = scale_terms(problem, f)
    t2 = time.perf_counter()
    rep = check_residual(res, scales, SamplingPolicy(samples=2000, seed=seed), n)
    t3 = time.perf_counter()
    if not rep.passed:
        raise SystemExit(f"n={n}: the rung should pass, got max_rel {rep.max_rel_residual!r}")
    return {"residual": t1 - t0, "scale_terms": t2 - t1, "check_residual": t3 - t2, "total": t3 - t0}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    runs = []
    for seed in range(args.repeats):
        gc.collect()
        runs.append(once(args.n, seed))
    for phase in runs[0]:
        times = [r[phase] * 1e3 for r in runs]
        print(f"{phase:>15}: min {min(times):8.2f} ms  median {statistics.median(times):8.2f} ms")


if __name__ == "__main__":
    main()
