"""The four workloads: known-answer ops built from a workload seed.

An op is one verdict or one order estimate.  `build_ops(name, seed)`
draws every sampling seed, generator seed and shift vector from the
workload seed, so the same seed gives the same ops; the shapes (dimension,
sample count, expressions) are fixed per workload, so the cost of an op
does not depend on the seed.  Every op returns an `Outcome` whose
`correct` compares the program's answer with the op's known answer.

Why each workload:

* ``corpus``: the everyday mix of the tests and the CLI at the default
  200-point policy; per-call overhead, parsing, problem validation and the
  constructors' self-checks each take a large share and no layer dominates.
* ``fg-ladder``: kind ``fg`` with operator index (1,...,1) for n = 2..7 at
  2000 samples; the symbolic layers dominate and roughly double per step
  in n.  beta is written from the closed-form mixed partial, so the known
  verdict does not come from `partial`.
* ``bulk-sample``: example1, example6 and the cubic Fermat pair at 100 000
  points per verdict; evaluation (`backends`, `elliptic`) is nearly all the
  work and each stack row is larger than L2.
* ``cli``: one-shot ``python -m fermat_pdde --format machine ...`` processes;
  the only workload that measures interpreter start and import.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from functools import partial as bind
from typing import Callable

import numpy as np

from fermat_pdde import cli as fp_cli
from fermat_pdde.backends import eval_batch
from fermat_pdde.construct import (
    T1Params,
    T2Params,
    construct_cor1,
    construct_cor1_m3_control,
    construct_cor2,
    construct_fermat_pair,
    construct_legacy_xw,
    construct_t1,
    construct_t2,
)
from fermat_pdde.elliptic import default_context
from fermat_pdde.expr import Const, Wp, directional_derivative, partial, uses_wp
from fermat_pdde.operators import (
    LinearPDOperator,
    PDDEProblem,
    residual,
    scale_terms,
    unit_index,
)
from fermat_pdde.parser import parse
from fermat_pdde.periodic import make_periodic, make_polynomial_quasi_periodic
from fermat_pdde.problemfile import load_problem
from fermat_pdde.tape import compile_expr
from fermat_pdde.verify import (
    SamplingPolicy,
    check_residual,
    default_radii,
    estimate_order,
    sample_points,
)

from procs import CHILD, FIXTURES, WORKLOADS, run_child
from tracing import NullTracer, TracedContext, tree_counts

FIXTURE_NAMES = ("bad_poly",) + tuple(f"example{k}" for k in range(1, 8))
#: growth order each fixture candidate rounds to
KNOWN_ORDER = {"bad_poly": 0, "example1": 2}
FAMILIES = ("t1-i", "t1-ii", "t2-i", "t2-ii", "cor1", "cor2", "equ1", "equ2")
#: (pair kind, h, n) of the Fermat pairs on `corpus`
FERMAT_PAIRS = (("cos_sin", "z1+z2^2", 2), ("mobius", "z1*z2", 2), ("cubic", "z1", 1))
FG_DIMENSIONS = range(2, 8)
FG_SAMPLES = 2000
BULK_SAMPLES = 100_000
#: directions of each order estimate (estimate_order's default) and the
#: pole threshold it evaluates with
ORDER_DIRECTIONS = 200
ORDER_POLE_EPS = 1e-12


@dataclass(frozen=True)
class Outcome:
    correct: bool
    points: int
    rss_kb: int = 0


@dataclass(frozen=True)
class Op:
    label: str
    #: run(tracer) -> Outcome: the timed op
    run: Callable
    #: warm() stands in for the op in the set-up warm-up: the command
    #: in-process where `run` starts a process, and the op at 200 points on
    #: `bulk-sample`, so set-up holds first-call costs and not the 100 000
    #: points of evaluation the loop measures
    warm: Callable | None = None


def _draw_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# traced calls shared by the in-process ops


def _load(tr, path):
    with tr.span("problemfile.load") as sid:
        lp = load_problem(path)
    tr.defer(bind(_replay_load, sid=sid, path=path, problem=lp.problem))
    return lp


def _parse(tr, text, n):
    with tr.span("parser.parse"):
        return parse(text, n)


def _residual(tr, problem, f):
    with tr.span("operators.residual") as sid:
        res = residual(problem, f)
    tr.defer(bind(_replay_derivative, sid=sid, problem=problem, f=f))
    return res


def _scale_terms(tr, problem, f):
    with tr.span("operators.scale_terms"):
        return scale_terms(problem, f)


def _check(tr, problem, f, policy, guards=None):
    """residual, scale_terms and check_residual, as the CLI verifies a candidate."""
    res = _residual(tr, problem, f)
    scales = _scale_terms(tr, problem, f)
    with tr.span("verify.check") as sid:
        rep = check_residual(res, scales, policy, problem.n, guards=guards)
    exprs = [res, *scales, *(g for g, _ in guards or ())]
    tr.defer(bind(_replay_check, sid=sid, exprs=exprs, policy=policy, n=problem.n, rep=rep))
    return rep


def _validate(tr, problem):
    """Re-run the operator and problem validation that built `problem`."""
    with tr.span("operators.problem"):
        operator = replace(problem.operator) if problem.operator is not None else None
        replace(problem, operator=operator)


def _replay_load(tr, sid, path, problem):
    """The parsing and problem validation inside load_problem."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    texts = [data[k] for k in ("f", "g", "phi", "alpha", "beta") if isinstance(data.get(k), str)]
    texts += [entry["coeff"] for entry in data.get("operator", ())]
    with tr.span("replay", parent=sid):
        for text in texts:
            _parse(tr, text, data["n"])
        _validate(tr, problem)


def _replay_construct(tr, sid, problem):
    """The problem validation inside a constructor."""
    with tr.span("replay", parent=sid):
        _validate(tr, problem)


def _replay_derivative(tr, sid, problem, f):
    """The derivative the equation needs, built once through `expr`."""
    n = problem.n
    with tr.span("replay", parent=sid):
        if problem.kind in ("xw", "equ2", "ftee"):
            with tr.span("expr.partial"):
                directional_derivative(f, (1, 1) + (0,) * (n - 2))
        elif problem.kind == "fg":
            for idx in problem.operator.coeffs:
                with tr.span("expr.partial"):
                    partial(f, idx)
        elif problem.kind != "fermat":
            with tr.span("expr.partial"):
                partial(f, unit_index(1, n))


def _compile(tr, e):
    with tr.span("tape.compile"):
        tape = compile_expr(e)
    tr.count("tape.instructions", len(tape.ops))
    return tape


def _eval(tr, tape, pts, ell, pole_eps):
    with tr.span("backends.eval"):
        _, ok = eval_batch(tape, pts, ell=ell, pole_eps=pole_eps)
    tr.count("backends.lane_ops", len(tape.ops) * len(pts))
    tr.count("backends.lanes", len(pts))
    tr.count("backends.ok_lanes", int(ok.sum()))


def _replay_check(tr, sid, exprs, policy, n, rep):
    """check_residual decomposed into its public sample, compile and eval calls."""
    nodes, distinct = tree_counts(exprs)
    tr.count("expr.tree_nodes", nodes)
    tr.count("expr.distinct_nodes", distinct)
    tr.count("verify.samples", policy.samples)
    tr.count("verify.skipped", rep.points_skipped)
    ell = TracedContext(default_context(), tr) if any(uses_wp(e) for e in exprs) else None
    with tr.span("replay", parent=sid):
        start = len(tr.spans)
        with tr.span("verify.sample"):
            pts = sample_points(policy, n)
        for e in exprs:
            _eval(tr, _compile(tr, e), pts, ell, policy.pole_eps)
    tr.count("tape.check_tapes", len(exprs))
    tr.add_reduce(sid, start)


def _replay_order(tr, sid, f, n, seed, radii):
    """estimate_order's one compile and its eval per radius, on the same directions."""
    rng = np.random.default_rng(seed)  # the direction draw of estimate_order
    vecs = rng.standard_normal((ORDER_DIRECTIONS, n)) + 1j * rng.standard_normal((ORDER_DIRECTIONS, n))
    dirs = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    ell = TracedContext(default_context(), tr) if uses_wp(f) else None
    with tr.span("replay", parent=sid):
        tape = _compile(tr, f)
        for r in radii:
            _eval(tr, tape, r * dirs, ell, ORDER_POLE_EPS)


# ---------------------------------------------------------------------------
# in-process ops


def _expected_status(name: str) -> str:
    """The fixture's recorded verdict; `inconsistent` counts as fail."""
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
        status = json.load(fh)["expected_status"]
    return "pass" if status == "pass" else "fail"


def op_verify_fixture(tr, name, expected, seed, samples=None):
    lp = _load(tr, FIXTURES / f"{name}.json")
    policy = replace(lp.policy, seed=seed, samples=samples or lp.policy.samples)
    rep = _check(tr, lp.problem, lp.f, policy)
    return Outcome(rep.verdict == expected, policy.samples)


def op_order(tr, name, seed):
    lp = _load(tr, FIXTURES / f"{name}.json")
    with tr.span("verify.order") as sid:
        est = estimate_order(lp.f, lp.problem.n, directions=ORDER_DIRECTIONS, seed=seed)
    # radii past the usable prefix were evaluated too when the ladder was cut
    evaluated = len(est.radii) + int(est.ladder_truncated)
    tr.defer(bind(_replay_order, sid=sid, f=lp.f, n=lp.problem.n, seed=seed,
                  radii=default_radii()[:evaluated]))
    known = KNOWN_ORDER.get(name, 1)
    return Outcome(round(est.rho_hat) == known, est.directions * evaluated)


def _draw_shift(rng, n: int, admissible) -> tuple[complex, ...]:
    """Shift components of modulus 0.8..1.6 at uniform angles, redrawn until admissible."""
    while True:
        c = []
        for _ in range(n):
            r = 0.8 + 0.8 * rng.random()
            c.append(complex(r * math.cos(2 * math.pi * rng.random()),
                             r * math.sin(2 * math.pi * rng.random())))
        c = tuple(c)
        if admissible(c):
            return c


def _family_params(form: str, rng) -> dict:
    """Shift vector and generator seed for one family draw (n = 3, or 2 for equ*)."""
    gen_seed = _draw_seed(rng)
    if form in ("t1-i", "t1-ii", "cor1", "control"):
        c = _draw_shift(rng, 3, lambda c: abs(sum(c[1:])) > 0.3)
    elif form in ("t2-i", "t2-ii", "cor2"):
        c = _draw_shift(rng, 3, lambda c: abs(c[1] - c[0]) > 0.3 and abs(c[1] - c[0] + c[2]) > 0.3)
    elif form == "equ1":
        c = _draw_shift(rng, 2, lambda c: abs(c[1]) > 0.3)
    else:
        c = _draw_shift(rng, 2, lambda c: abs(c[1] - c[0]) > 0.3)
    return {"c": c, "gen_seed": gen_seed}


def op_family(tr, form, c, gen_seed, seed):
    """Generate the periodic part, construct the family member, verify it."""
    n = len(c)
    t2_period = (c[1] - c[0],) + c[2:]
    with tr.span("periodic.generate"):
        if form == "t1-i":
            g = make_polynomial_quasi_periodic(c[1:], c[0], seed=gen_seed)
        elif form == "t2-i":
            g = make_polynomial_quasi_periodic(t2_period, c[0], seed=gen_seed, basis="t2")
        elif form in ("t1-ii", "cor1", "control", "equ1"):
            g = make_periodic(c[1:], 2, seed=gen_seed)
        else:
            g = make_periodic(t2_period, 2, seed=gen_seed, basis="t2")
    if form in ("t1-i", "t1-ii"):
        phi = _parse(tr, "z2 + exp(z3/2)", n)
    elif form in ("t2-i", "t2-ii"):
        phi = _parse(tr, "1 + z3^2/4", n)
    with tr.span("construct.build") as sid:
        if form in ("t1-i", "t1-ii"):
            f, problem = construct_t1(T1Params(n=n, c=c, form=form[3:].upper(), g_part=g, phi=phi))
        elif form in ("t2-i", "t2-ii"):
            f, problem = construct_t2(T2Params(n=n, c=c, form=form[3:].upper(), g_part=g, phi=phi))
        elif form == "cor1":
            f, problem = construct_cor1(n, c, g)
        elif form == "cor2":
            f, problem = construct_cor2(n, c, g)
        elif form == "control":
            f, problem = construct_cor1_m3_control(n, c, g)
        else:
            f, problem = construct_legacy_xw(form, g, c)
    tr.defer(bind(_replay_construct, sid=sid, problem=problem))
    rep = _check(tr, problem, f, SamplingPolicy(seed=seed))
    expected = "fail" if form == "control" else "pass"
    return Outcome(rep.verdict == expected, rep.policy.samples)


def op_fermat_pair(tr, kind, h_text, n, seed, samples=200):
    """The pair, its tolerance and its guard as the CLI's `fermat` command builds them."""
    h = _parse(tr, h_text, n)
    with tr.span("construct.build"):
        f, g = construct_fermat_pair(kind, h)
    with tr.span("operators.problem"):
        problem = PDDEProblem(kind="fermat", n=n, m1=3 if kind == "cubic" else 2, g=g)
    guards = None
    if kind == "mobius":
        guards = [(Const(1.0) + h**2, 0.5)]
    elif kind == "cubic":
        guards = [(Wp(h), 0.1)]
    policy = SamplingPolicy(samples=samples, seed=seed, tol=1e-7 if kind == "cubic" else 1e-12)
    rep = _check(tr, problem, f, policy, guards)
    return Outcome(rep.passed, samples)


def fg_texts(n: int) -> tuple[str, str]:
    """Candidate f and the right side beta that makes it an exact fg solution.

    f = exp(s)*prod(zj+1) + sin(z1*z2) with s = z1+...+zn, G = d^(1,...,1),
    alpha = 1, m1 = 2, m2 = 1, c = (i/2,...,i/2).  The mixed partial of the
    first summand is exp(s)*prod(zj+2); that of sin(z1*z2) is
    cos(z1*z2) - z1*z2*sin(z1*z2) at n = 2 and zero for n >= 3.
    """
    zs = [f"z{j}" for j in range(1, n + 1)]
    s = "+".join(zs)
    f = f"exp({s})*" + "*".join(f"({z}+1)" for z in zs) + " + sin(z1*z2)"
    mixed = f"exp({s})*" + "*".join(f"({z}+2)" for z in zs)
    if n == 2:
        mixed += " + cos(z1*z2) - z1*z2*sin(z1*z2)"
    shifted = (f"exp({s}+{n}*i/2)*" + "*".join(f"({z}+1+i/2)" for z in zs)
               + " + sin((z1+i/2)*(z2+i/2))")
    beta = f"({mixed})^2 + ({shifted}) - ({f})"
    return f, beta


def op_fg(tr, n, seed):
    f_text, beta_text = fg_texts(n)
    f = _parse(tr, f_text, n)
    beta = _parse(tr, beta_text, n)
    with tr.span("operators.problem"):
        operator = LinearPDOperator(n=n, coeffs={(1,) * n: Const(1.0)})
        problem = PDDEProblem(kind="fg", n=n, m1=2, m2=1, c=(0.5j,) * n,
                              alpha=Const(1.0), beta=beta, operator=operator)
    rep = _check(tr, problem, f, SamplingPolicy(samples=FG_SAMPLES, seed=seed))
    return Outcome(rep.passed, FG_SAMPLES)


# ---------------------------------------------------------------------------
# cli ops


def _machine_json(text: str):
    """The CLI's one JSON document: the first output line that parses as an object."""
    for line in text.splitlines():
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                continue
    return None


def _cli_correct(kind: str, known, code: int, doc) -> bool:
    if doc is None:
        return False
    if kind == "order":
        return code == 0 and round(doc["estimate"]["rho_hat"]) == known
    verdict = doc["report"]["verdict"]
    return code == (0 if known == "pass" else 1) and verdict == known


def _cli_points(kind: str, doc) -> int:
    if doc is None:
        return 0
    if kind == "order":
        est = doc["estimate"]
        return est["directions"] * (len(est["radii"]) + int(est["ladder_truncated"]))
    rep = doc["report"]
    return rep["points_tested"] + rep["points_skipped"]


def op_cli(tr, kind, args, known):
    """One `python -m fermat_pdde --format machine ...` process.

    Traced runs start the same command through child.py, which stamps the
    moments the interpreter is up, the package is imported and the command
    has finished, so the process splits into interpreter, import and command.
    """
    argv = ["--format", "machine", *args]
    if tr.enabled:
        code, text, start, _, rss = run_child([str(CHILD), "cli", *argv])
        stamps = json.loads(text.splitlines()[-1])
        tr.samples["cli.interpreter_s"].append(stamps["start"] - start)
        tr.samples["cli.import_s"].append(stamps["imported"] - stamps["start"])
        tr.samples["cli.command_s"].append(stamps["done"] - stamps["imported"])
    else:
        code, text, _, _, rss = run_child(["-m", "fermat_pdde", *argv])
    doc = _machine_json(text)
    return Outcome(_cli_correct(kind, known, code, doc), _cli_points(kind, doc), rss)


def warm_cli(args):
    """The CLI command in this process, output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        fp_cli.main(["--format", "machine", *args])


def _cli_op(label, kind, args, known) -> Op:
    return Op(label, bind(op_cli, kind=kind, args=args, known=known), bind(warm_cli, args))


# ---------------------------------------------------------------------------


def build_ops(name: str, seed: int) -> list[Op]:
    """The op list of one cycle; a run repeats whole cycles."""
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    if name == "corpus":
        for fx in FIXTURE_NAMES:
            ops.append(Op(f"verify:{fx}", bind(op_verify_fixture, name=fx, expected=_expected_status(fx),
                                               seed=_draw_seed(rng))))
        for form in FAMILIES + ("control",):
            params = _family_params(form, rng)
            ops.append(Op(f"construct:{form}", bind(op_family, form=form, seed=_draw_seed(rng), **params)))
        for kind, h, n in FERMAT_PAIRS:
            ops.append(Op(f"fermat:{kind}", bind(op_fermat_pair, kind=kind, h_text=h, n=n,
                                                 seed=_draw_seed(rng))))
        for fx in FIXTURE_NAMES:
            ops.append(Op(f"order:{fx}", bind(op_order, name=fx, seed=_draw_seed(rng))))
    elif name == "fg-ladder":
        for n in FG_DIMENSIONS:
            ops.append(Op(f"fg:n={n}", bind(op_fg, n=n, seed=_draw_seed(rng))))
    elif name == "bulk-sample":
        for fx in ("example1", "example6"):
            op = bind(op_verify_fixture, name=fx, expected="pass", seed=_draw_seed(rng))
            ops.append(Op(f"verify:{fx}", bind(op, samples=BULK_SAMPLES), bind(op, NullTracer())))
        op = bind(op_fermat_pair, kind="cubic", h_text="z1 + z2/2", n=2, seed=_draw_seed(rng))
        ops.append(Op("fermat:cubic", bind(op, samples=BULK_SAMPLES), bind(op, NullTracer())))
    elif name == "cli":
        for fx in FIXTURE_NAMES:
            args = ["verify", f"fixtures/{fx}.json", "--seed", str(_draw_seed(rng))]
            ops.append(_cli_op(f"cli:verify:{fx}", "verify", args, _expected_status(fx)))
        args = ["construct", "--theorem", "t1-ii", "--c", "0,pi*i,pi*i",
                "--gen-seed", str(_draw_seed(rng)), "--seed", str(_draw_seed(rng))]
        ops.append(_cli_op("cli:construct:t1-ii", "construct", args, "pass"))
        args = ["fermat", "--kind", "cubic", "--h", "z1", "--n", "1", "--seed", str(_draw_seed(rng))]
        ops.append(_cli_op("cli:fermat:cubic", "fermat", args, "pass"))
        args = ["order", "fixtures/example4.json", "--seed", str(_draw_seed(rng))]
        ops.append(_cli_op("cli:order:example4", "order", args, 1))
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return ops
