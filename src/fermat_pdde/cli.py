"""Command-line front-end.

Subcommands::

    verify <file>...       check the candidate in each problem file ('-':
                           read the paths from stdin)
    construct --theorem .. build a solution family member and verify it
    order <file|expr>      estimate the growth order exponent
    fermat --kind ..       build an f^m + g^m = 1 pair and verify it

Exit codes: 0 verification passed, 1 verification failed (or estimation
impossible), 2 malformed input; for several files, the worst of theirs.

A command imports the modules it runs when it runs: `verify` and `order`
never load the constructors, `periodic` or (without wp) `elliptic`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace

from .errors import ConstructionError, EstimationError, PDDEError, ParseError, ProblemSpecError
from .expr import Const, Expr, Wp, to_string
from .parser import parse
from .verify import SamplingPolicy, default_radii, estimate_order, strict_json, verify_problem

__all__ = ["main"]

#: `construct --theorem` -> (the equation kind, the form of its quadratic solution);
#: the corollaries and equ1/equ2 fix the right side to 1, so only t1-* and t2-* take --phi
_THEOREMS = {"t1-i": ("fte", "I"), "t1-ii": ("fte", "II"), "t2-i": ("ftee", "I"), "t2-ii": ("ftee", "II"),
             "cor1": ("fte", "II"), "cor2": ("ftee", "II"), "equ1": ("equ1", "II"), "equ2": ("equ2", "II")}
#: `fermat --kind` -> (the constructor's kind, the tolerance the pair is checked at)
_FERMAT_KINDS = {"cos-sin": ("cos_sin", 1e-12), "mobius": ("mobius", 1e-12), "cubic": ("cubic", 1e-7)}
#: `order` holds its directions (directions x n complex values of 16 bytes)
#: and one block of points, and evaluates radii x directions points of n
#: coordinates: each factor is bounded, and their product bounds the work
MAX_DIRECTIONS = 100_000
#: `construct --gen-terms`: the generator's cost grows faster than the term count
MAX_GEN_TERMS = 64
_MAX_RADII = 64
MAX_ORDER_VALUES = 10_000_000

#: the sampling-policy flags: flag, type and what it sets
_POLICY_FLAGS = (
    ("--samples", int, "sample count"),
    ("--radius", float, "polydisc radius"),
    ("--tol", float, "relative tolerance"),
    ("--seed", int, "sampling seed"),
    ("--pole-eps", float, "pole-avoidance threshold"),
)


def _add_policy_flags(sp: argparse.ArgumentParser, **shown: str) -> None:
    """Add the sampling-policy flags; each help text states the command's default.

    That is SamplingPolicy's value, or the text `shown` gives for the field.
    """
    base = SamplingPolicy()
    for flag, kind, what in _POLICY_FLAGS:
        name = flag[2:].replace("-", "_")
        default = shown.get(name, f"{getattr(base, name):g}")
        sp.add_argument(flag, type=kind, default=None, help=f"{what} (default {default})")


def _add_format_flag(sp: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps the top-level value when the flag is not repeated here
    sp.add_argument("--format", choices=("text", "machine"), default=argparse.SUPPRESS,
                    help="text report, or JSON: one document per report")


def _policy_with_overrides(base: SamplingPolicy, args) -> SamplingPolicy:
    flags = {f.name: getattr(args, f.name) for f in fields(SamplingPolicy)}
    return replace(base, **{name: value for name, value in flags.items() if value is not None})


def _parse_constant(text: str, what: str) -> complex:
    # a constant expression folds to a Const, unless its value overflows
    e = parse(text, 1)
    if not isinstance(e, Const):
        raise ParseError(f"{what} must be finite and constant, got {text!r}", 0)
    return e.value


def _parse_c(text: str) -> tuple[complex, ...]:
    return tuple(_parse_constant(p.strip(), "shift component") for p in text.split(","))


def _parse_radii(text: str) -> tuple[float, ...]:
    try:
        radii = tuple(float(r) for r in text.split(","))
    except ValueError:
        radii = ()
    if not radii or not all(math.isfinite(r) and r > 0 for r in radii):
        raise ProblemSpecError(f"--radii must be comma-separated positive finite numbers, got {text!r}")
    if len(radii) < 2 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ProblemSpecError(f"--radii must be at least two strictly increasing radii, got {text!r}")
    if len(radii) > _MAX_RADII:
        raise ProblemSpecError(f"--radii must hold at most {_MAX_RADII} radii, got {len(radii)}")
    return radii


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "machine":
        print(strict_json(payload))
    else:
        for line in text_lines:
            print(line)


def _report_lines(report) -> list[str]:
    return report.to_text().splitlines()


def _verify_file(path: str, args) -> int:
    from .problemfile import load_problem

    loaded = load_problem(path)
    policy = _policy_with_overrides(loaded.policy, args)
    rep = verify_problem(loaded.problem, loaded.f, policy)
    payload = {"file": loaded.path, "report": rep.to_dict()}
    if loaded.expected_status is not None:
        payload["expected_status"] = loaded.expected_status
    lines = [f"file: {loaded.path}"]
    if loaded.expected_status is not None:
        lines.append(f"expected_status: {loaded.expected_status}")
    lines += _report_lines(rep)
    _emit(args, payload, lines)
    return 0 if rep.passed else 1


def _paths(files: list[str]):
    """Each path argument in turn; `-` stands for the lines of stdin, one path each."""
    for name in files:
        if name == "-":
            yield from (line.strip() for line in sys.stdin if line.strip())
        else:
            yield name


def cmd_verify(args) -> int:
    """One report per file, in order; a file that cannot be checked prints its
    error and the rest go on.  The exit code is the worst of the files'."""
    # a flag is valid on every file's policy or on none: reject it once
    _policy_with_overrides(SamplingPolicy(), args)
    return max((_run(_verify_file, path, args) for path in _paths(args.files)), default=0)


def _generated_g(theorem: str, c, seed: int, terms: int) -> Expr:
    """A polynomial quasi-periodic g part for form I, a periodic one for form II."""
    from .construct import quadratic_basis
    from .periodic import make_periodic, make_polynomial_quasi_periodic, period_vector

    if len(c) < 2:
        # every family lives on C^n with n >= 2; its constructor says so
        # too, but the generator reads c2 first
        raise ConstructionError(f"theorem {theorem} needs a shift vector of at least 2 components, got {len(c)}")
    kind, form = _THEOREMS[theorem]
    basis = quadratic_basis(kind)
    cprime = period_vector(c, basis)
    if form == "I":
        return make_polynomial_quasi_periodic(cprime, c[0], seed=seed, basis=basis)
    return make_periodic(cprime, terms, seed=seed, basis=basis)


def cmd_construct(args) -> int:
    from .construct import QuadraticParams, construct_quadratic

    theorem = args.theorem
    kind, form = _THEOREMS[theorem]
    if args.gen_terms is not None:
        if args.gen_terms < 1:
            raise ProblemSpecError(f"--gen-terms must be at least 1, got {args.gen_terms}")
        if args.gen_terms > MAX_GEN_TERMS:
            raise ProblemSpecError(f"--gen-terms must be at most {MAX_GEN_TERMS}, got {args.gen_terms}")
        if form == "I":
            raise ProblemSpecError(f"theorem {theorem} generates a polynomial g part; --gen-terms applies to form II only")
    if args.g is not None and (args.gen_seed, args.gen_terms) != (None, None):
        raise ProblemSpecError("--gen-seed and --gen-terms apply to a generated g part, not to --g")
    if args.phi is not None and not theorem.startswith(("t1-", "t2-")):
        raise ProblemSpecError(f"theorem {theorem} fixes the right side to 1; --phi applies to t1-* and t2-* only")
    c = _parse_c(args.c)
    n = len(c)
    if args.g is not None:
        g = parse(args.g, n)
    else:
        g = _generated_g(theorem, c, args.gen_seed or 0, args.gen_terms or 2)
    phi = parse("1" if args.phi is None else args.phi, n)
    f, problem = construct_quadratic(kind, QuadraticParams(n=n, c=c, form=form, g_part=g, phi=phi))

    policy = _policy_with_overrides(SamplingPolicy(), args)
    rep = verify_problem(problem, f, policy)
    payload = {
        "theorem": theorem,
        "n": n,
        "f": to_string(f),
        "g_part": to_string(g),
        "report": rep.to_dict(),
    }
    lines = [
        f"theorem: {theorem}",
        f"g_part: {to_string(g)}",
        f"f = {to_string(f)}",
    ] + _report_lines(rep)
    _emit(args, payload, lines)
    return 0 if rep.passed else 1


def cmd_order(args) -> int:
    target = args.target
    if os.path.isfile(target):
        from .problemfile import load_problem

        loaded = load_problem(target)
        f, n = loaded.f, loaded.problem.n
        if args.n is not None and args.n != n:
            raise ProblemSpecError(f"--n {args.n} disagrees with the file's n = {n}")
        label = loaded.path
    else:
        if args.n is None:
            raise ParseError("--n is required when the target is an expression", 0)
        f, n = parse(target, args.n), args.n
        label = target
    radii = _parse_radii(args.radii) if args.radii else default_radii()
    if args.directions < 1:
        raise ProblemSpecError(f"--directions must be a positive integer, got {args.directions}")
    if args.directions > MAX_DIRECTIONS:
        raise ProblemSpecError(f"--directions must be at most {MAX_DIRECTIONS}, got {args.directions}")
    values = len(radii) * args.directions * n
    if values > MAX_ORDER_VALUES:
        raise ProblemSpecError(
            f"radii x directions x n must be at most {MAX_ORDER_VALUES}, "
            f"got {len(radii)} x {args.directions} x {n} = {values}")
    est = estimate_order(f, n, radii=radii, directions=args.directions, seed=args.seed)
    payload = {"target": label, "estimate": est.to_dict()}
    _emit(args, payload, [f"target: {label}"] + est.to_text().splitlines())
    return 0


def cmd_fermat(args) -> int:
    from .construct import construct_fermat_pair
    from .operators import PDDEProblem

    kind, tol = _FERMAT_KINDS[args.kind]
    h = parse(args.h, args.n)
    f, g = construct_fermat_pair(kind, h)
    m = 3 if kind == "cubic" else 2
    problem = PDDEProblem(kind="fermat", n=args.n, m1=m, g=g)
    policy = _policy_with_overrides(SamplingPolicy(tol=tol), args)
    guards = None
    if kind == "mobius":
        guards = [(Const(1.0) + h**2, 0.5)]
    elif kind == "cubic":
        guards = [(Wp(h), 0.1)]
    rep = verify_problem(problem, f, policy, guards=guards)
    payload = {
        "kind": args.kind,
        "m": m,
        "f": to_string(f),
        "g": to_string(g),
        "report": rep.to_dict(),
    }
    lines = [
        f"kind: {args.kind} (power m = {m})",
        f"f = {to_string(f)}",
        f"g = {to_string(g)}",
    ] + _report_lines(rep)
    _emit(args, payload, lines)
    return 0 if rep.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fermat-pdde",
        description="Construct and verify solution families of Fermat-type "
        "partial differential-difference equations on C^n.",
    )
    ap.add_argument("--format", choices=("text", "machine"), default="text",
                    help="text report, or JSON: one document per report")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="verify the candidate in each problem file",
                        description="Verify the candidate in each problem file.  A policy flag "
                        "overrides the file's policy, and a field that neither sets takes the "
                        "default shown.")
    sp.add_argument("files", nargs="+", metavar="file",
                    help="problem file; '-' reads one path per line from stdin")
    _add_policy_flags(sp)
    _add_format_flag(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("construct", help="build a family member and verify it")
    sp.add_argument("--theorem", choices=tuple(_THEOREMS), required=True)
    sp.add_argument("--c", required=True,
                    help="shift vector, one component per dimension: comma-separated constants, e.g. '0,pi*i,pi*i'")
    sp.add_argument("--g", default=None, help="periodic/polynomial part (generated when omitted)")
    sp.add_argument("--phi", default=None,
                    help="right side, for t1-* and t2-* only: the other theorems fix it to 1 (default 1)")
    sp.add_argument("--gen-seed", type=int, default=None,
                    help="seed for the generated g part (default 0); not with --g")
    sp.add_argument("--gen-terms", type=int, default=None,
                    help=f"terms in the generated g part (default 2, 1 to {MAX_GEN_TERMS}); form II only, not with --g")
    _add_policy_flags(sp)
    _add_format_flag(sp)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("order", help="estimate the growth order exponent")
    sp.add_argument("target", help="problem file or expression string")
    sp.add_argument("--n", type=int, default=None,
                    help="dimension: required for an expression target; for a problem file, the file's n")
    sp.add_argument("--radii", default=None,
                    help="comma-separated radius ladder (default 4 .. 1024, ratio sqrt(2))")
    sp.add_argument("--directions", type=int, default=200, help="directions per radius (default 200)")
    sp.add_argument("--seed", type=int, default=42, help="direction seed (default 42)")
    _add_format_flag(sp)
    sp.set_defaults(fn=cmd_order)

    sp = sub.add_parser("fermat", help="build an f^m + g^m = 1 pair and verify it")
    sp.add_argument("--kind", choices=tuple(_FERMAT_KINDS), required=True)
    sp.add_argument("--h", required=True, help="parametrizing expression")
    sp.add_argument("--n", type=int, required=True, help="dimension")
    _add_policy_flags(sp, tol=", ".join(f"{kind}: {tol:g}" for kind, (_, tol) in _FERMAT_KINDS.items()))
    _add_format_flag(sp)
    sp.set_defaults(fn=cmd_fermat)
    return ap


def _run(fn, *args) -> int:
    """fn's exit code; an error it raises is printed to stderr and mapped to 1 or 2."""
    try:
        return fn(*args)
    except EstimationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except PDDEError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    return _run(args.fn, args)


def run() -> None:
    """Run `main` as a one-shot process and exit without the interpreter's teardown.

    Tearing down frees every module, numpy's for about 20 ms, and nothing
    waits for that in a process that has finished, so the output is
    flushed and the process ends.  If the reader of the output has gone
    (`verify ... | head`), the rest is dropped and the exit code is 1.
    """
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
