"""JSON problem files: equation instances as bit-exact, language-neutral data.

Schema (complex numbers are [re, im] pairs; expressions are grammar
strings parsed under the file's dimension)::

    {
      "n": 3,                      # dimension, required
      "kind": "fte",               # see operators.KINDS, required
      "m1": 2,                     # power on the derivative term
      "m2": 1,                     # power on the shifted term (xc, xw, fg)
      "c": [[0,0], [0,3.14...]],   # shift vector, length n
      "f": "1 - z1^2/4 + ...",     # candidate, required
      "g": "...",                  # partner function, kind fermat only
      "phi": "...",                # right side, kinds fte/ftee
      "alpha": "...", "beta": "...",           # kind fg
      "operator": [{"index": [1,0,0], "coeff": "1"}],  # kind fg
      "policy": {"samples": 200, "radius": 2.0, "tol": 1e-8,
                 "seed": 42, "pole_eps": 1e-8},        # optional overrides
      "expected_status": "pass",   # optional metadata: pass|fail|inconsistent
      "notes": "..."               # optional, informational
    }
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, PDDEError, ProblemFileError
from .expr import Expr
from .operators import KINDS, LinearPDOperator, PDDEProblem
from .parser import parse
from .verify import SamplingPolicy

__all__ = ["LoadedProblem", "load_problem", "policy_from_dict"]

_POLICY_KEYS = ("samples", "radius", "seed", "pole_eps", "tol")


@dataclass(frozen=True)
class LoadedProblem:
    problem: PDDEProblem
    f: Expr
    policy: SamplingPolicy
    expected_status: str | None
    notes: str | None
    path: str


def _complex_pair(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
        # false for NaN, Infinity and integers too large for a double
        or not all(abs(x) <= sys.float_info.max for x in value)
    ):
        raise ProblemFileError(f"{where}: complex numbers are [re, im] pairs of finite numbers, got {value!r}")
    return complex(value[0], value[1])


def _expr_field(data: dict, key: str, n: int, path: str, required: bool) -> Expr | None:
    raw = data.get(key)
    if raw is None:
        if required:
            raise ProblemFileError(f"{path}: missing required field {key!r}")
        return None
    if not isinstance(raw, str):
        raise ProblemFileError(f"{path}: field {key!r} must be an expression string")
    try:
        return parse(raw, n)
    except ParseError as err:
        raise ProblemFileError(f"{path}: in field {key!r}: {err}") from err


def _int_field(data: dict, key: str, path: str, required: bool, default=None):
    raw = data.get(key, default)
    if raw is None:
        if required:
            raise ProblemFileError(f"{path}: missing required field {key!r}")
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ProblemFileError(f"{path}: field {key!r} must be an integer, got {raw!r}")
    return raw


def policy_from_dict(data: dict | None, where: str = "policy") -> SamplingPolicy:
    data = data or {}
    unknown = set(data) - set(_POLICY_KEYS)
    if unknown:
        raise ProblemFileError(f"{where}: unknown policy keys {sorted(unknown)}")
    defaults = SamplingPolicy()
    kwargs = {k: data.get(k, getattr(defaults, k)) for k in _POLICY_KEYS}
    try:
        return SamplingPolicy(**kwargs)
    except PDDEError as err:
        raise ProblemFileError(f"{where}: {err}") from err


def load_problem(path) -> LoadedProblem:
    """Read and validate a problem file; all expressions are parsed eagerly."""
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ProblemFileError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ProblemFileError(f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from err
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: top level must be an object")

    kind = data.get("kind")
    if kind not in KINDS:
        raise ProblemFileError(f"{path}: kind must be one of {KINDS}, got {kind!r}")
    n = _int_field(data, "n", path, required=True)

    c = None
    if "c" in data:
        raw_c = data["c"]
        if not isinstance(raw_c, list):
            raise ProblemFileError(f"{path}: field 'c' must be a list of [re, im] pairs")
        c = tuple(_complex_pair(x, f"{path}: c[{i}]") for i, x in enumerate(raw_c))

    f = _expr_field(data, "f", n, path, required=True)
    g = _expr_field(data, "g", n, path, required=(kind == "fermat"))
    phi = _expr_field(data, "phi", n, path, required=(kind in ("fte", "ftee")))
    alpha = _expr_field(data, "alpha", n, path, required=(kind == "fg"))
    beta = _expr_field(data, "beta", n, path, required=(kind == "fg"))

    operator = None
    if kind == "fg":
        raw_op = data.get("operator")
        if not isinstance(raw_op, list) or not raw_op:
            raise ProblemFileError(f"{path}: kind fg needs a nonempty 'operator' coefficient list")
        coeffs = {}
        for i, entry in enumerate(raw_op):
            where = f"{path}: operator[{i}]"
            if not isinstance(entry, dict) or "index" not in entry or "coeff" not in entry:
                raise ProblemFileError(f"{where}: entries are objects with 'index' and 'coeff'")
            idx = entry["index"]
            if not isinstance(idx, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in idx):
                raise ProblemFileError(f"{where}: 'index' must be a list of integers")
            coeff = _expr_field(entry, "coeff", n, where, required=True)
            coeffs[tuple(idx)] = coeff
        operator = LinearPDOperator(n=n, coeffs=coeffs)

    m1 = _int_field(data, "m1", path, required=kind not in ("equ1", "equ2"),
                    default=2 if kind in ("equ1", "equ2") else None)
    m2 = _int_field(data, "m2", path, required=(kind in ("xc", "xw", "fg")),
                    default=1 if kind in ("equ1", "equ2") else None)

    try:
        problem = PDDEProblem(
            kind=kind, n=n, m1=m1, m2=m2, c=c, alpha=alpha, beta=beta, phi=phi,
            operator=operator, g=g,
        )
    except PDDEError as err:
        raise ProblemFileError(f"{path}: {err}") from err

    policy = policy_from_dict(data.get("policy"), where=f"{path}: policy")
    expected = data.get("expected_status")
    if expected is not None and expected not in ("pass", "fail", "inconsistent"):
        raise ProblemFileError(f"{path}: expected_status must be pass|fail|inconsistent, got {expected!r}")
    notes = data.get("notes")
    return LoadedProblem(problem, f, policy, expected, notes, path)
