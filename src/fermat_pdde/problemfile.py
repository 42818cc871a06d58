"""JSON problem files: equation instances as bit-exact, language-neutral data.

Schema (complex numbers are [re, im] pairs; expressions are grammar
strings parsed under the file's dimension)::

    {
      "n": 3,                      # dimension, required
      "kind": "...",               # one of operators.KINDS
      "f": "1 - z1^2/4 + ...",     # candidate, required
      "m1": 2, "m2": 1,            # integer powers
      "c": [[0,0], [0,3.14...]],   # shift vector, length n
      "g": "...", "phi": "...", "alpha": "...", "beta": "...",  # expressions
      "operator": [{"index": [1,0,0], "coeff": "1"}],           # linear operator
      "policy": {...},             # optional SamplingPolicy field overrides
      "expected_status": "pass",   # optional metadata: pass|fail|inconsistent
      "notes": "..."               # optional, informational
    }

Every field that is present is read and type-checked here; which fields a
kind needs, and the values it fixes, are the rules of the kind table in
`operators`, applied by `PDDEProblem`.  Policy keys are the fields of
`SamplingPolicy`, which checks their values.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ParseError, PDDEError, ProblemFileError
from .expr import Expr
from .operators import LinearPDOperator, PDDEProblem
from .parser import parse
from .verify import SamplingPolicy

__all__ = ["LoadedProblem", "load_problem", "policy_from_dict"]


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


def _expr_field(data: dict, key: str, n: int, path: str, required: bool = False) -> Expr | None:
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


def _int_field(data: dict, key: str, path: str, required: bool = False):
    raw = data.get(key)
    if raw is None:
        if required:
            raise ProblemFileError(f"{path}: missing required field {key!r}")
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ProblemFileError(f"{path}: field {key!r} must be an integer, got {raw!r}")
    return raw


def _operator_coeffs(data: dict, n: int, path: str) -> dict | None:
    raw_op = data.get("operator")
    if raw_op is None:
        return None
    if not isinstance(raw_op, list):
        raise ProblemFileError(f"{path}: field 'operator' must be a list of coefficient objects")
    coeffs = {}
    for i, entry in enumerate(raw_op):
        where = f"{path}: operator[{i}]"
        if not isinstance(entry, dict) or "index" not in entry or "coeff" not in entry:
            raise ProblemFileError(f"{where}: entries are objects with 'index' and 'coeff'")
        idx = entry["index"]
        if not isinstance(idx, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in idx):
            raise ProblemFileError(f"{where}: 'index' must be a list of integers")
        coeffs[tuple(idx)] = _expr_field(entry, "coeff", n, where, required=True)
    return coeffs


def policy_from_dict(data: dict | None, where: str = "policy") -> SamplingPolicy:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ProblemFileError(f"{where}: must be an object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(SamplingPolicy)}
    if unknown:
        raise ProblemFileError(f"{where}: unknown policy keys {sorted(unknown)}")
    try:
        return SamplingPolicy(**data)
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
    except ValueError as err:  # an integer past the conversion limit, text that is not UTF-8
        raise ProblemFileError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: top level must be an object")

    n = _int_field(data, "n", path, required=True)
    c = None
    if "c" in data:
        raw_c = data["c"]
        if not isinstance(raw_c, list):
            raise ProblemFileError(f"{path}: field 'c' must be a list of [re, im] pairs")
        c = tuple(_complex_pair(x, f"{path}: c[{i}]") for i, x in enumerate(raw_c))
    f = _expr_field(data, "f", n, path, required=True)
    exprs = {key: _expr_field(data, key, n, path) for key in ("g", "phi", "alpha", "beta")}
    m1, m2 = _int_field(data, "m1", path), _int_field(data, "m2", path)
    coeffs = _operator_coeffs(data, n, path)
    try:
        operator = None if coeffs is None else LinearPDOperator(n=n, coeffs=coeffs)
        problem = PDDEProblem(kind=data.get("kind"), n=n, m1=m1, m2=m2, c=c, operator=operator, **exprs)
    except PDDEError as err:
        raise ProblemFileError(f"{path}: {err}") from err

    policy = policy_from_dict(data.get("policy"), where=f"{path}: policy")
    expected = data.get("expected_status")
    if expected is not None and expected not in ("pass", "fail", "inconsistent"):
        raise ProblemFileError(f"{path}: expected_status must be pass|fail|inconsistent, got {expected!r}")
    notes = data.get("notes")
    return LoadedProblem(problem, f, policy, expected, notes, path)
