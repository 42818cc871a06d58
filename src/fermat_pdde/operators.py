"""Differential-difference operators and equation residuals.

An equation instance is a `PDDEProblem`; `residual(problem, f)` returns
LHS - RHS as an expression, so a candidate f solves the equation exactly
when the residual vanishes identically.  `scale_terms(problem, f)` returns
the equation's own top-level terms, used by the verifier to scale the
residual pointwise (which keeps huge-magnitude cancellations honest).

Kinds:

==========  ================================================================
``fermat``  f^m1 + g^m1 = 1                    (no shift; g stored in the problem)
``xc``      (d f/d z1)^m1 + f(z+c)^m2 = 1
``xw``      (d f/d z1 + d f/d z2)^m1 + f(z+c)^m2 = 1
``equ1``    (d f/d z1)^2 + f(z+c) = 1
``equ2``    (d f/d z1 + d f/d z2)^2 + f(z+c) = 1
``fte``     (d f/d z1)^m1 + f(z+c) = phi(z2,...,zn)
``ftee``    (d f/d z1 + d f/d z2)^m1 + f(z+c) = phi(z3,...,zn)
``fg``      G(f)^m1 + alpha * (f(z+c) - f)^m2 = beta,  G a linear operator
==========  ================================================================

Each kind is one row of `_KIND_TABLE`, the one place its rules are
written: `PDDEProblem` validates an instance against its row, and
`residual` and `scale_terms` build the equation from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from . import expr as ex
from .errors import DimensionError, ProblemSpecError
from .expr import (
    Expr,
    directional_derivative,
    free_variables,
    max_var_index,
    partial,
    shift,
)
from .verify import is_identically_zero

__all__ = [
    "KINDS",
    "LinearPDOperator",
    "PDDEProblem",
    "apply_linear_operator",
    "difference",
    "residual",
    "scale_terms",
    "unit_index",
]


def unit_index(j: int, n: int) -> tuple[int, ...]:
    """Multi-index for a single d/dz_j."""
    if not 1 <= j <= n:
        raise DimensionError(f"unit index {j} out of range for dimension {n}")
    return tuple(1 if i == j else 0 for i in range(1, n + 1))


@dataclass(frozen=True, eq=False)
class LinearPDOperator:
    """Sum of coefficient-weighted mixed partials: f -> sum_I a_I * d^I f.

    Multi-indices have n components and total order between 1 and n; at
    least one coefficient must not vanish identically (checked by
    sampling).
    """

    n: int
    coeffs: Mapping[tuple[int, ...], Expr]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {tuple(k): ex.as_expr(v) for k, v in dict(self.coeffs).items()}
        )
        if not self.coeffs:
            raise ProblemSpecError("operator needs at least one coefficient")
        for idx, coeff in self.coeffs.items():
            if len(idx) != self.n:
                raise ProblemSpecError(f"multi-index {idx} does not have {self.n} components")
            if any((not isinstance(i, int)) or i < 0 for i in idx):
                raise ProblemSpecError(f"multi-index {idx} has negative or non-integer entries")
            order = sum(idx)
            if not 1 <= order <= self.n:
                raise ProblemSpecError(f"multi-index {idx} has order {order}, expected 1..{self.n}")
            if max_var_index(coeff) > self.n:
                raise ProblemSpecError(f"coefficient for {idx} uses z{max_var_index(coeff)} with n={self.n}")
        if all(is_identically_zero(coeff, self.n) for coeff in self.coeffs.values()):
            raise ProblemSpecError("all operator coefficients vanish identically")


def apply_linear_operator(op: LinearPDOperator, f: Expr) -> Expr:
    if max_var_index(f) > op.n:
        raise DimensionError(f"operand uses z{max_var_index(f)} but operator dimension is {op.n}")
    terms = [ex.Mul((coeff, partial(f, idx))) for idx, coeff in op.coeffs.items()]
    return ex.Add(terms)


def difference(f: Expr, c) -> Expr:
    """f(z+c) - f(z).  The shift vector must be nonzero."""
    cs = tuple(complex(x) for x in c)
    if all(x == 0 for x in cs):
        raise ProblemSpecError("difference operator requires a nonzero shift vector")
    return shift(f, cs) - f


class _Kind(NamedTuple):
    """One row of the kind table."""

    direction: tuple[int, ...] | None  # w of the term sum_j w_j df/dz_j, zero-padded to n; None: no such term
    needs: tuple[str, ...]  # the fields the kind reads besides n and m1
    fixed: Mapping[str, int]  # the values the kind fixes, which a field left None takes
    rhs: str | None = None  # the field holding the right side; None: the number 1


_KIND_TABLE = {
    "fermat": _Kind(None, ("g",), {}),
    "xc": _Kind((1,), ("c", "m2"), {}),
    "xw": _Kind((1, 1), ("c", "m2"), {}),
    "equ1": _Kind((1,), ("c", "m2"), {"n": 2, "m1": 2, "m2": 1}),
    "equ2": _Kind((1, 1), ("c", "m2"), {"n": 2, "m1": 2, "m2": 1}),
    "fte": _Kind((1,), ("c", "phi"), {}, rhs="phi"),
    "ftee": _Kind((1, 1), ("c", "phi"), {}, rhs="phi"),
    "fg": _Kind(None, ("c", "m2", "operator", "alpha", "beta"), {}, rhs="beta"),
}

KINDS = tuple(_KIND_TABLE)


def derivative_direction(kind: str, n: int) -> tuple[int, ...] | None:
    """The w of the kind's term sum_j w_j df/dz_j, zero-padded to n; None: the kind has no such term."""
    direction = _KIND_TABLE[kind].direction
    return None if direction is None else direction + (0,) * (n - len(direction))


@dataclass(frozen=True, eq=False)
class PDDEProblem:
    """One equation instance; see the module docstring for the kinds."""

    kind: str
    n: int
    m1: int
    m2: int | None = None
    c: tuple[complex, ...] | None = None
    alpha: Expr | None = None
    beta: Expr | None = None
    phi: Expr | None = None
    operator: LinearPDOperator | None = None
    g: Expr | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ProblemSpecError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        kind, spec = self.kind, _KIND_TABLE[self.kind]
        for name in ("m2", "c", "alpha", "beta", "phi", "operator", "g"):
            if getattr(self, name) is not None and name not in spec.needs and name not in spec.fixed:
                raise ProblemSpecError(f"kind {kind} does not read the field {name}")
        for name, value in spec.fixed.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
            elif getattr(self, name) != value:
                raise ProblemSpecError(f"kind {kind} fixes {name} = {value}, got {getattr(self, name)!r}")
        n = self.n
        if n < 1:
            raise ProblemSpecError(f"dimension must be >= 1, got {n}")
        if self.c is not None:
            object.__setattr__(self, "c", tuple(complex(x) for x in self.c))
        # the variables the derivative term differentiates, which phi must not use
        banned = {j for j, w in enumerate(spec.direction or (), start=1) if w}
        if banned and max(banned) > n:
            raise ProblemSpecError(f"kind {kind} differentiates in z{max(banned)} and needs n >= {max(banned)}")
        if not isinstance(self.m1, int) or self.m1 < 1:
            raise ProblemSpecError(f"m1 must be a positive integer, got {self.m1!r}")

        for name in spec.needs:
            value = getattr(self, name)
            if value is None:
                raise ProblemSpecError(f"kind {kind} needs the field {name}")
            if name == "c":
                if len(value) != n:
                    raise ProblemSpecError(f"kind {kind} needs a shift vector of length n={n}")
                if all(x == 0 for x in value):
                    raise ProblemSpecError(f"kind {kind} requires a nonzero shift vector")
            elif name == "m2":
                if not isinstance(value, int) or value < 1:
                    raise ProblemSpecError(f"kind {kind} needs a positive integer m2, got {value!r}")
            elif name == "operator":
                if value.n != n:
                    raise ProblemSpecError(f"operator dimension {value.n} does not match problem dimension {n}")
            else:
                if max_var_index(value) > n:
                    raise ProblemSpecError(f"{name} uses z{max_var_index(value)} but dimension is {n}")
                used = free_variables(value) & banned
                if used:
                    raise ProblemSpecError(
                        f"{name} must not depend on {sorted('z%d' % j for j in banned)} for kind {kind}; "
                        f"it uses {sorted('z%d' % j for j in used)}"
                    )
                # g is the candidate's partner, not a coefficient of the equation
                if name != "g" and is_identically_zero(value, n):
                    raise ProblemSpecError(f"{name} vanishes identically")


def _equation_terms(p: PDDEProblem, f: Expr) -> tuple[tuple[Expr, Expr], Expr | int]:
    """The equation's two left-side terms and its right side, per kind.

    The right side is the number 1 for the kinds that fix it, else the
    problem's phi or beta.
    """
    if max_var_index(f) > p.n:
        raise DimensionError(f"candidate uses z{max_var_index(f)} but dimension is {p.n}")
    spec = _KIND_TABLE[p.kind]
    rhs = getattr(p, spec.rhs) if spec.rhs else 1
    if p.kind == "fermat":
        return (f ** p.m1, p.g ** p.m1), rhs
    if p.kind == "fg":
        gterm = apply_linear_operator(p.operator, f)
        return (gterm ** p.m1, p.alpha * difference(f, p.c) ** p.m2), rhs
    # the two-direction kinds take d/dz1 + d/dz2 in one chain-rule pass:
    # termwise addition of the partials cancels catastrophically on
    # functions of z2 - z1 with large factors
    d = directional_derivative(f, derivative_direction(p.kind, p.n))
    shifted = shift(f, p.c)
    return (d ** p.m1, shifted ** p.m2 if "m2" in spec.needs else shifted), rhs


def residual(p: PDDEProblem, f: Expr) -> Expr:
    """LHS - RHS of the equation for candidate f, as an expression."""
    lhs, rhs = _equation_terms(p, f)
    return lhs[0] + lhs[1] - rhs


def scale_terms(p: PDDEProblem, f: Expr) -> list[Expr]:
    """The equation's top-level terms, for relative residual scaling.

    A fixed right side 1 is left out: the verifier's scale is never below 1.
    """
    lhs, rhs = _equation_terms(p, f)
    return [*lhs, rhs] if isinstance(rhs, Expr) else [*lhs]
