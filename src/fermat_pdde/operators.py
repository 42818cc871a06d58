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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
    "is_identically_zero",
]

KINDS = ("fermat", "xc", "xw", "equ1", "equ2", "fte", "ftee", "fg")

#: kinds whose equation contains a shifted copy of the unknown
SHIFT_KINDS = ("xc", "xw", "equ1", "equ2", "fte", "ftee", "fg")


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
        if self.n < 1:
            raise ProblemSpecError(f"dimension must be >= 1, got {self.n}")
        if self.c is not None:
            object.__setattr__(self, "c", tuple(complex(x) for x in self.c))

        kind = self.kind
        if kind in ("xw", "equ2", "ftee") and self.n < 2:
            raise ProblemSpecError(f"kind {kind} differentiates in z2 and needs n >= 2")
        if kind in ("equ1", "equ2"):
            if self.m1 is None:
                object.__setattr__(self, "m1", 2)
            if self.m2 is None:
                object.__setattr__(self, "m2", 1)
            if (self.m1, self.m2) != (2, 1):
                raise ProblemSpecError(f"kind {kind} fixes (m1, m2) = (2, 1), got {(self.m1, self.m2)}")
            if self.n != 2:
                raise ProblemSpecError(f"kind {kind} is a two-variable equation, got n={self.n}")
        if not isinstance(self.m1, int) or self.m1 < 1:
            raise ProblemSpecError(f"m1 must be a positive integer, got {self.m1!r}")
        if kind in ("xc", "xw", "fg"):
            if not isinstance(self.m2, int) or self.m2 < 1:
                raise ProblemSpecError(f"kind {kind} needs a positive integer m2, got {self.m2!r}")

        if kind in SHIFT_KINDS:
            if self.c is None or len(self.c) != self.n:
                raise ProblemSpecError(f"kind {kind} needs a shift vector of length n={self.n}")
            if all(x == 0 for x in self.c):
                raise ProblemSpecError(f"kind {kind} requires a nonzero shift vector")

        if kind == "fermat":
            if self.g is None:
                raise ProblemSpecError("kind fermat stores the partner function in field g")
            self._check_dim("g", self.g)
        if kind in ("fte", "ftee"):
            if self.phi is None:
                raise ProblemSpecError(f"kind {kind} needs the right side phi")
            self._check_dim("phi", self.phi)
            banned = {1} if kind == "fte" else {1, 2}
            used = free_variables(self.phi) & banned
            if used:
                raise ProblemSpecError(
                    f"phi must not depend on {sorted('z%d' % j for j in banned)} for kind {kind}; "
                    f"it uses {sorted('z%d' % j for j in used)}"
                )
            if is_identically_zero(self.phi, self.n):
                raise ProblemSpecError("phi vanishes identically")
        if kind == "fg":
            if self.operator is None or self.alpha is None or self.beta is None:
                raise ProblemSpecError("kind fg needs operator, alpha, and beta")
            if self.operator.n != self.n:
                raise ProblemSpecError(
                    f"operator dimension {self.operator.n} does not match problem dimension {self.n}"
                )
            for name, e in (("alpha", self.alpha), ("beta", self.beta)):
                self._check_dim(name, e)
                if is_identically_zero(e, self.n):
                    raise ProblemSpecError(f"{name} vanishes identically")

    def _check_dim(self, name: str, e: Expr) -> None:
        if max_var_index(e) > self.n:
            raise ProblemSpecError(f"{name} uses z{max_var_index(e)} but dimension is {self.n}")


def _derivative_term(p: PDDEProblem, f: Expr) -> Expr:
    # the two-direction kinds take d/dz1 + d/dz2 in one chain-rule pass:
    # termwise addition of the partials cancels catastrophically on
    # functions of z2 - z1 with large factors
    if p.kind in ("xw", "equ2", "ftee"):
        return directional_derivative(f, (1, 1) + (0,) * (p.n - 2))
    return partial(f, unit_index(1, p.n))


def _equation_terms(p: PDDEProblem, f: Expr) -> tuple[tuple[Expr, Expr], Expr | int]:
    """The equation's two left-side terms and its right side, per kind.

    The right side is the number 1 for the kinds that fix it, else the
    problem's phi or beta.
    """
    if max_var_index(f) > p.n:
        raise DimensionError(f"candidate uses z{max_var_index(f)} but dimension is {p.n}")
    kind = p.kind
    if kind == "fermat":
        return (f ** p.m1, p.g ** p.m1), 1
    if kind == "fg":
        gterm = apply_linear_operator(p.operator, f)
        return (
            gterm ** p.m1,
            p.alpha * difference(f, p.c) ** p.m2,
        ), p.beta
    d = _derivative_term(p, f) ** p.m1
    if kind in ("xc", "xw"):
        return (d, shift(f, p.c) ** p.m2), 1
    # equ1/equ2 fix m1 = 2; these kinds and fte/ftee take f(z+c) unpowered
    return (d, shift(f, p.c)), (p.phi if kind in ("fte", "ftee") else 1)


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
