"""Closed-form solution families for the supported equation kinds.

Each constructor returns the candidate f together with the matching
`PDDEProblem`, so equation and candidate cannot be mismatched downstream.
Structural requirements on the user-supplied parts (periodicity,
quasi-period increment, direction annihilation) are validated numerically
on an internal sample; failures raise ConstructionError and report the
largest violation seen.

Every solution of (D f)^2 + f(z+c) = phi is built by `construct_quadratic`
in form I or form II, on the basis of the kind's derivative direction D.
The theorems' constructors, the right-side-1 corollaries and the
two-variable `equ1`/`equ2` solutions are calls of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError
from .expr import (
    DEFAULT_POLE_EPS,
    Const,
    Cos,
    Expr,
    Sin,
    Var,
    Wp,
    WpPrime,
    directional_derivative,
    free_variables,
    shift,
    to_string,
)
from .operators import _KIND_TABLE, KINDS, PDDEProblem, derivative_direction
from .periodic import omega_expr, period_vector, tilt_coefficient
from .verify import SamplingPolicy, check_residual

__all__ = [
    "QuadraticParams",
    "T1Params",
    "T2Params",
    "construct_t1",
    "construct_t2",
    "construct_cor1",
    "construct_cor2",
    "construct_legacy_xw",
    "construct_fermat_pair",
    "construct_cor1_m3_control",
    "FERMAT_PAIR_KINDS",
]

#: tolerance for the relative quasi-period / periodicity sample checks
CHECK_TOL = 1e-9
#: tolerance for the direction-annihilation sample check
ANNIHILATION_TOL = 1e-10

FERMAT_PAIR_KINDS = ("cos_sin", "mobius", "cubic")


def _require(delta: Expr, scale: Expr, n: int, tol: float, what: str) -> None:
    """Raise unless |delta| <= tol * max(1, |scale|) on the fixed validation sample.

    The sample is 48 points of the radius-1.2 polydisc; at least half of
    them must evaluate.
    """
    policy = SamplingPolicy(samples=48, radius=1.2, seed=271828182 + n, pole_eps=DEFAULT_POLE_EPS)
    rep = check_residual(delta, [scale], policy, n)
    if rep.points_tested < policy.samples // 2:
        raise ConstructionError("validation sample lost more than half its points to poles")
    if rep.max_rel_residual > tol:
        raise ConstructionError(f"{what}: max violation {rep.max_rel_residual:.3e} exceeds {tol:.1e}")


def _check_quasi_period(g: Expr, c, increment: complex, n: int, what: str) -> None:
    delta = shift(g, c) - g - Const(increment)
    _require(delta, g, n, CHECK_TOL, what)


@dataclass(frozen=True)
class QuadraticParams:
    """Parameters of a quadratic solution: dimension n >= 2, shift c of length n,
    form I or II, the g part and the right side phi.

    `construct_t1` and `construct_t2` take them, under the names T1Params
    and T2Params.
    """

    n: int
    c: tuple[complex, ...]
    form: str  # "I" | "II"
    g_part: Expr
    phi: Expr = field(default_factory=lambda: Const(1.0))

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(complex(x) for x in self.c))
        if self.form not in ("I", "II"):
            raise ConstructionError(f"form must be 'I' or 'II', got {self.form!r}")
        if self.n < 2 or len(self.c) != self.n:
            raise ConstructionError(f"need n >= 2 and len(c) == n, got n={self.n}, c={self.c}")


T1Params = T2Params = QuadraticParams


def quadratic_basis(kind: str) -> str:
    """The basis of the kind's g part: t1 under d/dz1, t2 under d/dz1 + d/dz2."""
    direction = derivative_direction(kind, 2) if kind in KINDS else None
    if direction not in ((1, 0), (1, 1)):
        raise ConstructionError(f"no quadratic solution family for kind {kind!r}")
    return "t2" if direction[1] else "t1"


def construct_quadratic(kind: str, p: QuadraticParams, m1: int = 2) -> tuple[Expr, PDDEProblem]:
    """Quadratic solution of (D f)^2 + f(z+c) = phi, D = d/dz1 or d/dz1 + d/dz2.

    The g part lives on the basis of D (see `periodic`), which moves by
    the period vector c' under z -> z + c; tau is the sum of c' and
    omega the sum of the basis coordinates.

    Form I:  f = phi(z-c) - (-(z1-c1)/2 + g(z-c))^2 with a g gaining
    exactly c1/2 per period step.  Form II: a periodic g plus the linear
    tilt a*omega, a = c1/(2 tau),
    f = (z1-c1)(g + a omega) - (g + a(omega-tau))^2 + (c1^2-z1^2)/4 + phi(z-c).

    m1 is the power of the equation the solution is paired with: 2, or
    3 for the negative control, which this f does not solve.
    """
    basis = quadratic_basis(kind)
    # equ1 and equ2 fix the right side to 1 and read no phi
    reads_phi = _KIND_TABLE[kind].rhs == "phi"
    if not reads_phi and not (isinstance(p.phi, Const) and p.phi.value == 1):
        raise ConstructionError(f"kind {kind} fixes the right side to 1, got phi = {to_string(p.phi)}")
    direction = derivative_direction(kind, p.n)
    banned = [j for j, w in enumerate(direction, start=1) if w]
    if free_variables(p.phi) & set(banned):
        raise ConstructionError("phi must not depend on " + " or ".join(f"z{j}" for j in banned))
    if basis == "t1":
        if free_variables(p.g_part) & {1}:
            raise ConstructionError("the g part for this family must not depend on z1")
    else:
        delta = directional_derivative(p.g_part, direction)
        _require(delta, p.g_part, p.n, ANNIHILATION_TOL, "direction annihilation of the g part")
    z1 = Var(1)
    c1 = p.c[0]
    neg_c = tuple(-x for x in p.c)
    if p.form == "I":
        _check_quasi_period(p.g_part, p.c, c1 / 2.0, p.n, "quasi-period relation for the g part")
        inner = Const(-0.5) * (z1 - Const(c1)) + shift(p.g_part, neg_c)
        f = shift(p.phi, neg_c) - inner**2
    else:
        _check_quasi_period(p.g_part, p.c, 0.0, p.n, "periodicity of the g part")
        tau = complex(sum(period_vector(p.c, basis)))
        a = tilt_coefficient(c1, tau)
        omega = omega_expr(p.n, basis)
        f = (
            (z1 - Const(c1)) * (p.g_part + Const(a) * omega)
            - (p.g_part + Const(a) * (omega - Const(tau))) ** 2
            + Const(0.25) * (Const(c1**2) - z1**2)
            + shift(p.phi, neg_c)
        )
    problem = PDDEProblem(kind=kind, n=p.n, m1=m1, c=p.c, phi=p.phi if reads_phi else None)
    return f, problem


def construct_t1(p: QuadraticParams) -> tuple[Expr, PDDEProblem]:
    """Quadratic solution of (df/dz1)^2 + f(z+c) = phi(z2..zn); g in the t1 basis."""
    return construct_quadratic("fte", p)


def construct_t2(p: QuadraticParams) -> tuple[Expr, PDDEProblem]:
    """Quadratic solution of (df/dz1 + df/dz2)^2 + f(z+c) = phi(z3..zn).

    The g part lives on the characteristic coordinates (z2-z1, z3..zn),
    hence must be annihilated by d/dz1 + d/dz2.  Its period vector in
    those coordinates is (c2-c1, c3, ..., cn).
    """
    return construct_quadratic("ftee", p)


def construct_cor1(n: int, c, g2: Expr, m1: int = 2) -> tuple[Expr, PDDEProblem]:
    """Corollary 1: form II of `construct_t1` with phi = 1 and a periodic g2.

    m1 defaults to 2 (the solvable power); m1 = 3 is used by the negative
    control, where the same f must fail.
    """
    return construct_quadratic("fte", QuadraticParams(n=n, c=c, form="II", g_part=g2), m1)


def construct_cor2(n: int, c, g4: Expr) -> tuple[Expr, PDDEProblem]:
    """Corollary 2: form II of `construct_t2` with phi = 1 and a periodic g4."""
    return construct_quadratic("ftee", QuadraticParams(n=n, c=c, form="II", g_part=g4))


def construct_cor1_m3_control(n: int, c, g2: Expr) -> tuple[Expr, PDDEProblem]:
    """Negative control: the m1=2 solution paired with the m1=3 equation.

    No finite-order transcendental entire solution exists for powers >= 3,
    so this candidate must fail verification decisively.
    """
    return construct_cor1(n, c, g2, m1=3)


def construct_legacy_xw(which: str, g: Expr, c) -> tuple[Expr, PDDEProblem]:
    """Xu and Wang's two-variable solutions of the kinds equ1 and equ2: form II with n = 2, phi = 1.

    equ1 needs a periodic g(z2) with period c2 != 0; equ2 needs a periodic
    g(z2 - z1) with period c2 - c1 != 0 on the difference coordinate.
    """
    if which not in ("equ1", "equ2"):
        raise ConstructionError(f"which must be 'equ1' or 'equ2', got {which!r}")
    c = tuple(complex(x) for x in c)
    if len(c) != 2:
        raise ConstructionError(f"these are two-variable equations; got c = {c}")
    c1, c2 = c
    if which == "equ1":
        if abs(c2) < 1e-12:
            raise ConstructionError("degenerate period: equ1 needs c2 != 0")
        if free_variables(g) - {2}:
            raise ConstructionError("the periodic part for equ1 must be a function of z2 only")
    elif abs(c2 - c1) < 1e-12:
        raise ConstructionError("degenerate period: equ2 needs c2 != c1")
    return construct_quadratic(which, QuadraticParams(n=2, c=c, form="II", g_part=g))


def construct_fermat_pair(kind: str, h: Expr) -> tuple[Expr, Expr]:
    """Solution pairs of f^m + g^m = 1 parametrized by an arbitrary h.

    cos_sin: (cos h, sin h) for m=2 entire;
    mobius:  (2h/(1+h^2), (1-h^2)/(1+h^2)) for m=2 meromorphic;
    cubic:   ((1 + wpd(h)/sqrt(3))/(2 wp(h)), (1 - wpd(h)/sqrt(3))/(2 wp(h)))
             for m=3, using (wpd)^2 = 4 wp^3 - 1.
    """
    if kind not in FERMAT_PAIR_KINDS:
        raise ConstructionError(f"kind must be one of {FERMAT_PAIR_KINDS}, got {kind!r}")
    if kind == "cos_sin":
        return Cos(h), Sin(h)
    if kind == "mobius":
        den = Const(1.0) + h**2
        return Const(2.0) * h / den, (Const(1.0) - h**2) / den
    sqrt3 = Const(np.sqrt(3.0))
    half = Const(1.0) / (Const(2.0) * Wp(h))
    f = half * (Const(1.0) + WpPrime(h) / sqrt3)
    g = half * (Const(1.0) - WpPrime(h) / sqrt3)
    return f, g
