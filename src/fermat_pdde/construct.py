"""Closed-form solution families for the supported equation kinds.

Each constructor returns the candidate f together with the matching
`PDDEProblem`, so equation and candidate cannot be mismatched downstream.
Structural requirements on the user-supplied parts (periodicity,
quasi-period increment, direction annihilation) are validated numerically
on an internal sample; failures raise ConstructionError and report the
largest violation seen.

The two-variable families ``equ1``/``equ2`` and the corollary forms
(right side identically 1) are special cases of the general quadratic
families, but they are emitted with their own printed formulas so tests
exercise those shapes verbatim.
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
)
from .operators import PDDEProblem
from .periodic import omega_expr
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


def _check_annihilated(g: Expr, n: int, what: str) -> None:
    delta = directional_derivative(g, (1, 1) + (0,) * (n - 2))
    _require(delta, g, n, ANNIHILATION_TOL, what)


def _tilt_coefficient(c1: complex, tau: complex, form: str) -> complex:
    """c1 / (2 tau); tau = 0 degenerates gracefully only when c1 = 0."""
    if abs(tau) < 1e-12:
        if c1 == 0:
            return 0j
        raise ConstructionError(f"form {form} needs tau != 0 (got tau = {tau}) when c1 = {c1} != 0")
    return c1 / (2.0 * tau)


def _neg_c(c) -> tuple[complex, ...]:
    return tuple(-complex(x) for x in c)


@dataclass(frozen=True)
class QuadraticParams:
    """Parameters of the quadratic families, kinds fte and ftee.

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


def construct_t1(p: QuadraticParams) -> tuple[Expr, PDDEProblem]:
    """Quadratic solution of (df/dz1)^2 + f(z+c) = phi(z2..zn).

    Form I:  f = phi(.-c') - (-(z1-c1)/2 + g1(.-c'))^2 with a polynomial
    g1 gaining exactly c1/2 per period step.  Form II: the same square
    built from a periodic g2 plus the linear tilt c1*omega/(2 tau) and
    the matching bookkeeping terms.
    """
    z1 = Var(1)
    c1 = p.c[0]
    if free_variables(p.g_part) & {1}:
        raise ConstructionError("the g part for this family must not depend on z1")
    if free_variables(p.phi) & {1}:
        raise ConstructionError("phi must not depend on z1")
    if p.form == "I":
        _check_quasi_period(p.g_part, p.c, c1 / 2.0, p.n, "quasi-period relation for g1")
        inner = Const(-0.5) * (z1 - Const(c1)) + shift(p.g_part, _neg_c(p.c))
        f = shift(p.phi, _neg_c(p.c)) - inner**2
    else:
        _check_quasi_period(p.g_part, p.c, 0.0, p.n, "periodicity of g2")
        tau = complex(sum(p.c[1:]))
        a = _tilt_coefficient(c1, tau, "II")
        omega = omega_expr(p.n, "t1")
        g1 = p.g_part + Const(a) * omega
        f = (
            (z1 - Const(c1)) * g1
            - (p.g_part + Const(a) * (omega - Const(tau))) ** 2
            + Const(0.25) * (Const(c1**2) - z1**2)
            + shift(p.phi, _neg_c(p.c))
        )
    problem = PDDEProblem(kind="fte", n=p.n, m1=2, c=p.c, phi=p.phi)
    return f, problem


def construct_t2(p: QuadraticParams) -> tuple[Expr, PDDEProblem]:
    """Quadratic solution of (df/dz1 + df/dz2)^2 + f(z+c) = phi(z3..zn).

    The g part lives on the characteristic coordinates (z2-z1, z3..zn),
    hence must be annihilated by d/dz1 + d/dz2.  Its period vector in
    those coordinates is (c2-c1, c3, ..., cn).
    """
    z1 = Var(1)
    c1 = p.c[0]
    if free_variables(p.phi) & {1, 2}:
        raise ConstructionError("phi must not depend on z1 or z2")
    _check_annihilated(p.g_part, p.n, "direction annihilation of the g part")
    if p.form == "I":
        _check_quasi_period(p.g_part, p.c, c1 / 2.0, p.n, "quasi-period relation for the g part")
        inner = Const(-0.5) * (z1 - Const(c1)) + shift(p.g_part, _neg_c(p.c))
        f = Const(-1.0) * inner**2 + shift(p.phi, _neg_c(p.c))
    else:
        _check_quasi_period(p.g_part, p.c, 0.0, p.n, "periodicity of the g part")
        tau = complex(p.c[1] - p.c[0] + sum(p.c[2:]))
        a = _tilt_coefficient(c1, tau, "II")
        omega = omega_expr(p.n, "t2")
        f = (
            Const(0.25) * (Const(c1**2) - z1**2)
            + (z1 - Const(c1)) * (p.g_part + Const(a) * omega)
            - (p.g_part + Const(a) * (omega - Const(tau))) ** 2
            + shift(p.phi, _neg_c(p.c))
        )
    problem = PDDEProblem(kind="ftee", n=p.n, m1=2, c=p.c, phi=p.phi)
    return f, problem


def construct_cor1(n: int, c, g2: Expr, m1: int = 2) -> tuple[Expr, PDDEProblem]:
    """Right-side-1 specialization of the form II family, printed shape.

    f = 1 + (c1^2 - z1^2)/4 + a*z1*omega + z1*g2 - (g2 + a*(omega-tau))^2
        - c1*(g2 + a*omega),   a = c1/(2 tau), omega = z2+...+zn.

    m1 defaults to 2 (the solvable power); m1 = 3 is used by the negative
    control, where the same f must fail.
    """
    c = tuple(complex(x) for x in c)
    if n < 2 or len(c) != n:
        raise ConstructionError(f"need n >= 2 and len(c) == n, got n={n}, c={c}")
    if free_variables(g2) & {1}:
        raise ConstructionError("the periodic part must not depend on z1")
    _check_quasi_period(g2, c, 0.0, n, "periodicity of g2")
    z1 = Var(1)
    c1 = c[0]
    tau = complex(sum(c[1:]))
    a = _tilt_coefficient(c1, tau, "II")
    omega = omega_expr(n, "t1")
    f = (
        Const(1.0)
        + Const(0.25) * (Const(c1**2) - z1**2)
        + Const(a) * z1 * omega
        + z1 * g2
        - (g2 + Const(a) * (omega - Const(tau))) ** 2
        - Const(c1) * (g2 + Const(a) * omega)
    )
    problem = PDDEProblem(kind="fte", n=n, m1=m1, c=c, phi=Const(1.0))
    return f, problem


def construct_cor2(n: int, c, g4: Expr) -> tuple[Expr, PDDEProblem]:
    """Right-side-1 specialization of the two-direction form II family.

    f = 1 + z1*(g4 + a*omega) - c1*(g4 + a*(omega-tau))
        - (g4 + a*(omega-tau))^2 - (c1^2 + z1^2)/4,
    omega = z2-z1+z3+...+zn, tau = c2-c1+c3+...+cn.
    """
    c = tuple(complex(x) for x in c)
    if n < 2 or len(c) != n:
        raise ConstructionError(f"need n >= 2 and len(c) == n, got n={n}, c={c}")
    _check_annihilated(g4, n, "direction annihilation of g4")
    _check_quasi_period(g4, c, 0.0, n, "periodicity of g4")
    z1 = Var(1)
    c1 = c[0]
    tau = complex(c[1] - c[0] + sum(c[2:]))
    a = _tilt_coefficient(c1, tau, "II")
    omega = omega_expr(n, "t2")
    shifted = g4 + Const(a) * (omega - Const(tau))
    f = (
        Const(1.0)
        + z1 * (g4 + Const(a) * omega)
        - Const(c1) * shifted
        - shifted**2
        - Const(0.25) * (Const(c1**2) + z1**2)
    )
    problem = PDDEProblem(kind="ftee", n=n, m1=2, c=c, phi=Const(1.0))
    return f, problem


def construct_cor1_m3_control(n: int, c, g2: Expr) -> tuple[Expr, PDDEProblem]:
    """Negative control: the m1=2 solution paired with the m1=3 equation.

    No finite-order transcendental entire solution exists for powers >= 3,
    so this candidate must fail verification decisively.
    """
    return construct_cor1(n, c, g2, m1=3)


def construct_legacy_xw(which: str, g: Expr, c) -> tuple[Expr, PDDEProblem]:
    """The quoted two-variable solutions of the kinds equ1 and equ2.

    equ1 needs a periodic g(z2) with period c2 != 0; equ2 needs a periodic
    g(z2 - z1) with period c2 - c1 != 0 on the difference coordinate.
    """
    if which not in ("equ1", "equ2"):
        raise ConstructionError(f"which must be 'equ1' or 'equ2', got {which!r}")
    c = tuple(complex(x) for x in c)
    if len(c) != 2:
        raise ConstructionError(f"these are two-variable equations; got c = {c}")
    c1, c2 = c
    z1, z2 = Var(1), Var(2)
    if which == "equ1":
        if abs(c2) < 1e-12:
            raise ConstructionError("degenerate period: equ1 needs c2 != 0")
        if free_variables(g) - {2}:
            raise ConstructionError("the periodic part for equ1 must be a function of z2 only")
        _check_quasi_period(g, c, 0.0, 2, "periodicity of the g part")
        a = c1 / (2.0 * c2)
        f = (
            Const(1.0)
            - Const(0.25 * c1**2)
            - Const(0.25) * z1**2
            + Const(a) * z1 * z2
            - Const(c1**2 / (2.0 * c2)) * (z2 - Const(c2))
            + (z1 - Const(c1)) * g
            - (Const(a) * (z2 - Const(c2)) + g) ** 2
        )
        problem = PDDEProblem(kind="equ1", n=2, m1=2, m2=1, c=c)
    else:
        if abs(c2 - c1) < 1e-12:
            raise ConstructionError("degenerate period: equ2 needs c2 != c1")
        _check_annihilated(g, 2, "direction annihilation of the g part")
        _check_quasi_period(g, c, 0.0, 2, "periodicity of the g part")
        a3 = c1 / (2.0 * (c2 - c1))
        w = z2 - z1
        wc = z2 - z1 - Const(c2 - c1)
        f = (
            Const(1.0)
            - Const(0.25 * c1**2)
            - Const(0.25) * z1**2
            + z1 * (g + Const(a3) * w)
            - Const(c1) * g
            - Const(a3 * c1) * wc
            - (g + Const(a3) * wc) ** 2
        )
        problem = PDDEProblem(kind="equ2", n=2, m1=2, m2=1, c=c)
    return f, problem


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
