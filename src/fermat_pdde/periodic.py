"""Entire functions with exact prescribed period vectors.

A generated function is a finite exponential sum

    g(w) = sum_t lam_t * exp(2 pi i <a_t, w>)

where the bilinear (non-conjugated) products <a_t, c'> are integers, so
g(w + c') == g(w) holds by construction, not by tuning.  Random frequency
vectors are projected onto that integrality constraint.

Two variable bases are supported for the (n-1)-dimensional argument w:

* ``t1``: w = (z2, ..., zn)
* ``t2``: w = (z2 - z1, z3, ..., zn)

Functions emitted in the ``t2`` basis are annihilated by d/dz1 + d/dz2
because every occurrence of z1, z2 is through z2 - z1.  A shift z -> z + c
moves w by the period vector c' = `period_vector(c, basis)`.

`make_quasi_periodic` adds the linear tilt c1 * omega / (2 tau), tau the
sum of c' (`tilt_coefficient`), which turns exact periodicity into the
additive law g(w + c') = g(w) + c1/2.
`make_polynomial_quasi_periodic` builds polynomial solutions of the same
additive law from a tilted linear form plus shift-invariant terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import ConstructionError, ProblemSpecError
from .expr import Expr

__all__ = [
    "PeriodicSpec",
    "basis_exprs",
    "omega_expr",
    "make_periodic",
    "make_quasi_periodic",
    "make_polynomial_quasi_periodic",
]

_BASES = ("t1", "t2")

#: |<a, c'> - nearest integer| must stay below this for a valid spec
INTEGRALITY_TOL = 1e-12
#: `PeriodicSpec.random`: frequency draw scale, largest |<a, c'>|, l1 retry bound
FREQ_SCALE = 0.2
MAX_INT = 2
MAX_L1 = 3.0
#: `make_polynomial_quasi_periodic`: shift-invariant terms and their largest power
INVARIANT_TERMS = 2
MAX_DEGREE = 2


def _generator(seed: int | None) -> np.random.Generator:
    """`np.random.default_rng(seed)`; a negative seed is malformed input."""
    if seed is not None and seed < 0:
        raise ProblemSpecError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _check_basis(basis: str) -> None:
    if basis not in _BASES:
        raise ConstructionError(f"unknown basis {basis!r}; expected one of {_BASES}")


def basis_exprs(n: int, basis: str = "t1") -> tuple[Expr, ...]:
    """Expressions for the w-coordinates in ambient variables z1..zn."""
    _check_basis(basis)
    if n < 2:
        raise ConstructionError(f"need n >= 2 for an (n-1)-dimensional period vector, got n={n}")
    if basis == "t1":
        return tuple(ex.Var(j) for j in range(2, n + 1))
    first = ex.Var(2) - ex.Var(1)
    return (first,) + tuple(ex.Var(j) for j in range(3, n + 1))


def omega_expr(n: int, basis: str = "t1") -> Expr:
    """Sum of the w-coordinates (z2+...+zn, or z2-z1+z3+...+zn)."""
    ws = basis_exprs(n, basis)
    return ex.Add(ws)


def period_vector(c, basis: str = "t1") -> tuple[complex, ...]:
    """The move c' of the w-coordinates under z -> z + c: (c2, ..., cn), or (c2-c1, c3, ..., cn)."""
    _check_basis(basis)
    c = tuple(c)
    if basis == "t1":
        return c[1:]
    return (c[1] - c[0],) + c[2:]


def tilt_coefficient(c1: complex, tau: complex) -> complex:
    """c1 / (2 tau), the slope of the tilt c1*omega/(2 tau).

    tau = 0 is only allowed with c1 = 0, where the tilt is 0: the
    quasi-period law g(w + c') = g(w) + c1/2 is then plain periodicity.
    """
    if abs(tau) < 1e-12:
        if c1 == 0:
            return 0j
        raise ConstructionError(f"tau = sum(c') = {tau} vanishes but c1 = {c1} != 0")
    return c1 / (2.0 * tau)


def _bilinear(a, b) -> complex:
    return complex(np.sum(np.asarray(a) * np.asarray(b)))


@dataclass(frozen=True)
class PeriodicSpec:
    """Recipe for one exponential sum with exact period vector cprime."""

    cprime: tuple[complex, ...]
    freqs: tuple[tuple[complex, ...], ...]
    amps: tuple[complex, ...]
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "cprime", tuple(complex(x) for x in self.cprime))
        object.__setattr__(self, "freqs", tuple(tuple(complex(x) for x in a) for a in self.freqs))
        object.__setattr__(self, "amps", tuple(complex(x) for x in self.amps))
        if not self.cprime or all(x == 0 for x in self.cprime):
            raise ConstructionError("period vector must be nonzero")
        if len(self.freqs) != len(self.amps) or not self.freqs:
            raise ConstructionError("need matching, nonempty frequency and amplitude lists")
        for a in self.freqs:
            if len(a) != len(self.cprime):
                raise ConstructionError("frequency vectors must match the period vector length")
            ip = _bilinear(a, self.cprime)
            if abs(ip - round(ip.real)) > INTEGRALITY_TOL:
                raise ConstructionError(
                    f"<a, c'> = {ip} is not an integer (off by {abs(ip - round(ip.real)):.3e})"
                )

    @staticmethod
    def random(cprime, k: int, seed: int | None = None) -> "PeriodicSpec":
        """Draw k terms; frequencies are projected onto the integrality constraint.

        Projection: a = a0 + ((m - <a0,c'>) / <u,c'>) * u with u = conj(c'),
        so <u,c'> = ||c'||^2 > 0.  Draws are rejected while the l1 norm of a
        exceeds MAX_L1 (keeps exponentials representable on test polydiscs).
        """
        cp = np.asarray(cprime, dtype=np.complex128)
        if cp.size == 0 or not np.any(cp):
            raise ConstructionError("period vector must be nonzero")
        if k < 1:
            raise ConstructionError(f"term count must be >= 1, got {k}")
        rng = _generator(seed)
        u = np.conj(cp)
        denom = _bilinear(u, cp)  # = ||c'||^2, real and positive
        freqs = []
        amps = []
        for _ in range(k):
            best = None
            for _attempt in range(64):
                a0 = FREQ_SCALE * (rng.standard_normal(cp.size) + 1j * rng.standard_normal(cp.size))
                m = int(rng.integers(1, MAX_INT + 1)) * (1 if rng.random() < 0.5 else -1)
                a = a0 + ((m - _bilinear(a0, cp)) / denom) * u
                l1 = float(np.sum(np.abs(a)))
                if best is None or l1 < best[1]:
                    best = (a, l1)
                if l1 <= MAX_L1:
                    break
            a = best[0]
            freqs.append(tuple(a))
            r = 0.4 + 1.1 * rng.random()
            amps.append(complex(r * np.exp(2j * np.pi * rng.random())))
        return PeriodicSpec(tuple(cprime), tuple(freqs), tuple(amps), seed)

    def to_expr(self, basis: str = "t1") -> Expr:
        n = len(self.cprime) + 1
        ws = basis_exprs(n, basis)
        terms = []
        for a, lam in zip(self.freqs, self.amps):
            exponent = ex.Add([ex.Mul((ex.Const(2j * np.pi * aj), w)) for aj, w in zip(a, ws)])
            terms.append(ex.Mul((ex.Const(lam), ex.Exp(exponent))))
        return ex.Add(terms)


def make_periodic(cprime, k: int, seed: int | None = None, basis: str = "t1") -> Expr:
    """Entire exponential sum with exact period vector cprime in the basis."""
    _check_basis(basis)
    return PeriodicSpec.random(cprime, k, seed).to_expr(basis)


def make_quasi_periodic(cprime, c1, k: int, seed: int | None = None, basis: str = "t1") -> Expr:
    """Periodic part plus c1*omega/(2 tau): satisfies g(w+c') = g(w) + c1/2.

    tau is the component sum of cprime; see `tilt_coefficient`.
    """
    c1 = complex(c1)
    tau = complex(np.sum(np.asarray(cprime, dtype=np.complex128)))
    g = make_periodic(cprime, k, seed, basis)
    n = len(tuple(cprime)) + 1
    return g + ex.Const(tilt_coefficient(c1, tau)) * omega_expr(n, basis)


def make_polynomial_quasi_periodic(cprime, c1, seed: int | None = None, basis: str = "t1") -> Expr:
    """Polynomial p with p(w + c') = p(w) + c1/2.

    Built as <b, w> with <b, c'> = c1/2 (always solvable for c' != 0) plus a
    random polynomial in shift-invariant linear forms <v, w>, <v, c'> = 0.
    """
    _check_basis(basis)
    cp = np.asarray(cprime, dtype=np.complex128)
    if cp.size == 0 or not np.any(cp):
        raise ConstructionError("period vector must be nonzero")
    c1 = complex(c1)
    rng = _generator(seed)
    n = cp.size + 1
    ws = basis_exprs(n, basis)
    u = np.conj(cp)
    denom = _bilinear(u, cp)

    def linear_form(vec) -> Expr:
        return ex.Add([ex.Mul((ex.Const(complex(v)), w)) for v, w in zip(vec, ws)])

    b = (c1 / 2.0 / denom) * u
    parts = [linear_form(b)] if c1 != 0 else []
    for _ in range(INVARIANT_TERMS):
        v0 = rng.standard_normal(cp.size) + 1j * rng.standard_normal(cp.size)
        v = v0 - (_bilinear(v0, cp) / denom) * u
        if np.all(np.abs(v) < 1e-14):
            continue  # n = 2: no nonzero invariant directions exist
        d = int(rng.integers(1, MAX_DEGREE + 1))
        lam = complex(0.3 + rng.random()) * np.exp(2j * np.pi * rng.random())
        parts.append(ex.Mul((ex.Const(lam), ex.Pow(linear_form(v), d))))
    parts.append(ex.Const(complex(rng.standard_normal() + 1j * rng.standard_normal())))
    return ex.Add(parts)
