"""Weierstrass wp and wp' for the normalization (wp')^2 = 4 wp^3 - 1.

The invariant pair (g2, g3) = (0, 1) fixes a hexagonal period lattice,
the equianharmonic case (Abramowitz & Stegun, Handbook, 18.13): the real
half-period is omega1 = Gamma(1/3)^3 / (4 pi) and the second half-period
is omega2 = omega1 * e^{i pi/3}, so b1 = 2 omega1, b2 = 2 omega2 and
b2 - b1 have equal length and the lattice cuts the plane into
equilateral (Delaunay) triangles.

Evaluation reduces the argument to the Voronoi cell of the lattice: the
floor of its lattice coordinates names a parallelogram, the diagonal from
b1 to b2 splits it into two such triangles, and the nearest lattice point
is the closest of the three vertices of the triangle holding the point.
wp(w z) = w wp(z) for w = e^{2 pi i/3}, so the Laurent series has nonzero
terms only in z^-2 and z^(6j+4); it is summed by Horner's rule in u^6.
The lattice, the series and the pole radius are module constants, and
`wp_many` and `wp_pair` are plain functions of them.  The series
converges for |z| < |b1| = 3.06, and the cell's circumradius is
2 omega1 / sqrt(3) = 1.767, so every reduced argument takes the one sum
directly.  At order 36 (12 terms in u^6) it agrees with a 60-term
exact-coefficient sum to 3.5e-15 relative over the cell, and
(wp')^2 = 4 wp^3 - 1 holds to 2.5e-15.

Arguments within `POLE_RADIUS` = 1e-2 of a lattice point are reported
as pole hits: their lanes carry NaN and ok=False.  So are
arguments large enough that a lattice coordinate can reach
`MAX_LATTICE_COORD` = 2^20 (|z| from about 2.8e6 on this lattice).  Such
a coordinate keeps fewer than 32 of its 52 fraction bits, and the reduced
argument loses the rest as |z| grows: at |z| = 1e16 it is rounding noise
and wp a meaningless finite value.  Below the limit the reduced argument
is off by less than 1e-9 (at most 3.7e-10 over 3000 points with
coordinates up to the limit, against exact rational arithmetic).
"""

from __future__ import annotations

import cmath
import math
import sys
from types import ModuleType

import numpy as np

from .errors import PoleHitError

__all__ = ["OMEGA1", "OMEGA2", "E1", "POLE_RADIUS", "wp_many", "wp_pair", "default_context"]

#: real half-period of the (g2, g3) = (0, 1) lattice: Gamma(1/3)^3 / (4 pi)
OMEGA1 = math.gamma(1.0 / 3.0) ** 3 / (4.0 * math.pi)

#: second half-period: the lattice is hexagonal
OMEGA2 = OMEGA1 * cmath.exp(1j * math.pi / 3.0)

#: real branch point: the real root of 4 t^3 - 1, equals wp(omega1)
E1 = 0.25 ** (1.0 / 3.0)

#: wp_many rejects lanes whose reduced argument is closer than this to 0
POLE_RADIUS = 1e-2


def _laurent_coefficients(order: int) -> np.ndarray:
    """c[k] such that wp(z) = z^-2 + sum_{k>=2} c[k] z^(2k-2), for g2=0, g3=1."""
    c = np.zeros(order + 1)
    c[3] = 1.0 / 28.0  # g3/28; c[2] = g2/20 = 0
    for k in range(4, order + 1):
        acc = 0.0
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    return c


#: wp_many rejects lanes whose lattice coordinates can reach this modulus
MAX_LATTICE_COORD = 2.0**20

_B1, _B2 = 2.0 * complex(OMEGA1), 2.0 * OMEGA2
_DET = _B1.real * _B2.imag - _B2.real * _B1.imag
#: z = s b1 + t b2: (s, t) = (m00 x + m01 y, m10 x + m11 y) for z = x + iy
_INV = (_B2.imag / _DET, -_B2.real / _DET, -_B1.imag / _DET, _B1.real / _DET)
#: |z| below which both lattice coordinates stay under MAX_LATTICE_COORD,
#: as |s| <= |(m00, m01)| |z| and |t| <= |(m10, m11)| |z|
_MAX_ABS = MAX_LATTICE_COORD / max(math.hypot(*_INV[:2]), math.hypot(*_INV[2:]))

_COEFFS = _laurent_coefficients(36)
_COEFFS.setflags(write=False)
#: Horner coefficients in u^6 of wp and of wp': c[k] is zero unless 3
#: divides k, so wp(z) = z^-2 + z^4 sum_j c[3j+3] z^(6j); wp' takes (6j+4) c[3j+3]
_HORNER = tuple(float(c) for c in _COEFFS[3::3])
_HORNER_D = tuple((6 * j + 4) * c for j, c in enumerate(_HORNER))


def _reduce_array(z: np.ndarray) -> np.ndarray:
    """z minus its nearest lattice point, over a 1-D array."""
    m00, m01, m10, m11 = _INV
    x, y = z.real, z.imag
    s = m00 * x + m01 * y  # lattice coordinates: z = s b1 + t b2
    t = m10 * x + m11 * y
    m = np.floor(s)
    n = np.floor(t)
    s -= m
    t -= n
    # (s, t) lies in the triangle (0, b1, b2) when s + t <= 1, else in
    # (b1, b2, b1 + b2).  As |a b1 + b b2|^2 = |b1|^2 (a^2 + ab + b^2),
    # the squared distance to a vertex, less the one to 0 and in units
    # of |b1|^2, is linear: e1 for b1, e2 for b2, e0 for the corner,
    # 0 or b1 + b2.  The least of the three names the nearest point.
    st = s + t
    upper = st > 1.0
    e0 = np.where(upper, 3.0 - 3.0 * st, 0.0)
    e1 = 1.0 - s - st
    e2 = 1.0 - t - st
    to_b1 = (e1 < e0) & (e1 <= e2)
    to_b2 = (e2 < e0) & (e2 < e1)
    m += (to_b1 | upper) & ~to_b2
    n += (to_b2 | upper) & ~to_b1
    zr = np.empty_like(z)
    zr.real = x - m * _B1.real - n * _B2.real
    zr.imag = y - m * _B1.imag - n * _B2.imag
    return zr


def wp_many(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(wp(z), wp'(z), ok) over an array.

    Each lane reduces z to the cell and sums the order-36 series once
    (see the module docstring for its error).  ok is False near
    lattice points and where z is too large to reduce; those lanes
    carry NaN in both values.
    """
    z = np.asarray(z, dtype=np.complex128)
    shape = z.shape
    z = z.reshape(-1)
    u = _reduce_array(z)
    ok = (np.abs(u) >= POLE_RADIUS) & (np.abs(z) < _MAX_ABS)
    with np.errstate(all="ignore"):  # pole lanes divide by ~0; they are masked below
        u2 = u * u
        u3 = u2 * u
        u6 = u3 * u3
        p = np.full_like(u, _HORNER[-1])
        dp = np.full_like(u, _HORNER_D[-1])
        for a, b in zip(_HORNER[-2::-1], _HORNER_D[-2::-1]):
            p *= u6
            p += a
            dp *= u6
            dp += b
        x = 1.0 / u2 + (u2 * u2) * p
        y = -2.0 / u3 + u3 * dp
    bad = ~ok
    x[bad] = y[bad] = np.nan  # x and y are fresh arrays
    return x.reshape(shape), y.reshape(shape), ok.reshape(shape)


def wp_pair(z: complex) -> tuple[complex, complex]:
    """(wp(z), wp'(z)) at one point; raises PoleHitError near the lattice."""
    x, y, ok = wp_many(np.asarray([complex(z)], dtype=np.complex128))
    if not ok[0]:
        raise PoleHitError(
            f"wp argument {z!r} is within {POLE_RADIUS} of a lattice point"
            " or too large to reduce"
        )
    return complex(x[0]), complex(y[0])


def default_context() -> ModuleType:
    """This module, whose `wp_many` is what `eval_blocks(ell=...)` calls.

    perfbench calls it and wraps the result to time `wp_many`; nothing in
    the package calls it.
    """
    return sys.modules[__name__]
