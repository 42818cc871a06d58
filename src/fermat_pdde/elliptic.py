"""Weierstrass wp and wp' for the normalization (wp')^2 = 4 wp^3 - 1.

The invariant pair (g2, g3) = (0, 1) fixes a hexagonal period lattice:
the real half-period is omega1 = Gamma(1/3)^3 / (4 pi) and the second
half-period is omega2 = omega1 * e^{i pi/3}.  Evaluation reduces the
argument to the Voronoi cell of the lattice, sums the Laurent series
there, and applies the curve's point-doubling step when the reduced
argument is too large for fast series convergence (at most two halvings
are ever needed: the cell circumradius is about 1.767).

Arguments within `pole_radius` of a lattice point are reported as pole
hits, never evaluated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import PoleHitError

__all__ = ["EllipticContext", "default_context", "half_periods", "OMEGA1", "E1"]

#: real half-period of the (g2, g3) = (0, 1) lattice: Gamma(1/3)^3 / (4 pi)
OMEGA1 = math.gamma(1.0 / 3.0) ** 3 / (4.0 * math.pi)

#: real branch point: the real root of 4 t^3 - 1, equals wp(omega1)
E1 = 0.25 ** (1.0 / 3.0)

#: reduce_point refuses arguments closer than this to a lattice point
LATTICE_EPS = 1e-8


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


@dataclass(frozen=True, eq=False)
class EllipticContext:
    """Immutable evaluation context for wp/wpd; safe to share across threads."""

    omega1: complex
    omega2: complex
    coeffs: np.ndarray
    series_radius: float
    pole_radius: float
    _inv: tuple[float, float, float, float] = field(repr=False, default=(0.0,) * 4)

    @staticmethod
    def create(order: int = 32, series_radius: float = 0.95, pole_radius: float = 1e-2) -> "EllipticContext":
        w1 = complex(OMEGA1)
        w2 = OMEGA1 * cmath.exp(1j * math.pi / 3.0)
        b1, b2 = 2.0 * w1, 2.0 * w2
        det = b1.real * b2.imag - b2.real * b1.imag
        inv = (b2.imag / det, -b2.real / det, -b1.imag / det, b1.real / det)
        coeffs = _laurent_coefficients(order)
        coeffs.setflags(write=False)
        return EllipticContext(w1, w2, coeffs, series_radius, pole_radius, inv)

    def half_periods(self) -> tuple[complex, complex]:
        return self.omega1, self.omega2

    @property
    def b1(self) -> complex:
        return 2.0 * self.omega1

    @property
    def b2(self) -> complex:
        return 2.0 * self.omega2

    # -- reduction ---------------------------------------------------------

    def _reduce_array(self, z: np.ndarray) -> np.ndarray:
        m00, m01, m10, m11 = self._inv
        mu = np.rint(m00 * z.real + m01 * z.imag)
        nu = np.rint(m10 * z.real + m11 * z.imag)
        zr = z - mu * self.b1 - nu * self.b2
        best = zr.copy()
        best_abs = np.abs(zr)
        # rounding in an oblique basis is not always nearest; check neighbors
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                if dm == 0 and dn == 0:
                    continue
                cand = zr - (dm * self.b1 + dn * self.b2)
                cand_abs = np.abs(cand)
                closer = cand_abs < best_abs
                best = np.where(closer, cand, best)
                best_abs = np.where(closer, cand_abs, best_abs)
        return best

    def reduce_point(self, z: complex) -> complex:
        """Representative of z in the Voronoi cell of the lattice around 0."""
        zr = complex(self._reduce_array(np.asarray([complex(z)], dtype=np.complex128))[0])
        if abs(zr) < LATTICE_EPS:
            raise PoleHitError(f"point {z!r} is within {LATTICE_EPS} of a lattice point")
        return zr

    # -- evaluation --------------------------------------------------------

    def wp_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(wp(z), wp'(z), ok) over an array; ok is False near lattice points."""
        z = np.asarray(z, dtype=np.complex128)
        zr = self._reduce_array(z)
        ok = np.abs(zr) >= self.pole_radius
        zs = np.where(ok, zr, 1.0)  # placeholder value on bad lanes
        halvings = np.zeros(z.shape, dtype=np.int64)
        for _ in range(2):
            halvings += np.abs(zs) / 2.0**halvings > self.series_radius
        u = zs / 2.0**halvings
        u2 = u * u
        p = np.zeros_like(u)
        dp = np.zeros_like(u)
        c = self.coeffs
        for k in range(len(c) - 1, 1, -1):
            p = p * u2 + c[k]
            dp = dp * u2 + (2 * k - 2) * c[k]
        x = 1.0 / u2 + u2 * p
        y = -2.0 / (u2 * u) + u * dp
        with np.errstate(all="ignore"):
            for step in range(2):
                active = halvings > step
                lam = 6.0 * x * x / np.where(active, y, 1.0)
                xn = 0.25 * lam * lam - 2.0 * x
                yn = -(y + lam * (xn - x))
                x = np.where(active, xn, x)
                y = np.where(active, yn, y)
        x = np.where(ok, x, np.nan)
        y = np.where(ok, y, np.nan)
        return x, y, ok

    def wp_pair(self, z: complex) -> tuple[complex, complex]:
        """(wp(z), wp'(z)) at one point; raises PoleHitError near the lattice."""
        x, y, ok = self.wp_many(np.asarray([complex(z)], dtype=np.complex128))
        if not ok[0]:
            raise PoleHitError(
                f"wp argument {z!r} is within {self.pole_radius} of a lattice point"
            )
        return complex(x[0]), complex(y[0])


@lru_cache(maxsize=1)
def default_context() -> EllipticContext:
    return EllipticContext.create()


def half_periods() -> tuple[complex, complex]:
    """Half-periods (omega1, omega2) of the lattice with (g2, g3) = (0, 1)."""
    return default_context().half_periods()
