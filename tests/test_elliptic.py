import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from fermat_pdde.elliptic import (
    _COEFFS,
    E1,
    OMEGA1,
    OMEGA2,
    POLE_RADIUS,
    _reduce_array,
    wp_many,
    wp_pair,
)
from fermat_pdde.errors import PoleHitError

from conftest import load_script

#: wp(0.1) from the exact-fraction Laurent series (frozen oracle value)
WP_AT_TENTH = 100.00000357142858


def exact_laurent(order):
    """Independent coefficient oracle: exact rational recursion for g2=0, g3=1."""
    c = [Fraction(0)] * (order + 1)
    c[3] = Fraction(1, 28)
    for k in range(4, order + 1):
        s = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c[k] = Fraction(3, (2 * k + 1) * (k - 3)) * s
    return c


def sample_cell_points(count, seed=0, min_dist=0.05):
    """Random points of the fundamental cell, away from the lattice pole."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        zr = _reduce_array(np.asarray([z], dtype=np.complex128))[0]
        if abs(zr) > min_dist:
            out.append(z)
    return np.asarray(out, dtype=np.complex128)


class TestHalfPeriods:
    def test_real_half_period_against_quadrature(self):
        # omega1 = integral from e1 to infinity of dt/sqrt(4t^3-1); t = e1+s^2
        def integrand(s):
            t = E1 + s * s
            return 2.0 * s / math.sqrt(4.0 * t**3 - 1.0)

        value, err = quad(integrand, 0.0, np.inf, limit=200)
        assert err < 1e-8
        assert abs(OMEGA1 - value) < 1e-8

    def test_lattice_ratio(self):
        assert abs(OMEGA2 / OMEGA1 - cmath.exp(1j * math.pi / 3)) < 1e-15

    def test_value_at_real_half_period(self):
        x, y = wp_pair(OMEGA1)
        assert abs(x - E1) < 1e-8  # wp(omega1) = (1/4)^(1/3)
        assert abs(y) < 1e-10  # critical point

    def test_rotation_covariance(self):
        # g2 = 0 makes the lattice hexagonal: wp(w z) = w wp(z) for w = e^{2 pi i/3}
        w = cmath.exp(2j * math.pi / 3)
        for z in sample_cell_points(50, seed=1):
            x, y = wp_pair(z)
            xr, yr = wp_pair(w * z)
            assert abs(xr - w * x) / max(1, abs(x)) < 1e-12
            assert abs(yr - y) / max(1, abs(y)) < 1e-12  # wpd has weight 3: w^-3 = 1


class TestLaurentSeries:
    def test_coefficients_match_exact_recursion(self):
        assert not _COEFFS.flags.writeable
        exact = exact_laurent(len(_COEFFS) - 1)
        for k, c in enumerate(_COEFFS):
            assert abs(c - float(exact[k])) <= 1e-17 * max(1.0, abs(float(exact[k])))

    def test_known_low_order_values(self):
        exact = exact_laurent(12)
        assert exact[3] == Fraction(1, 28)
        assert exact[6] == Fraction(1, 10192)
        assert exact[9] == Fraction(1, 5422144)
        assert exact[4] == exact[5] == exact[7] == exact[8] == 0

    def test_value_near_origin(self):
        # oracle: exact rational series at z=1/10, order >= 10
        exact = exact_laurent(40)
        z = Fraction(1, 10)
        wp_exact = 1 / z**2 + sum(exact[k] * z ** (2 * k - 2) for k in range(2, 41))
        assert abs(float(wp_exact) - WP_AT_TENTH) < 1e-9
        x, _ = wp_pair(0.1)
        assert abs(x - WP_AT_TENTH) < 1e-9 * WP_AT_TENTH


    def test_kernel_against_exact_series(self):
        # the Laurent series converges for |z| < |b1| ~ 3.06, so it is an
        # oracle on the whole cell; the kernel sums the same series, to
        # fewer terms, on every lane
        c = [float(v) for v in exact_laurent(60)]
        rng = np.random.default_rng(9)
        z = rng.uniform(0.05, 1.76, 3000) * np.exp(2j * np.pi * rng.random(3000))
        x_ref = z**-2 + sum(c[k] * z ** (2 * k - 2) for k in range(2, 61))
        y_ref = -2 * z**-3 + sum(c[k] * (2 * k - 2) * z ** (2 * k - 3) for k in range(2, 61))
        x, y, ok = wp_many(z)
        assert ok.all()
        for val, ref in ((x, x_ref), (y, y_ref)):
            err = np.abs(val - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() <= 1e-14

    def test_series_covers_the_cell(self):
        # a reduced argument lies in the Voronoi cell, a hexagon of
        # circumradius 2 omega1 / sqrt(3) ~ 1.767, inside the series' disc
        # of convergence, |z| < |b1| = 2 omega1
        circumradius = 2 * OMEGA1 / math.sqrt(3)
        assert circumradius < 2 * OMEGA1
        vertices = (2 * OMEGA1 + 2 * OMEGA2) / 3 * np.exp(1j * np.pi / 3 * np.arange(6))
        t = np.linspace(0.0, 1.0, 101)[:, None]
        edges = vertices + t * (np.roll(vertices, -1) - vertices)
        rng = np.random.default_rng(12)
        far = 10 ** rng.uniform(-1, 6, 10_000) * np.exp(2j * np.pi * rng.random(10_000))
        r = np.abs(_reduce_array(np.concatenate([vertices, edges.ravel(), far])))
        assert r.size == 6 + 606 + 10_000
        assert r[:6] == pytest.approx(circumradius, rel=1e-12)
        assert r.max() <= circumradius * (1 + 1e-12)


class TestIdentities:
    def test_differential_equation(self):
        pts = sample_cell_points(100, seed=2, min_dist=POLE_RADIUS)
        x, y, ok = wp_many(pts)
        assert ok.all()
        res = y**2 - 4 * x**3 + 1
        scale = np.maximum(1.0, np.abs(4 * x**3))
        assert (np.abs(res) / scale).max() < 1e-14

    def test_evenness(self):
        pts = sample_cell_points(100, seed=3)
        xp, yp, _ = wp_many(pts)
        xm, ym, _ = wp_many(-pts)
        assert (np.abs(xp - xm) / np.maximum(1, np.abs(xp))).max() < 1e-10
        assert (np.abs(yp + ym) / np.maximum(1, np.abs(yp))).max() < 1e-10

    def test_double_periodicity(self):
        pts = sample_cell_points(100, seed=4)
        x0, y0, _ = wp_many(pts)
        for period in (2 * OMEGA1, 2 * OMEGA2):
            x1, y1, _ = wp_many(pts + period)
            assert (np.abs(x1 - x0) / np.maximum(1, np.abs(x0))).max() < 1e-9
            assert (np.abs(y1 - y0) / np.maximum(1, np.abs(y0))).max() < 1e-9

    def test_derivative_against_finite_differences(self):
        step = 1e-5
        pts = sample_cell_points(60, seed=5, min_dist=0.15)
        x, y, _ = wp_many(pts)
        xp, _, _ = wp_many(pts + step)
        xm, _, _ = wp_many(pts - step)
        fd = (xp - xm) / (2 * step)
        assert (np.abs(fd - y) / np.maximum(1.0, np.abs(y))).max() < 1e-5


def test_default_context_is_the_module():
    # perfbench calls default_context() and passes it, or a proxy of its
    # wp_many, as `ell`: it is the module, not a bound-method holder
    import fermat_pdde
    from fermat_pdde import elliptic

    assert fermat_pdde.default_context() is elliptic
    assert fermat_pdde.default_context().wp_many is elliptic.wp_many


def reduced(*z):
    """_reduce_array of the given points, as a complex array."""
    return _reduce_array(np.asarray(z, dtype=np.complex128))


class TestReduction:
    def test_lattice_translate_reduces_identically(self):
        z = 0.3 + 0.41j
        r0, r1, r2 = reduced(z, z + 2 * OMEGA1, z + 4 * OMEGA2)
        assert abs(r1 - r0) < 1e-12
        assert abs(r2 - r0) < 1e-12

    def test_already_reduced(self):
        assert complex(reduced(0.1)[0]) == pytest.approx(0.1)

    def test_wp_invariant_under_reduction(self):
        pts = sample_cell_points(100, seed=6)
        x0, _, _ = wp_many(pts)
        x1, _, _ = wp_many(_reduce_array(pts))
        assert (np.abs(x1 - x0) / np.maximum(1, np.abs(x0))).max() < 1e-9

    def test_reduced_point_in_voronoi_cell(self):
        circumradius = 2 * OMEGA1 / math.sqrt(3)
        assert np.abs(_reduce_array(sample_cell_points(200, seed=7))).max() <= circumradius + 1e-9

    def test_translate_near_a_million_reduces_identically(self):
        # below the size limit wp_many applies, a lattice translate keeps
        # its representative to 1e-9
        z = 1e6 + 0.3j
        r0, r1 = reduced(z, z + 2 * OMEGA1)
        assert abs(r1 - r0) < 1e-9

    def test_nearest_lattice_point_by_brute_force(self):
        # the reduction looks at three vertices of one Delaunay triangle; the
        # nearest of a 4x4 block of lattice points around z must be the same
        b1, b2 = 2 * OMEGA1, 2 * OMEGA2
        rng = np.random.default_rng(8)
        s, t = rng.uniform(-12, 12, (2, 3000))
        e = rng.random(3000)
        # points on triangle edges: s or t an integer, or s + t an integer
        s[:500] = np.round(s[:500])
        t[500:1000] = np.round(t[500:1000])
        t[1000:1500] = np.round(s[1000:1500] + t[1000:1500]) - s[1000:1500]
        s[1500:1600] = np.floor(s[1500:1600]) + e[1500:1600]  # the diagonal b1 -> b2, exactly
        t[1500:1600] = np.floor(t[1500:1600]) + 1.0 - e[1500:1600]
        z = s * b1 + t * b2
        zr = _reduce_array(z)
        lat = np.stack(np.meshgrid(np.arange(-2, 3), np.arange(-2, 3)), -1).reshape(-1, 2)
        base_s, base_t = np.floor(s), np.floor(t)
        cands = z[:, None] - ((base_s[:, None] + lat[:, 0]) * b1 + (base_t[:, None] + lat[:, 1]) * b2)
        dist = np.abs(cands)
        best = dist.min(axis=1)
        second = np.sort(dist, axis=1)[:, 1]
        clear = second - best > 1e-9  # no Voronoi tie (an edge midpoint, say)
        assert clear.sum() > 2900
        nearest = cands[np.arange(len(z)), dist.argmin(axis=1)]
        assert np.abs(zr - nearest)[clear].max() < 1e-12
        assert (np.abs(zr) <= best + 1e-12).all()  # ties: either nearest point

class TestPoleGuard:
    def test_near_origin(self):
        with pytest.raises(PoleHitError):
            wp_pair(0.005)

    def test_near_translated_lattice_point(self):
        with pytest.raises(PoleHitError):
            wp_pair(2 * OMEGA2 + 0.003j)

    def test_arguments_too_large_to_reduce_are_rejected(self):
        # at |z| = 1e16 the lattice coordinates keep no fraction bits, so a
        # reduced argument would be rounding noise
        z = np.asarray([1e16 + 0.3j, 1e16 + 0.3j + 2 * OMEGA1])
        x, y, ok = wp_many(z)
        assert not ok.any()
        assert np.isnan(x.real).all() and np.isnan(y.real).all()
        with pytest.raises(PoleHitError):
            wp_pair(z[0])

    def test_arguments_near_a_million_keep_their_values(self):
        x, y, ok = wp_many(np.asarray([1e6 + 0.3j, -7e5 + 7e5j, 0.25 - 1e6j]))
        assert ok.all()
        # reference values from the same kernel with no size limit
        x_before = [1.3035957950915522 - 1.6329801298112452j,
                    0.5348785511456051 - 0.08674808415711666j,
                    -0.5527771308946647 + 0.32321221732108985j]
        y_before = [-1.330485868338757 + 5.968539826944024j,
                    -0.21272656201980045 + 0.6938653658952822j,
                    0.4772263225821396 + 1.1001904541192706j]
        # equal to the bit on an x86-64 host; the margin allows another
        # CPU's fused multiply-adds
        assert x == pytest.approx(x_before, rel=1e-12)
        assert y == pytest.approx(y_before, rel=1e-12)

    def test_batch_flags_instead_of_raising(self):
        x, y, ok = wp_many(np.asarray([0.005 + 0j, 0.5 + 0.2j]))
        assert not ok[0] and ok[1]
        assert np.isnan(x[0].real)


#: wp_many's byte pin per numpy loop family.  Complex multiply and complex
#: abs round otherwise with FMA, so the X86_V3 loops (AVX2 + FMA3) and the
#: wider ones return one set of bits and the SSE4.2 baseline (X86_V2)
#: another, recorded under
#: NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3"
WP_MANY_PINS = {
    "X86_V3": "a017986ff0c2353c6015da041c3459b4061f9e5cafe4269f219eda9b65b4435e",
    "X86_V2": "bfc97a04926afc27d7ac00f9166018e8f7497ed1d552173627c73785e81fbaa3",
}


def test_wp_many_is_pinned():
    # x, y and ok of 4096 arguments, pole lanes (|zr| < 1e-2) and lanes
    # beyond the reduction limit among them, recorded on x86-64 with numpy
    # 2.4 once wp_many summed the order-36 series on every lane.  The
    # magnitudes come from ldexp of integer draws, not from a real pow:
    # pow returns other bits on numpy's AVX2 loops than on its AVX-512
    # ones, ldexp returns the same, so the input is one on every target
    rng = np.random.default_rng(2026)
    k = rng.integers(0, 14 * 64, 4096)
    z = np.ldexp(1 + (k % 64) / 64, k // 64) * (rng.uniform(-1, 1, 4096) + 1j * rng.uniform(-1, 1, 4096))
    b1, b2 = 2 * OMEGA1, 2 * OMEGA1 * cmath.exp(1j * math.pi / 3)
    m, n = rng.integers(-50, 50, (2, 65))
    z[:65] = m * b1 + n * b2 + 0.02 * np.exp(2j * np.pi * rng.random(65)) * rng.random(65)
    z[65:73] = 3e6 * np.exp(2j * np.pi * rng.random(8))
    x, y, ok = wp_many(z)
    assert (~ok).sum() == 39
    family = "X86_V2" if load_script("bench_pipeline").simd_target() == "X86_V2" else "X86_V3"
    assert hashlib.sha256(x.tobytes() + y.tobytes() + ok.tobytes()).hexdigest() == WP_MANY_PINS[family]
