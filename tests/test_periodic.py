import math

import numpy as np
import pytest

from fermat_pdde.backends import eval_batch
from fermat_pdde.errors import ConstructionError, ProblemSpecError
from fermat_pdde.expr import Const, Exp, shift, uses_wp
from fermat_pdde.operators import LinearPDOperator, apply_linear_operator
from fermat_pdde.periodic import (
    PeriodicSpec,
    make_periodic,
    make_polynomial_quasi_periodic,
    make_quasi_periodic,
    omega_expr,
)

from conftest import disc_points, rel_err
from oracle import evaluate

PI = math.pi


def contains_exp(e):
    if isinstance(e, Exp):
        return True
    return any(contains_exp(c) for c in e._kids)


def ambient_shift(cprime, basis):
    """A full shift vector whose basis-coordinate move equals cprime."""
    cprime = tuple(complex(x) for x in cprime)
    if basis == "t1":
        return (0.0,) + cprime
    return (0.0,) + cprime[:1] + cprime[1:]  # z1 fixed: z2-z1 moves by cprime[0]


def check_increment(g, cprime, basis, increment, n, tol=1e-9, seed=60):
    c = ambient_shift(cprime, basis)
    delta = shift(g, c) - g - Const(increment)
    pts = disc_points(seed, 50, n, radius=1.5)
    dv, dok = eval_batch(delta, pts)
    gv, gok = eval_batch(g, pts)
    assert (dok & gok).all()
    rel = np.abs(dv) / np.maximum(1.0, np.abs(gv))
    assert rel.max() < tol, f"max increment violation {rel.max():.3e}"


class TestMakePeriodic:
    def test_single_frequency_matches_plain_exponential(self):
        # period 2*pi*i in one variable: the same law exp(z2) obeys
        g = make_periodic((2j * PI,), 1, seed=1)
        assert contains_exp(g)
        check_increment(g, (2j * PI,), "t1", 0.0, 2)

    def test_example4_geometry(self):
        check_increment(make_periodic((PI * 1j, PI * 1j), 1, seed=2), (PI * 1j, PI * 1j), "t1", 0.0, 3)

    def test_periodicity_many_draws(self):
        for seed in range(8):
            cprime = (0.9 + 0.4j, -1.1, 1.3j)
            g = make_periodic(cprime, 2, seed=seed)
            check_increment(g, cprime, "t1", 0.0, 4, seed=61 + seed)

    def test_determinism(self):
        a = make_periodic((1.0, 1.5), 3, seed=7)
        b = make_periodic((1.0, 1.5), 3, seed=7)
        assert a == b
        assert a != make_periodic((1.0, 1.5), 3, seed=8)

    def test_zero_period_rejected(self):
        with pytest.raises(ConstructionError):
            make_periodic((0, 0), 1, seed=0)

    def test_integrality_invariant(self):
        spec = PeriodicSpec.random((1.2, -0.8 + 0.5j), 4, seed=3)
        for a in spec.freqs:
            ip = sum(x * y for x, y in zip(a, spec.cprime))
            assert abs(ip - round(ip.real)) < 1e-12

    def test_non_integral_spec_rejected(self):
        with pytest.raises(ConstructionError):
            PeriodicSpec(cprime=(1.0,), freqs=((0.5,),), amps=(1.0,))

    def test_t2_basis_annihilated_by_direction_sum(self):
        # numeric check through the generic operator machinery
        g = make_periodic((1.1, 0.7j), 2, seed=4, basis="t2")
        op = LinearPDOperator(n=3, coeffs={(1, 0, 0): Const(1.0), (0, 1, 0): Const(1.0)})
        out = apply_linear_operator(op, g)
        pts = disc_points(62, 50, 3, radius=1.5)
        ov, _ = eval_batch(out, pts)
        gv, _ = eval_batch(g, pts)
        assert (np.abs(ov) / np.maximum(1, np.abs(gv))).max() < 1e-10


class TestMakeQuasiPeriodic:
    def test_example1_geometry(self):
        # cprime = (0, 2 pi i, 5 pi i, 2 pi i), c1 = pi i: increment pi*i/2, tilt 1/18
        cprime = (0.0, 2j * PI, 5j * PI, 2j * PI)
        c1 = PI * 1j
        g = make_quasi_periodic(cprime, c1, 2, seed=5)
        check_increment(g, cprime, "t1", c1 / 2.0, 5)
        tau = sum(cprime)
        assert abs(c1 / (2 * tau) - 1.0 / 18.0) < 1e-15

    def test_zero_c1_reduces_to_periodic(self):
        cprime = (1.0, -1.0)  # tau = 0 is fine when c1 = 0
        g = make_quasi_periodic(cprime, 0.0, 2, seed=6)
        check_increment(g, cprime, "t1", 0.0, 3)

    def test_zero_tau_with_nonzero_c1_rejected(self):
        with pytest.raises(ConstructionError):
            make_quasi_periodic((1.0, -1.0), 2.0, 2, seed=7)

    def test_t2_basis_increment(self):
        cprime = (0.8, 1.2j, -0.5)
        c1 = 0.6 + 0.2j
        g = make_quasi_periodic(cprime, c1, 2, seed=8, basis="t2")
        check_increment(g, cprime, "t2", c1 / 2.0, 4)


class TestPolynomialQuasiPeriodic:
    def test_example3_geometry_increment_is_seven(self):
        # cprime = (1, 3, 5), c1 = 14: the polynomial gains c1/2 = 7 per step
        g = make_polynomial_quasi_periodic((1.0, 3.0, 5.0), 14.0, seed=9)
        check_increment(g, (1.0, 3.0, 5.0), "t1", 7.0, 4)

    def test_no_exponentials(self):
        g = make_polynomial_quasi_periodic((1.0, 2.0), 3.0, seed=10)
        assert not contains_exp(g)
        assert not uses_wp(g)

    def test_two_variable_case(self):
        # n = 2: no invariant directions, so the tilt alone must do it
        g = make_polynomial_quasi_periodic((2.0 + 1j,), 1.0 - 0.5j, seed=11)
        check_increment(g, (2.0 + 1j,), "t1", (1.0 - 0.5j) / 2.0, 2)

    def test_t2_basis_annihilated(self):
        from fermat_pdde.expr import directional_derivative

        g = make_polynomial_quasi_periodic((1.5, -0.7), 0.9, seed=12, basis="t2")
        d = directional_derivative(g, (1, 1, 0))
        assert d == Const(0.0)

    def test_zero_tau_still_solvable(self):
        # sum of cprime is 0 but the tilted linear form uses conj(cprime)
        cprime = (1.0, -1.0)
        g = make_polynomial_quasi_periodic(cprime, 2.0, seed=13)
        check_increment(g, cprime, "t1", 1.0, 3)


class TestOmegaExpr:
    def test_t1_sum(self):
        om = omega_expr(4, "t1")
        assert evaluate(om, (9.0, 1.0, 2.0, 3.0)) == pytest.approx(6.0)

    def test_t2_sum(self):
        om = omega_expr(4, "t2")
        assert evaluate(om, (1.0, 4.0, 2.0, 3.0)) == pytest.approx(8.0)


@pytest.mark.parametrize("make", [
    lambda seed: PeriodicSpec.random((1.0, 2.0), 2, seed=seed),
    lambda seed: make_periodic((1.0, 2.0), 2, seed=seed),
    lambda seed: make_polynomial_quasi_periodic((1.0, 2.0, 0.5), 1.0, seed=seed),
])
def test_negative_seed_is_malformed_input(make):
    with pytest.raises(ProblemSpecError, match="seed must be >= 0, got -1"):
        make(-1)
    make(0)
    make(None)
