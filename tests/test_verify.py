import json
import math

import numpy as np
import pytest

from fermat_pdde.errors import EstimationError, ProblemSpecError
from fermat_pdde.expr import Const, Div, Neg, Var, Add
from fermat_pdde.operators import PDDEProblem, residual, scale_terms
from fermat_pdde.parser import parse
from fermat_pdde.verify import (
    GrowthEstimate,
    SamplingPolicy,
    check_residual,
    default_radii,
    estimate_order,
    sample_points,
    verify_problem,
)

from test_expr import F_EX1

PI = math.pi


class TestSamplePoints:
    def test_deterministic_for_fixed_seed(self):
        p = SamplingPolicy(samples=3, seed=42)
        assert np.array_equal(sample_points(p, 4), sample_points(p, 4))

    def test_seed_changes_points(self):
        a = sample_points(SamplingPolicy(samples=10, seed=1), 2)
        b = sample_points(SamplingPolicy(samples=10, seed=2), 2)
        assert not np.allclose(a, b)

    def test_moduli_within_radius(self):
        p = SamplingPolicy(samples=500, radius=1.7, seed=3)
        pts = sample_points(p, 3)
        assert np.abs(pts).max() <= 1.7 + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("radius", [1.1, 1.2, 2.0, 8.0])
    def test_bit_equal_to_polar_formula(self, n, radius):
        for seed in (0, 1, 42):
            rng = np.random.default_rng(seed)
            u = rng.random((300, n))
            theta = rng.random((300, n))
            expect = radius * np.sqrt(u) * np.exp(2j * np.pi * theta)
            got = sample_points(SamplingPolicy(samples=300, radius=radius, seed=seed), n)
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    def test_empirical_mean_near_zero(self):
        p = SamplingPolicy(samples=400, radius=2.0, seed=4)
        pts = sample_points(p, 2)
        assert abs(pts.mean()) <= 3 * 2.0 / math.sqrt(400)

    def test_policy_validation(self):
        with pytest.raises(ProblemSpecError):
            SamplingPolicy(samples=0)
        with pytest.raises(ProblemSpecError):
            SamplingPolicy(radius=-1.0)
        with pytest.raises(ProblemSpecError):
            SamplingPolicy(tol=0.0)


class TestCheckResidual:
    def test_zero_residual_passes_with_zero_max(self):
        rep = check_residual(Const(0.0), [Const(1.0)], SamplingPolicy(), 2)
        assert rep.passed
        assert rep.max_abs_residual == 0.0
        assert rep.max_rel_residual == 0.0

    def test_bad_candidate_fails_loudly(self):
        p = PDDEProblem(kind="fte", n=2, m1=2, c=(1.0, 0.0), phi=Const(1.0))
        rep = verify_problem(p, parse("z1^2", 2))
        assert not rep.passed
        assert rep.max_rel_residual > 0.1

    def test_example4_passes_default_policy(self):
        p = PDDEProblem(kind="fte", n=3, m1=2, c=(0, PI * 1j, PI * 1j), phi=Const(1.0))
        f = parse("1 - z1^2/4 + z1*exp(z2+z3) - exp(2*z2+2*z3)", 3)
        rep = verify_problem(p, f)
        assert rep.passed
        assert rep.points_tested == 200
        assert rep.points_skipped == 0

    def test_identically_singular_residual_fails_by_skip_guard(self):
        res = Div(Const(1.0), Add((Var(1), Neg(Var(1)))))  # 1/(z1 - z1)
        rep = check_residual(res, [], SamplingPolicy(), 1)
        assert rep.points_skipped == 200
        assert not rep.passed

    def test_guard_skips_points(self):
        rep = check_residual(Const(0.0), [], SamplingPolicy(), 1, guards=[(Var(1), 10.0)])
        assert rep.points_skipped == 200
        assert not rep.passed

    def test_partial_guard_counts(self):
        # skip where |z1| < 1: some but not most points at radius 2
        rep = check_residual(Const(0.0), [], SamplingPolicy(), 1, guards=[(Var(1), 1.0)])
        assert 0 < rep.points_skipped < 100
        assert rep.passed

    def test_scale_prevents_false_pass_on_cancellation(self):
        # residual == z1 is not small, and scale terms of size 1 keep it visible
        rep = check_residual(Var(1), [Const(1.0)], SamplingPolicy(), 1)
        assert not rep.passed

    def test_huge_finite_scale_keeps_points(self):
        # |v| overflows for this finite value, but the point stays:
        # finiteness is judged on values, not on their moduli
        big = Const(complex(1.5e308, 1.5e308))
        rep = check_residual(Var(1) * 1e-3, [big], SamplingPolicy(samples=50), 1)
        assert rep.points_tested == 50 and rep.points_skipped == 0

    def test_overflowing_scale_does_not_pass_a_residual(self):
        # the scale's modulus overflows to inf; the ratio is still
        # 1e308 / |1.5e308 + 1.5e308j| = 0.4714, far above the tolerance
        big = Const(complex(1.5e308, 1.5e308))
        rep = check_residual(Const(1e308), [big], SamplingPolicy(samples=50), 1)
        assert rep.points_tested == 50
        assert not rep.passed
        assert rep.max_rel_residual == pytest.approx(1 / (1.5 * math.sqrt(2)), rel=1e-15)

    def test_report_serialization_deterministic(self):
        p = PDDEProblem(kind="fte", n=5, m1=2,
                        c=(PI * 1j, 0, 2j * PI, 5j * PI, 2j * PI),
                        phi=parse("exp(z2+z3-2*z4) + z3 - z4 + z5", 5))
        reps = [verify_problem(p, F_EX1) for _ in range(2)]
        assert reps[0].to_json() == reps[1].to_json()
        assert reps[0].to_text() == reps[1].to_text()
        decoded = json.loads(reps[0].to_json())
        assert decoded["verdict"] == "pass"
        assert decoded["policy"]["samples"] == 200


class TestEstimateOrder:
    def test_exponential_of_linear_form_has_order_one(self):
        est = estimate_order(parse("exp(z1+z2)", 2), 2)
        assert 0.85 <= est.rho_hat <= 1.15
        assert est.ladder_truncated  # e^{r sqrt 2} overflows before r = 1024

    def test_example1_has_order_two(self):
        est = estimate_order(F_EX1, 5)
        assert 1.8 <= est.rho_hat <= 2.2

    def test_polynomial_has_near_zero_order(self):
        est = estimate_order(parse("z1^3*z2", 2), 2)
        assert est.rho_hat <= 0.2
        assert not est.ladder_truncated

    def test_deterministic(self):
        a = estimate_order(parse("exp(z1+z2)", 2), 2)
        b = estimate_order(parse("exp(z1+z2)", 2), 2)
        assert a.to_json() == b.to_json()

    def test_stable_under_direction_doubling(self):
        for text, n in (("exp(z1+z2)", 2), ("z1^3*z2", 2)):
            e = parse(text, n)
            a = estimate_order(e, n, directions=200)
            b = estimate_order(e, n, directions=400)
            assert abs(a.rho_hat - b.rho_hat) < 0.1
        a = estimate_order(F_EX1, 5, directions=200)
        b = estimate_order(F_EX1, 5, directions=400)
        assert abs(a.rho_hat - b.rho_hat) < 0.1

    def test_max_modulus_nondecreasing(self):
        est = estimate_order(parse("exp(z1+z2)", 2), 2)
        assert all(b >= a for a, b in zip(est.max_modulus, est.max_modulus[1:]))

    def test_pole_hits_abort(self):
        # every point of these circles lies inside the wp pole guard
        with pytest.raises(EstimationError):
            estimate_order(parse("wp(z1)", 1), 1, radii=(0.001, 0.002))

    def test_needs_increasing_radii(self):
        with pytest.raises(EstimationError):
            estimate_order(parse("z1", 1), 1, radii=(4.0, 4.0))
        with pytest.raises(EstimationError):
            estimate_order(parse("z1", 1), 1, radii=(4.0,))

    def test_pole_past_the_overflow_does_not_raise(self):
        # exp(exp(z1)) overflows from radius 8 on; exp(-z1/10) drops below
        # the pole threshold only past radius 276, which is never read
        est = estimate_order(parse("exp(exp(z1))/exp(-z1/10)", 1), 1, seed=3)
        assert est.ladder_truncated
        assert est.radii == default_radii()[:2]

    def test_reports_usable_prefix(self):
        est = estimate_order(F_EX1, 5)
        assert est.ladder_truncated
        assert est.radii[-1] < default_radii()[-1]
        assert len(est.radii) >= 2
        assert est.fit_radii == tuple(sorted(est.radii[-2:]))

    def test_to_text_mentions_rho(self):
        est = estimate_order(parse("z1^3*z2", 2), 2)
        assert "rho_hat" in est.to_text()
        assert isinstance(est, GrowthEstimate)
