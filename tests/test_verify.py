import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from fermat_pdde import verify
from fermat_pdde.backends import BLOCK, eval_batch
from fermat_pdde.errors import EstimationError, ProblemSpecError
from fermat_pdde.expr import Const, Div, Neg, Var, Add
from fermat_pdde.operators import PDDEProblem, residual, scale_terms
from fermat_pdde.parser import parse
from fermat_pdde.problemfile import load_problem
from fermat_pdde.tape import compile_expr
from fermat_pdde.verify import (
    GrowthEstimate,
    SamplingPolicy,
    _point_blocks,
    check_residual,
    default_radii,
    estimate_order,
    is_identically_zero,
    sample_points,
    strict_json,
    verify_problem,
)

from conftest import FIXTURES
from test_backends import stream_roots
from test_expr import F_EX1

PI = math.pi

#: sample counts around the block boundaries of the streamed checks
BLOCK_COUNTS = (1, 12, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


def disc_reference(samples, n, radius, seed):
    """The sample by its definition: rejection from the square on one large draw."""
    d = 2.0 * np.random.default_rng(seed).random(4 * samples * n + 64) - 1.0
    x, y = d[0::2], d[1::2]
    inside = x * x + y * y < 1.0
    z = radius * (x[inside] + 1j * y[inside])
    assert z.size >= samples * n
    return z[: samples * n].reshape(samples, n)


def _reject_constant(token):
    raise ValueError(f"not standard JSON: {token}")


def example1_problem():
    return PDDEProblem(kind="fte", n=5, m1=2,
                       c=(PI * 1j, 0, 2j * PI, 5j * PI, 2j * PI),
                       phi=parse("exp(z2+z3-2*z4) + z3 - z4 + z5", 5))


def full_array_report(res, scales, policy, n, guards):
    """(tested, max_abs, max_rel) by evaluating and reducing the whole sample at once."""
    k = 1 + len(scales)
    roots = [res, *scales, *(g for g, _ in guards)]
    vals, oks = eval_batch(compile_expr(roots), sample_points(policy, n), pole_eps=policy.pole_eps)
    keep = np.all(oks & np.isfinite(vals), axis=0)
    mags = np.abs(vals)
    for row, (_, floor) in zip(mags[k:], guards):
        keep &= row >= floor
    scale = np.ones(policy.samples)
    for row in mags[1:k]:
        np.maximum(scale, row, out=scale)
    rel = mags[0] / scale
    big = np.flatnonzero(keep & (np.isinf(scale) | np.isinf(mags[0])))
    if big.size:
        half = np.abs(0.5 * vals[:k, big])
        rel[big] = half[0] / np.maximum(0.5, half[1:].max(axis=0, initial=0.0))
    return (int(keep.sum()), float(np.max(mags[0], where=keep, initial=0.0)),
            float(np.max(rel, where=keep, initial=0.0)))


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
    def test_bit_equal_to_rejection_from_the_square(self, n, radius):
        for seed in (0, 1, 42):
            expect = disc_reference(300, n, radius, seed)
            got = sample_points(SamplingPolicy(samples=300, radius=radius, seed=seed), n)
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("samples", BLOCK_COUNTS)
    def test_bit_equal_to_one_generator_across_blocks(self, n, samples):
        # the blocks draw candidates in pieces from the sample's one generator
        # and carry the surplus; the points must be those that one large
        # draw gives
        expect = disc_reference(samples, n, 2.0, 7)
        got = sample_points(SamplingPolicy(samples=samples, seed=7), n)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("samples", BLOCK_COUNTS)
    def test_sample_is_a_prefix_of_a_larger_sample(self, n, samples):
        big = sample_points(SamplingPolicy(samples=3 * BLOCK + 5, radius=3.0, seed=13), n)
        got = sample_points(SamplingPolicy(samples=samples, radius=3.0, seed=13), n)
        assert np.array_equal(got.view(np.uint64), big[:samples].view(np.uint64))

    @pytest.mark.parametrize("block, max_draw", [(5, 1), (5, 3), (BLOCK, 1), (BLOCK, 1000)])
    def test_block_and_draw_sizes_do_not_change_the_sample(self, monkeypatch, block, max_draw):
        policy = SamplingPolicy(samples=BLOCK + 1, seed=19)
        expect = sample_points(policy, 2)
        monkeypatch.setattr(verify, "BLOCK", block)
        monkeypatch.setattr(verify, "_MAX_DRAW", max_draw)
        got = sample_points(policy, 2)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("radius", [1.1, 8.0])
    def test_uniform_on_each_coordinate_disc(self, radius):
        z = sample_points(SamplingPolicy(samples=20_000, radius=radius, seed=23), 3).ravel()
        # |z|^2 / r^2 is uniform on [0, 1]: mean 1/2, variance 1/12
        assert abs(np.mean(np.abs(z) ** 2) / radius**2 - 0.5) <= 4 * math.sqrt(1 / 12 / z.size)
        # each quadrant holds a quarter: binomial with p = 1/4
        counts = np.bincount(2 * (z.real < 0) + (z.imag < 0), minlength=4)
        assert np.all(np.abs(counts - z.size / 4) <= 4 * math.sqrt(z.size * 3 / 16)), counts

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("samples", BLOCK_COUNTS)
    def test_blocks_concatenate_to_the_sample(self, n, samples):
        policy = SamplingPolicy(samples=samples, seed=11)
        blocks = list(_point_blocks(policy, n))
        assert [len(b) for b in blocks[:-1]] == [BLOCK] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= BLOCK
        got = np.concatenate(blocks)
        assert np.array_equal(got.view(np.uint64), sample_points(policy, n).view(np.uint64))

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

    @pytest.mark.parametrize("field, value", [
        ("samples", 1.5), ("samples", "200"), ("samples", True), ("samples", np.int64(200)),
        ("seed", -1), ("seed", 1.5), ("seed", False),
        ("radius", math.inf), ("radius", math.nan), ("radius", "2"),
        ("tol", math.inf), ("tol", None),
        ("pole_eps", -1e-8), ("pole_eps", math.inf), ("pole_eps", math.nan),
        ("radius", 10**400), ("tol", 10**400), ("pole_eps", -10**400),
    ])
    def test_policy_rejects_malformed_values(self, field, value):
        with pytest.raises(ProblemSpecError, match=field):
            SamplingPolicy(**{field: value})

    def test_policy_accepts_boundary_values(self):
        p = SamplingPolicy(samples=1, seed=0, radius=1, tol=1, pole_eps=0.0)
        assert p.samples == 1 and p.pole_eps == 0.0


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

    @pytest.mark.parametrize("samples", [200, 64])
    def test_half_the_sample_skipped_fails(self, samples):
        # a floor between two sampled |z1| skips exactly the points below it
        policy = SamplingPolicy(samples=samples)
        moduli = np.sort(np.abs(sample_points(policy, 1)[:, 0]))
        res = Add((Var(1), Neg(Var(1))))  # z1 - z1, exactly 0
        for skip, passed in ((samples // 2, False), (samples // 2 - 1, True)):
            rep = check_residual(res, [Var(1)], policy, 1, guards=[(Var(1), moduli[skip])])
            assert rep.points_skipped == skip
            assert rep.max_rel_residual == 0.0
            assert rep.passed is passed

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

    def test_overflowing_residual_modulus_reads_inf(self):
        # |1e308 + 1e308*z1| exceeds the largest double at surviving points:
        # inf is the correctly rounded max_abs, while the ratio stays finite
        res = Const(1e308) + Const(1e308) * Var(1)
        rep = check_residual(res, [Const(1e308)], SamplingPolicy(samples=50), 1)
        assert rep.points_tested > 0
        assert rep.max_abs_residual == math.inf
        assert math.isfinite(rep.max_rel_residual)
        assert rep.max_rel_residual > sys.float_info.max / 1e308

    def test_overflowing_modulus_of_a_kept_point_warns_nothing(self):
        # |1.5e308*(1+i)| overflows for the residual and its one scale term:
        # the ratio inf / inf of those lanes is replaced by that of the
        # halved values, and numpy must not warn about the division first
        r = parse("1.5e308*(1+i) + 1e-300*z1", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_residual(r, [r], SamplingPolicy(samples=12), 1)
        assert (rep.points_tested, rep.points_skipped, rep.passed) == (12, 0, False)
        assert (rep.max_abs_residual, rep.max_rel_residual) == (math.inf, 1.0)

    def test_report_serialization_deterministic(self):
        p = example1_problem()
        reps = [verify_problem(p, F_EX1) for _ in range(2)]
        assert reps[0].to_json() == reps[1].to_json()
        assert reps[0].to_text() == reps[1].to_text()
        decoded = json.loads(reps[0].to_json())
        assert decoded["verdict"] == "pass"
        assert decoded["policy"]["samples"] == 200

    def test_report_without_points_is_strict_json(self):
        rep = check_residual(Div(Const(1.0), Add((Var(1), Neg(Var(1))))), [], SamplingPolicy(), 1)
        assert rep.max_abs_residual == math.inf
        decoded = json.loads(rep.to_json(), parse_constant=_reject_constant)
        assert decoded["max_abs_residual"] is None and decoded["max_rel_residual"] is None
        assert "max_abs_residual: inf" in rep.to_text()

    def test_block_without_points_is_not_reduced(self):
        # inf / inf at skipped points must not reach the ratio (a
        # RuntimeWarning on the CLI's stderr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_residual(Const(math.inf), [Const(math.inf)], SamplingPolicy(), 1)
        assert rep.points_tested == 0 and not rep.passed

    def test_strict_json_writes_non_finite_as_null(self):
        payload = {"b": (1.5, -math.inf), "a": {"x": math.nan, "y": [math.inf, 2]}}
        assert strict_json(payload) == '{"a": {"x": null, "y": [null, 2]}, "b": [1.5, null]}'


class TestStreamedCheck:
    """check_residual reduces block by block; the report must not depend on it."""

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("samples", BLOCK_COUNTS)
    def test_bit_equal_to_full_array_reduction(self, n, samples):
        zn = Var(n)
        pole = Var(1) / (Var(1) - 0.5)  # a pole inside the disc: pole_eps skips a ring
        scales = [pole, zn * parse("exp(z1)", 1)]
        res = scales[0] - scales[1] + 1e-9 * Var(1) ** 2
        guards = [(zn, 0.5)]
        policy = SamplingPolicy(samples=samples, seed=5, pole_eps=0.3)
        rep = check_residual(res, scales, policy, n, guards=guards)
        tested, max_abs, max_rel = full_array_report(res, scales, policy, n, guards)
        assert rep.points_tested == tested
        assert rep.points_skipped == samples - tested
        if tested:
            assert (rep.max_abs_residual, rep.max_rel_residual) == (max_abs, max_rel)
            assert rep.passed == (max_rel <= policy.tol and 2 * (samples - tested) < samples)
        if samples > BLOCK:
            assert 0 < samples - tested < samples / 2  # the pole ring and the guard skip points

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("samples", BLOCK_COUNTS)
    def test_keep_is_every_root_ok_and_finite(self, samples, first):
        # a pole-hit lane carries NaN, so _sampled reads `keep` off the
        # values alone; root 0 masks every lane, so the tape without it too
        roots = stream_roots()[first:]
        policy = SamplingPolicy(samples=samples, radius=1.5, seed=19, pole_eps=0.05)
        vals, oks = eval_batch(compile_expr(roots), sample_points(policy, 2), pole_eps=policy.pole_eps)
        keep = np.concatenate([k for _, k in verify._sampled(roots, policy, 2)])
        assert np.array_equal(keep, np.all(oks & np.isfinite(vals), axis=0))
        if first and samples > BLOCK:
            assert not oks.all() and 0 < keep.sum() < samples

    def test_memory_does_not_grow_with_the_sample(self):
        p = example1_problem()
        res, scales = residual(p, F_EX1), scale_terms(p, F_EX1)
        check_residual(res, scales, SamplingPolicy(), 5)  # warm the interned nodes
        tracemalloc.start()
        try:
            rep = check_residual(res, scales, SamplingPolicy(samples=100_000), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.points_tested == 100_000
        # the whole-sample arrays alone came to 15.6 MiB
        assert peak < 4 * 2**20, peak / 2**20


def whole_ladder_reference(f, n, directions, seed=42):
    """estimate_order by evaluating every radius at once with eval_batch, then reading in order."""
    radii = default_radii()
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((directions, n)) + 1j * rng.standard_normal((directions, n))
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0] = 1.0
    dirs = vecs / norms[:, None]
    pts = (np.asarray(radii)[:, None, None] * dirs).reshape(-1, n)
    vals, ok = eval_batch(compile_expr(f), pts, pole_eps=1e-12)
    usable, max_mod, truncated = [], [], False
    for r, row, row_ok in zip(radii, vals.reshape(len(radii), -1), ok.reshape(len(radii), -1)):
        assert row_ok.all()  # no target has a pole before its first overflow
        m = float(np.abs(row).max())
        if not np.isfinite(m):
            truncated = True
            break
        usable.append(r)
        max_mod.append(m)
    fit = [(r, m) for r, m in zip(usable, max_mod) if m > 1.0][:-3:-1]  # the largest first
    if fit[0][1] < fit[1][1]:
        raise EstimationError("max modulus falls")
    x = np.log([r for r, _ in fit])
    y = np.log(np.log([m for _, m in fit]))
    return GrowthEstimate(tuple(usable), tuple(max_mod), float(np.polyfit(x, y, 1)[0]),
                          tuple(sorted(r for r, _ in fit)), truncated, directions, seed)


class TestStreamedOrder:
    """estimate_order streams blocks of whole radii; the estimate must not depend on it."""

    @pytest.mark.parametrize("target", ["example1", "bad_poly", "exp(z1)*z1 - exp(z1)*z1 + z1",
                                        "exp(exp(z1))/exp(-z1/10)"])
    @pytest.mark.parametrize("directions", [1, 240, 241, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_bit_equal_to_whole_ladder(self, target, directions):
        if target.isidentifier():
            loaded = load_problem(FIXTURES / f"{target}.json")
            f, n = loaded.f, loaded.problem.n
        else:
            f, n = parse(target, 1), 1
        try:
            expect = whole_ladder_reference(f, n, directions).to_json()
        except EstimationError:  # one direction of exp(exp(z1)) sees |f| fall
            with pytest.raises(EstimationError, match="max modulus falls"):
                estimate_order(f, n, directions=directions)
        else:
            assert estimate_order(f, n, directions=directions).to_json() == expect

    def test_memory_does_not_grow_with_the_ladder(self):
        estimate_order(F_EX1, 5)  # warm the interned nodes
        tracemalloc.start()
        try:
            est = estimate_order(F_EX1, 5, directions=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.ladder_truncated
        # every radius's points at once came to 174.6 MiB
        assert peak < 32 * 2**20, peak / 2**20


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
        # every point of these circles lies inside the pole guard of 1/z1
        with pytest.raises(EstimationError, match="pole hit at radius 1e-13"):
            estimate_order(parse("1/z1", 1), 1, radii=(1e-13, 2e-13))

    @pytest.mark.parametrize("text", ["wp(z1)", "exp(z1) + wpd(2*z1)"])
    def test_wp_candidates_are_refused(self, text):
        # wp is meromorphic: M(r) is infinite, and the fit of log log M(r)
        # gave rho_hat -1.26 for wp(z1) instead of refusing
        with pytest.raises(EstimationError, match="needs an entire candidate or a quotient of entire ones"):
            estimate_order(parse(text, 1), 1)

    def test_needs_increasing_radii(self):
        with pytest.raises(EstimationError):
            estimate_order(parse("z1", 1), 1, radii=(4.0, 4.0))
        with pytest.raises(EstimationError):
            estimate_order(parse("z1", 1), 1, radii=(4.0,))

    @pytest.mark.parametrize("radii", [(-8.0, -4.0), (-4.0, 4.0), (0.0, 4.0)])
    def test_needs_positive_radii(self, radii):
        with pytest.raises(EstimationError, match="positive"):
            estimate_order(parse("exp(z1) + 2", 1), 1, radii=radii)

    def test_pole_past_the_overflow_does_not_raise(self):
        # exp(exp(z1)) overflows from radius 8 on; exp(-z1/10) drops below
        # the pole threshold only past radius 276, which is never read
        est = estimate_order(parse("exp(exp(z1))/exp(-z1/10)", 1), 1, seed=3)
        assert est.ladder_truncated
        assert est.radii == default_radii()[:2]

    def test_nan_maximum_ends_the_ladder(self):
        # inf - inf is NaN from radius 724 on: a NaN maximum is no usable
        # radius, although it is not an overflow to inf
        est = estimate_order(parse("exp(z1)*z1 - exp(z1)*z1 + z1", 1), 1)
        assert est.radii == default_radii()[:15]
        assert est.ladder_truncated

    def test_reports_usable_prefix(self):
        est = estimate_order(F_EX1, 5)
        assert est.ladder_truncated
        assert est.radii[-1] < default_radii()[-1]
        assert len(est.radii) >= 2
        assert est.fit_radii == tuple(sorted(est.radii[-2:]))

    def test_negative_seed_is_malformed_input(self):
        with pytest.raises(ProblemSpecError, match="seed must be >= 0, got -3"):
            estimate_order(parse("z1", 1), 1, seed=-3)

    @pytest.mark.parametrize("directions", [0, -5])
    def test_needs_a_direction(self, directions):
        # the library keeps its estimation error; the CLI reports a malformed flag
        with pytest.raises(EstimationError, match="direction"):
            estimate_order(parse("z1", 1), 1, directions=directions)

    def test_to_text_mentions_rho(self):
        est = estimate_order(parse("z1^3*z2", 2), 2)
        assert "rho_hat" in est.to_text()
        assert isinstance(est, GrowthEstimate)


class TestIdenticallyZeroConstant:
    """A folded constant is decided as value == 0, without a tape or a generator."""

    #: the answers the sampled probe gives each constant (tol 1e-10, n 1..3)
    @pytest.mark.parametrize("value, zero", [
        (0j, True), (-0.0, True), (complex(-0.0, -0.0), True), (1.0, False), (1e-320, False),
        (1e-300j, False), (math.nan, False), (math.inf, False), (-math.inf, False),
        (complex(0.0, math.nan), False),
    ])
    def test_answers_without_sampling(self, monkeypatch, value, zero):
        def refuse(*args, **kwargs):
            raise AssertionError("a constant needs no sample")

        monkeypatch.setattr(verify, "compile_expr", refuse)
        monkeypatch.setattr(verify.np.random, "default_rng", refuse)
        for n in (1, 2, 3):
            assert is_identically_zero(Const(value), n) is zero
        # a constant subtree folds as it is built
        assert is_identically_zero(Const(value) * Const(1.0) + Const(0.0), 2) is zero

    def test_non_constant_is_still_probed(self):
        assert is_identically_zero(parse("z1 - z1", 1), 1)
        assert not is_identically_zero(parse("1e-300*z1", 1), 1)

    def test_zero_tolerance_is_fixed(self):
        # a tolerance of 1 or more would count every sampled leaf as zero
        assert verify.ZERO_TOL == 1e-10
        with pytest.raises(TypeError):
            is_identically_zero(parse("z1", 1), 1, tol=1.0)
