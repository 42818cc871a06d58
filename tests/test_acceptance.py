"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -s, or
in captured output).  Tolerances are pinned here, not configurable.
"""

import functools
import math
import time
import zlib

import numpy as np
import pytest

from fermat_pdde.backends import eval_batch
from fermat_pdde.construct import (
    construct_cor1_m3_control,
    construct_fermat_pair,
)
from fermat_pdde.elliptic import E1, OMEGA1, OMEGA2, POLE_RADIUS, wp_many, wp_pair
from fermat_pdde.errors import EvalError
from fermat_pdde.expr import Const, Wp, free_variables, partial, uses_wp
from fermat_pdde.operators import (
    LinearPDOperator,
    PDDEProblem,
    apply_linear_operator,
    residual,
    scale_terms,
)
from fermat_pdde.parser import parse
from fermat_pdde.periodic import make_periodic, make_polynomial_quasi_periodic, make_quasi_periodic
from fermat_pdde.problemfile import load_problem
from fermat_pdde.verify import SamplingPolicy, check_residual, estimate_order, verify_problem

from conftest import disc_points
from oracle import evaluate, fd_partial
from test_construct import ALL_FORMS, random_family_draw
from test_elliptic import sample_cell_points
from test_periodic import ambient_shift

PI = math.pi


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL - {description}")
                raise
            print(f"[criterion {num}] PASS - {description}")

        return wrapper

    return deco


@criterion(1, "fixture corpus verifies at 1e-8 (example2 recorded failing) in < 10 s")
def test_criterion_1_fixture_corpus(fixtures_dir):
    policy = SamplingPolicy(samples=200, radius=2.0, tol=1e-8, seed=42)
    # warm-up excludes one-time JIT compilation from the timed region
    warm = load_problem(fixtures_dir / "example4.json")
    verify_problem(warm.problem, warm.f, policy)

    start = time.perf_counter()
    results = {}
    for k in range(1, 8):
        lp = load_problem(fixtures_dir / f"example{k}.json")
        rep = verify_problem(lp.problem, lp.f, policy)
        results[k] = (rep, lp.expected_status)
    elapsed = time.perf_counter() - start

    for k in (1, 3, 4, 5, 6, 7):
        rep, expected = results[k]
        assert expected == "pass"
        assert rep.passed, f"example{k}: max rel residual {rep.max_rel_residual:.3e}"
        assert rep.max_rel_residual <= 1e-8
    rep2, expected2 = results[2]
    assert expected2 == "inconsistent"
    assert not rep2.passed, "example2 must fail verification, recorded as inconsistent"
    assert elapsed < 10.0, f"corpus took {elapsed:.2f} s"


@criterion(2, "50 random round trips per family (8 families) pass at 1e-8")
def test_criterion_2_constructor_round_trips():
    for form in ALL_FORMS:
        rng = np.random.default_rng(zlib.crc32(b"roundtrip-" + form.encode()))
        for i in range(50):
            f, problem = random_family_draw(form, rng)
            rep = verify_problem(problem, f, SamplingPolicy(tol=1e-8, seed=2000 + i))
            assert rep.passed, (
                f"{form} draw {i}: max rel residual {rep.max_rel_residual:.3e}"
            )


@criterion(3, "power-3 analog fails with max relative residual > 1e-2 on 20 draws")
def test_criterion_3_negative_control():
    rng = np.random.default_rng(31415)
    for i in range(20):
        n = int(rng.integers(3, 6))
        while True:
            c = tuple(
                complex((0.8 + 0.8 * rng.random()) * np.cos(2 * PI * rng.random()),
                        (0.8 + 0.8 * rng.random()) * np.sin(2 * PI * rng.random()))
                for _ in range(n)
            )
            if abs(sum(c[1:])) > 0.3:
                break
        g2 = make_periodic(c[1:], 2, seed=int(rng.integers(0, 2**31)))
        f, problem = construct_cor1_m3_control(n, c, g2)
        rep = verify_problem(problem, f, SamplingPolicy(seed=3000 + i))
        assert not rep.passed
        assert rep.max_rel_residual > 1e-2, (
            f"draw {i}: control only reached {rep.max_rel_residual:.3e}"
        )


def _derivative_corpus(fixtures_dir):
    corpus = []
    for k in list(range(1, 8)) + ["bad_poly"]:
        name = f"example{k}.json" if isinstance(k, int) else f"{k}.json"
        lp = load_problem(fixtures_dir / name)
        corpus.append((lp.f, lp.problem.n))
        if lp.problem.phi is not None and free_variables(lp.problem.phi):
            corpus.append((lp.problem.phi, lp.problem.n))
    corpus += [
        (parse("exp(z1+z2)", 2), 2),
        (parse("z1^3*z2", 2), 2),
        (parse("cos(z1+z2^2)", 2), 2),
        (parse("sin(i*(z2-z1)+z3+z4-z5)", 5), 5),
        (parse("1/(1+z1^2)", 1), 1),
        (parse("(z1+z2)^5", 2), 2),
        (parse("exp(sin(z1))*cos(z2)", 2), 2),
        (parse("z1^-2 + z2/(3+z1)", 2), 2),
        (parse("exp(5*z2*z3-2*z2*z4+z5+9)", 5), 5),
        (parse("wp(z1)", 1), 1),
        (parse("wpd(z1+3*i/10)", 1), 1),
        (parse("wp(z1+z2)^2", 2), 2),
        (partial(parse("1 - z1^2/4 + z1*exp(z2+z3) - exp(2*z2+2*z3)", 3), (1, 0, 0)), 3),
        (make_periodic((1.1, 0.9j), 2, seed=101), 3),
        (make_quasi_periodic((1.0, 1.2), 0.7, 2, seed=102), 3),
        (make_polynomial_quasi_periodic((1.0, 2.0), 3.0, seed=103), 3),
    ]
    pair_f, pair_g = construct_fermat_pair("mobius", parse("z1*z2", 2))
    corpus += [(pair_f, 2), (pair_g, 2)]
    cub_f, cub_g = construct_fermat_pair("cubic", parse("z1", 1))
    corpus += [(cub_f, 1), (cub_g, 1)]
    return corpus


@criterion(4, "symbolic partials match central differences (1e-6 rel) on a 30+ expression corpus")
def test_criterion_4_derivative_oracle(fixtures_dir):
    corpus = _derivative_corpus(fixtures_dir)
    assert len(corpus) >= 30
    step = 1e-5
    checked = 0
    for idx, (e, n) in enumerate(corpus):
        pts = disc_points(9000 + idx, 8, n, radius=1.0)
        for j in sorted(free_variables(e)):
            unit = tuple(1 if i == j else 0 for i in range(1, n + 1))
            de = partial(e, unit)
            good_points = 0
            for pt in pts:
                try:
                    fval = evaluate(e, pt)
                    sym = evaluate(de, pt)
                    fd = fd_partial(e, j, pt, step=step)
                except EvalError:
                    continue  # pole-adjacent sample; skip
                # scale includes |f|: the difference quotient carries
                # |f| * eps / (2 step) of roundoff no matter how exact the
                # symbolic derivative is
                scale = max(1.0, abs(sym), abs(fval))
                assert abs(sym - fd) <= 1e-6 * scale, (
                    f"expr {idx}, d/dz{j} at {pt}: {sym} vs {fd}"
                )
                good_points += 1
            assert good_points >= 4, f"expr {idx}: too many pole hits"
            checked += 1
    assert checked >= 30


@criterion(5, "fermat pairs: squares at 1e-12, wp-cubic at 1e-7 over 100+ pole-avoiding points")
def test_criterion_5_fermat_parametrizations():
    h2 = parse("z1+z2^2", 2)
    f, g = construct_fermat_pair("cos_sin", h2)
    p = PDDEProblem(kind="fermat", n=2, m1=2, g=g)
    rep = check_residual(residual(p, f), scale_terms(p, f), SamplingPolicy(tol=1e-12), 2)
    assert rep.passed, f"cos/sin: {rep.max_rel_residual:.3e}"

    hm = parse("z1*z2", 2)
    f, g = construct_fermat_pair("mobius", hm)
    p = PDDEProblem(kind="fermat", n=2, m1=2, g=g)
    rep = check_residual(
        residual(p, f), scale_terms(p, f), SamplingPolicy(tol=1e-12), 2,
        guards=[(Const(1.0) + hm**2, 0.5)],
    )
    assert rep.passed, f"mobius: {rep.max_rel_residual:.3e}"

    hc = parse("z1", 1)
    f, g = construct_fermat_pair("cubic", hc)
    p = PDDEProblem(kind="fermat", n=1, m1=3, g=g)
    rep = check_residual(
        residual(p, f), scale_terms(p, f),
        SamplingPolicy(samples=150, radius=1.2, tol=1e-7), 1,
        guards=[(Wp(hc), 0.1)],
    )
    assert rep.passed, f"cubic: {rep.max_rel_residual:.3e}"
    assert rep.points_tested >= 100


@criterion(6, "elliptic identities at 1e-9 and wp(omega1) = (1/4)^(1/3) at 1e-8")
def test_criterion_6_elliptic_identities():
    pts = sample_cell_points(300, seed=600, min_dist=POLE_RADIUS)
    x, y, ok = wp_many(pts)
    assert ok.all()
    ode = np.abs(y**2 - 4 * x**3 + 1) / np.maximum(1.0, np.abs(4 * x**3))
    assert ode.max() <= 1e-9, f"ODE identity residual {ode.max():.3e}"
    for period in (2 * OMEGA1, 2 * OMEGA2):
        xs, ys, _ = wp_many(pts + period)
        drift = np.abs(xs - x) / np.maximum(1.0, np.abs(x))
        assert drift.max() <= 1e-9, f"periodicity drift {drift.max():.3e}"
        drift_d = np.abs(ys - y) / np.maximum(1.0, np.abs(y))
        assert drift_d.max() <= 1e-9
    wp_at_half, _ = wp_pair(OMEGA1)
    assert abs(wp_at_half - E1) <= 1e-8
    assert abs(E1 - 0.25 ** (1.0 / 3.0)) < 1e-15


@criterion(7, "growth orders: exp(z1+z2) in [0.85,1.15], example1 in [1.8,2.2], z1^3*z2 <= 0.2")
def test_criterion_7_order_estimates(fixtures_dir):
    est = estimate_order(parse("exp(z1+z2)", 2), 2)
    assert 0.85 <= est.rho_hat <= 1.15, f"exp order {est.rho_hat:.3f}"
    f1 = load_problem(fixtures_dir / "example1.json").f
    est = estimate_order(f1, 5)
    assert 1.8 <= est.rho_hat <= 2.2, f"example1 order {est.rho_hat:.3f}"
    est = estimate_order(parse("z1^3*z2", 2), 2)
    assert est.rho_hat <= 0.2, f"polynomial order {est.rho_hat:.3f}"


@criterion(8, "periodicity 1e-9, quasi-period increment 1e-9, direction annihilation 1e-10")
def test_criterion_8_periodicity_properties():
    rng = np.random.default_rng(808)

    def rand_cprime(m):
        return tuple(
            complex((0.8 + 0.8 * rng.random()) * np.cos(2 * PI * rng.random()),
                    (0.8 + 0.8 * rng.random()) * np.sin(2 * PI * rng.random()))
            for _ in range(m)
        )

    for trial in range(10):
        m = int(rng.integers(2, 5))
        n = m + 1
        cprime = rand_cprime(m)
        pts = disc_points(8100 + trial, 50, n, radius=1.5)

        g = make_periodic(cprime, 2, seed=int(rng.integers(0, 2**31)))
        from fermat_pdde.expr import shift

        delta = shift(g, ambient_shift(cprime, "t1")) - g
        dv, _ = eval_batch(delta, pts)
        gv, _ = eval_batch(g, pts)
        rel = np.abs(dv) / np.maximum(1.0, np.abs(gv))
        assert rel.max() <= 1e-9, f"periodicity violation {rel.max():.3e}"

        while abs(sum(cprime)) < 0.3:
            cprime = rand_cprime(m)
        c1 = complex(rng.standard_normal(), rng.standard_normal())
        q = make_quasi_periodic(cprime, c1, 2, seed=int(rng.integers(0, 2**31)))
        delta = shift(q, ambient_shift(cprime, "t1")) - q - Const(c1 / 2.0)
        dv, _ = eval_batch(delta, pts)
        qv, _ = eval_batch(q, pts)
        rel = np.abs(dv) / np.maximum(1.0, np.abs(qv))
        assert rel.max() <= 1e-9, f"quasi-period violation {rel.max():.3e}"

        g2 = make_periodic(cprime, 2, seed=int(rng.integers(0, 2**31)), basis="t2")
        op = LinearPDOperator(
            n=n,
            coeffs={
                tuple(1 if i == 1 else 0 for i in range(1, n + 1)): Const(1.0),
                tuple(1 if i == 2 else 0 for i in range(1, n + 1)): Const(1.0),
            },
        )
        av, _ = eval_batch(apply_linear_operator(op, g2), pts)
        gv, _ = eval_batch(g2, pts)
        rel = np.abs(av) / np.maximum(1.0, np.abs(gv))
        assert rel.max() <= 1e-10, f"annihilation violation {rel.max():.3e}"
