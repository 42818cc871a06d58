import math
import zlib

import numpy as np
import pytest

from fermat_pdde.backends import eval_batch
from fermat_pdde.construct import (
    QuadraticParams,
    T1Params,
    T2Params,
    construct_cor1,
    construct_cor1_m3_control,
    construct_cor2,
    construct_fermat_pair,
    construct_legacy_xw,
    construct_quadratic,
    construct_t1,
    construct_t2,
)
from fermat_pdde.errors import ConstructionError
from fermat_pdde.expr import Const, Wp, to_string
from fermat_pdde.operators import PDDEProblem, residual, scale_terms
from fermat_pdde.parser import parse
from fermat_pdde.periodic import make_periodic, make_polynomial_quasi_periodic, make_quasi_periodic
from fermat_pdde.verify import SamplingPolicy, check_residual, verify_problem

from conftest import disc_points

PI = math.pi


def assert_same_function(a, b, n, seed, tol=1e-10, radius=1.0):
    pts = disc_points(seed, 30, n, radius=radius)
    va, oa = eval_batch(a, pts)
    vb, ob = eval_batch(b, pts)
    assert (oa & ob).all()
    rel = np.abs(va - vb) / np.maximum(1.0, np.abs(vb))
    assert rel.max() < tol, f"functions differ by {rel.max():.3e}"


def assert_verified(f, problem, tol=1e-8, seed=42):
    rep = verify_problem(problem, f, SamplingPolicy(tol=tol, seed=seed))
    assert rep.passed, f"max rel residual {rep.max_rel_residual:.3e}"
    return rep


class TestFirstFamilyReproducesExamples:
    def test_example4(self):
        f, problem = construct_t1(
            T1Params(n=3, c=(0, PI * 1j, PI * 1j), form="II", g_part=parse("exp(z2+z3)", 3))
        )
        printed = parse("1 - z1^2/4 + z1*exp(z2+z3) - exp(2*z2+2*z3)", 3)
        assert_same_function(f, printed, 3, seed=70)
        assert_verified(f, problem)

    def test_example3(self):
        f, problem = construct_t1(
            T1Params(
                n=4, c=(14, 1, 3, 5), form="I",
                g_part=parse("-z2+z3+z4", 4), phi=parse("exp(z2+2*z3-z4)", 4),
            )
        )
        printed = parse("exp(z2+2*z3-z4-2) - (-z1/2-z2+z3+z4)^2", 4)
        assert_same_function(f, printed, 4, seed=71)
        assert_verified(f, problem)

    def test_example1(self):
        f, problem = construct_t1(
            T1Params(
                n=5, c=(PI * 1j, 0, 2j * PI, 5j * PI, 2j * PI), form="II",
                g_part=parse("exp(5*z2*z3-2*z2*z4+z5+9)", 5),
                phi=parse("exp(z2+z3-2*z4) + z3 - z4 + z5", 5),
            )
        )
        printed = parse(
            "pi*i + z3 - z4 + z5 + exp(z2+z3-2*z4) - (pi^2+z1^2)/4"
            " + (z1-pi*i)*exp(5*z2*z3-2*z2*z4+z5+9) + (z1-pi*i)*(z2+z3+z4+z5)/18"
            " - (exp(5*z2*z3-2*z2*z4+z5+9) + (z2+z3+z4+z5-9*pi*i)/18)^2",
            5,
        )
        assert_same_function(f, printed, 5, seed=72)
        rep = assert_verified(f, problem, seed=42)
        assert rep.max_rel_residual < 1e-9

    def test_degenerate_tau_with_zero_c1_is_accepted(self):
        # tau = 0 just drops the tilt when c1 = 0
        f, problem = construct_t1(
            T1Params(n=3, c=(0, 1.0, -1.0), form="II", g_part=make_periodic((1.0, -1.0), 2, seed=1))
        )
        assert_verified(f, problem)

    def test_degenerate_tau_with_nonzero_c1_rejected(self):
        with pytest.raises(ConstructionError):
            construct_t1(
                T1Params(n=3, c=(2.0, 1.0, -1.0), form="II", g_part=make_periodic((1.0, -1.0), 2, seed=1))
            )

    def test_quasi_period_violation_reports_magnitude(self):
        with pytest.raises(ConstructionError) as exc:
            construct_t1(T1Params(n=4, c=(14, 1, 3, 5), form="I", g_part=parse("z2", 4)))
        assert "violation" in str(exc.value)

    def test_periodicity_violation_rejected(self):
        with pytest.raises(ConstructionError):
            construct_t1(T1Params(n=3, c=(0, PI * 1j, PI * 1j), form="II", g_part=parse("z2", 3)))

    def test_pole_ridden_part_rejected(self):
        # the denominator exp(-1000*(z2+1)) is below the pole threshold
        # wherever Re z2 > -0.97: nearly all of the validation sample
        g = parse("1/exp(-1000*(z2+1))", 3)
        with pytest.raises(ConstructionError, match="lost more than half its points"):
            construct_t1(T1Params(n=3, c=(0, PI * 1j, PI * 1j), form="II", g_part=g))

    def test_g_part_must_avoid_z1(self):
        with pytest.raises(ConstructionError):
            construct_t1(T1Params(n=3, c=(0, PI * 1j, PI * 1j), form="II", g_part=parse("z1", 3)))


class TestSecondFamilyReproducesExamples:
    def test_example5_with_two_direction_operator(self):
        f, problem = construct_t2(
            T2Params(
                n=4, c=(2, 3, 2, 4), form="I",
                g_part=parse("-5*(z2-z1)+7*z3-2*z4", 4),
                phi=parse("z3*exp(2*z3+z4)", 4),
            )
        )
        printed = parse("(z3-2)*exp(2*z3+z4-8) - (9*z1/2-5*z2+7*z3-2*z4)^2", 4)
        assert_same_function(f, printed, 4, seed=73)
        assert_verified(f, problem)

    def test_example6(self):
        f, problem = construct_t2(
            T2Params(
                n=4, c=(PI * 1j, 2j * PI, -1j * PI, 2j * PI), form="II",
                g_part=parse("exp(3*(z2-z1)+5*z3+z4+7)", 4),
                phi=parse("z3-2*z4", 4),
            )
        )
        printed = parse(
            "5*pi*i - (pi^2+z1^2)/4 + z3 - 2*z4 + (z1-pi*i)*(z2-z1+z3+z4)/4"
            " + (z1-pi*i)*exp(3*(z2-z1)+5*z3+z4+7)"
            " - (exp(3*(z2-z1)+5*z3+z4+7) + (z2-z1+z3+z4-2*pi*i)/4)^2",
            4,
        )
        assert_same_function(f, printed, 4, seed=74)
        assert_verified(f, problem)

    def test_example7(self):
        f, problem = construct_t2(
            T2Params(
                n=5, c=(-PI, PI, -2j * PI, PI, -PI), form="II",
                g_part=parse("sin(i*(z2-z1)+z3+z4-z5)", 5),
            )
        )
        printed = parse(
            "(4+pi^2)/4 - z1^2/4 + (z1+pi)*sin(i*(z2-z1)+z3+z4-z5)"
            " - (1+i)*(z1+pi)*(z2-z1+z3+z4+z5)/8"
            " - (sin(i*(z2-z1)+z3+z4-z5) - (1+i)*(z2-z1+z3+z4+z5-2*pi*(1-i))/8)^2",
            5,
        )
        # the printed tilt coefficient -(1+i)/8 equals c1/(2 tau)
        tau = 2 * PI - 2j * PI
        assert abs(-PI / (2 * tau) - (-(1 + 1j) / 8)) < 1e-15
        assert_same_function(f, printed, 5, seed=75)
        assert_verified(f, problem)

    def test_direction_annihilation_violation_rejected(self):
        with pytest.raises(ConstructionError):
            construct_t2(T2Params(n=3, c=(1, 2, 1), form="II", g_part=parse("z2", 3)))

    def test_phi_must_avoid_z1_z2(self):
        with pytest.raises(ConstructionError):
            construct_t2(
                T2Params(n=3, c=(1, 2, 1), form="II",
                         g_part=make_periodic((1.0, 1.0), 1, seed=2, basis="t2"),
                         phi=parse("z2", 3))
            )


class TestCorollaries:
    def test_cor1_equals_general_form_with_unit_phi(self):
        c = (0.7 + 0.2j, 1.1, 0.9j, 1.3)
        g2 = make_periodic(c[1:], 2, seed=3)
        f_cor, p_cor = construct_cor1(4, c, g2)
        f_gen, _ = construct_t1(T1Params(n=4, c=c, form="II", g_part=g2, phi=Const(1.0)))
        assert_same_function(f_cor, f_gen, 4, seed=76)
        assert p_cor.kind == "fte" and p_cor.m1 == 2
        assert_verified(f_cor, p_cor)

    def test_cor2_equals_general_form_with_unit_phi(self):
        c = (0.5, 1.4, 1.1j, -0.8)
        cprime_t2 = (c[1] - c[0],) + c[2:]
        g4 = make_periodic(cprime_t2, 2, seed=4, basis="t2")
        f_cor, p_cor = construct_cor2(4, c, g4)
        f_gen, _ = construct_t2(T2Params(n=4, c=c, form="II", g_part=g4, phi=Const(1.0)))
        assert_same_function(f_cor, f_gen, 4, seed=77)
        assert p_cor.kind == "ftee" and p_cor.m1 == 2
        assert_verified(f_cor, p_cor)

    def test_negative_control_pairs_same_f_with_cubed_equation(self):
        c = (0.7, 1.0, 1.2)
        g2 = make_periodic(c[1:], 2, seed=5)
        f, problem = construct_cor1_m3_control(3, c, g2)
        assert problem.m1 == 3
        rep = verify_problem(problem, f)
        assert not rep.passed
        assert rep.max_rel_residual > 1e-2


#: the right-side-1 solutions as printed, over c1, c2, tau (the sum of the period
#: vector), a = c1/(2 tau), omega (the sum of the basis coordinates) and the periodic g
COROLLARY_1 = ("1 + ({c1}^2 - z1^2)/4 + {a}*z1*{omega} + z1*{g}"
               " - ({g} + {a}*({omega} - {tau}))^2 - {c1}*({g} + {a}*{omega})")
COROLLARY_2 = ("1 + z1*({g} + {a}*{omega}) - {c1}*({g} + {a}*({omega} - {tau}))"
               " - ({g} + {a}*({omega} - {tau}))^2 - ({c1}^2 + z1^2)/4")
EQU1 = ("1 - {c1}^2/4 - z1^2/4 + {a}*z1*z2 - ({c1}^2/(2*{c2}))*(z2 - {c2})"
        " + (z1 - {c1})*{g} - ({a}*(z2 - {c2}) + {g})^2")
EQU2 = ("1 - {c1}^2/4 - z1^2/4 + z1*({g} + {a}*(z2 - z1)) - {c1}*{g}"
        " - {a}*{c1}*(z2 - z1 - ({c2} - {c1})) - ({g} + {a}*(z2 - z1 - ({c2} - {c1})))^2")


def grammar_constant(z) -> str:
    z = complex(z)
    return f"({z.real!r}+({z.imag!r})*i)"


def period(c, basis):
    """How the basis coordinates (z2, ..., zn), or (z2-z1, z3, ..., zn), move under z -> z + c."""
    return c[1:] if basis == "t1" else (c[1] - c[0],) + c[2:]


def printed_solution(template, c, g, basis):
    n = len(c)
    tau = sum(period(c, basis))
    coords = ["z2-z1" if (basis, j) == ("t2", 2) else f"z{j}" for j in range(2, n + 1)]
    values = {"c1": c[0], "c2": c[1], "tau": tau, "a": c[0] / (2 * tau)}
    text = template.format(omega="(" + "+".join(coords) + ")", g=f"({to_string(g)})",
                           **{k: grammar_constant(v) for k, v in values.items()})
    return parse(text, n)


class TestPrintedUnitRightSide:
    """Each right-side-1 constructor equals its printed formula, over random parameter draws."""

    @pytest.mark.parametrize("name,template,basis,dimensions,build", [
        ("cor1", COROLLARY_1, "t1", (3, 4, 5), lambda c, g: construct_cor1(len(c), c, g)),
        ("cor2", COROLLARY_2, "t2", (3, 4, 5), lambda c, g: construct_cor2(len(c), c, g)),
        ("equ1", EQU1, "t1", (2,), lambda c, g: construct_legacy_xw("equ1", g, c)),
        ("equ2", EQU2, "t2", (2,), lambda c, g: construct_legacy_xw("equ2", g, c)),
    ])
    def test_constructor_matches_printed_formula(self, name, template, basis, dimensions, build):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for draw in range(4):
            n = dimensions[draw % len(dimensions)]
            while True:
                c = tuple(complex(rng.uniform(0.8, 1.6) * np.exp(2j * PI * rng.random())) for _ in range(n))
                cprime = period(c, basis)
                if abs(sum(cprime)) > 0.3 and abs(cprime[0]) > 0.3:
                    break
            g = make_periodic(cprime, 2, seed=int(rng.integers(0, 2**31)), basis=basis)
            f, _ = build(c, g)
            assert_same_function(f, printed_solution(template, c, g, basis), n, seed=90 + draw)


class TestLegacyTwoVariable:
    def test_equ1_with_exponential_part(self):
        # period c2 = 1 in z2
        f, problem = construct_legacy_xw("equ1", parse("exp(2*pi*i*z2)", 2), (1.0, 1.0))
        rep = assert_verified(f, problem, tol=1e-9)
        assert problem.kind == "equ1"

    def test_equ1_with_zero_part_is_polynomial(self):
        # hand expansion: f = 2 - z1^2/4 + z1*z2 - 2*z2 - (z2-1)^2 solves the equation
        # (leading "-z1^2" would parse as (-z1)^2 under this grammar, so start with 2)
        f, problem = construct_legacy_xw("equ1", Const(0.0), (2.0, 1.0))
        hand = parse("2 - z1^2/4 + z1*z2 - 2*z2 - (z2-1)^2", 2)
        assert_same_function(f, hand, 2, seed=78, tol=1e-13)
        res = residual(problem, f)
        pts = disc_points(79, 200, 2, radius=2.0)
        vals, ok = eval_batch(res, pts)
        assert ok.all()
        assert np.abs(vals).max() < 1e-12  # float cancellation only, no analytic excess

    def test_equ2_with_exponential_part(self):
        f, problem = construct_legacy_xw("equ2", parse("exp(2*pi*i*(z2-z1)/2)", 2), (1.0, 3.0))
        assert_verified(f, problem, tol=1e-9)
        assert problem.kind == "equ2"

    def test_equ1_degenerate_period(self):
        with pytest.raises(ConstructionError):
            construct_legacy_xw("equ1", Const(0.0), (1.0, 0.0))

    def test_equ2_degenerate_period(self):
        with pytest.raises(ConstructionError):
            construct_legacy_xw("equ2", Const(0.0), (1.0, 1.0))

    def test_equ1_part_must_be_univariate(self):
        with pytest.raises(ConstructionError):
            construct_legacy_xw("equ1", parse("z1", 2), (1.0, 1.0))

    def test_equ1_rejects_a_phi_other_than_one(self):
        # equ1 fixes its right side to 1; a phi would be dropped unread
        p = QuadraticParams(n=2, c=(2.0, 1.0), form="II", g_part=Const(0.0), phi=parse("z2^5", 2))
        with pytest.raises(ConstructionError, match="kind equ1 fixes the right side to 1"):
            construct_quadratic("equ1", p)
        f, problem = construct_quadratic("equ1", QuadraticParams(n=2, c=(2.0, 1.0), form="II",
                                                                 g_part=Const(0.0), phi=parse("1", 2)))
        assert problem.phi is None
        assert_verified(f, problem)


class TestFermatPairs:
    def test_cos_sin(self):
        f, g = construct_fermat_pair("cos_sin", parse("z1+z2^2", 2))
        problem = PDDEProblem(kind="fermat", n=2, m1=2, g=g)
        rep = check_residual(
            residual(problem, f), scale_terms(problem, f), SamplingPolicy(tol=1e-12), 2
        )
        assert rep.passed

    def test_mobius_matches_direct_formulas(self):
        h = parse("z1*z2", 2)
        f, g = construct_fermat_pair("mobius", h)
        assert_same_function(f, parse("2*z1*z2/(1+(z1*z2)^2)", 2), 2, seed=80)
        assert_same_function(g, parse("(1-(z1*z2)^2)/(1+(z1*z2)^2)", 2), 2, seed=81)
        problem = PDDEProblem(kind="fermat", n=2, m1=2, g=g)
        rep = check_residual(
            residual(problem, f), scale_terms(problem, f), SamplingPolicy(tol=1e-12), 2,
            guards=[(parse("1+(z1*z2)^2", 2), 0.5)],
        )
        assert rep.passed

    def test_cubic_identity_near_poles_guarded(self):
        h = parse("z1", 1)
        f, g = construct_fermat_pair("cubic", h)
        problem = PDDEProblem(kind="fermat", n=1, m1=3, g=g)
        rep = check_residual(
            residual(problem, f), scale_terms(problem, f),
            SamplingPolicy(samples=150, radius=1.2, tol=1e-7), 1,
            guards=[(Wp(h), 0.1)],
        )
        assert rep.passed
        assert rep.points_tested >= 100

    @pytest.mark.parametrize("text, n", [("z1", 1), ("z1 + z2/2", 2)])
    def test_cubic_identity_to_double_precision(self, text, n):
        # the `fermat` command's guard; wp and wp' each hold to a few ulps
        # over the cell, so the cubic identity does too
        h = parse(text, n)
        f, g = construct_fermat_pair("cubic", h)
        problem = PDDEProblem(kind="fermat", n=n, m1=3, g=g)
        res, scales = residual(problem, f), scale_terms(problem, f)
        for seed in range(10):
            for radius in (2.0, 8.0):
                rep = check_residual(res, scales, SamplingPolicy(seed=seed, radius=radius, tol=1e-14),
                                     n, guards=[(Wp(h), 0.1)])
                assert rep.points_tested >= 100
                assert rep.max_rel_residual < 1e-14, (seed, radius)

    def test_unknown_kind(self):
        with pytest.raises(ConstructionError):
            construct_fermat_pair("tan", parse("z1", 1))


def random_family_draw(form, rng):
    """One random, non-degenerate parameter draw for a family round trip."""

    def c_component():
        r = 0.8 + 0.8 * rng.random()
        return complex(r * np.cos(2 * PI * rng.random()), r * np.sin(2 * PI * rng.random()))

    seed = int(rng.integers(0, 2**31))
    if form in ("t1-i", "t1-ii", "cor1"):
        n = int(rng.integers(3, 6))
        while True:
            c = tuple(c_component() for _ in range(n))
            if abs(sum(c[1:])) > 0.3:
                break
        phi = parse("z2 + exp(z3/2)", n) if form != "cor1" else Const(1.0)
        if form == "t1-i":
            g = make_polynomial_quasi_periodic(c[1:], c[0], seed=seed)
            return construct_t1(T1Params(n=n, c=c, form="I", g_part=g, phi=phi))
        g = make_periodic(c[1:], 2, seed=seed)
        if form == "cor1":
            return construct_cor1(n, c, g)
        return construct_t1(T1Params(n=n, c=c, form="II", g_part=g, phi=phi))
    if form in ("t2-i", "t2-ii", "cor2"):
        n = int(rng.integers(3, 6))
        while True:
            c = tuple(c_component() for _ in range(n))
            cprime = (c[1] - c[0],) + c[2:]
            if abs(sum(cprime)) > 0.3 and abs(cprime[0]) > 0.3:
                break
        phi = parse("1 + z3^2/4", n) if form != "cor2" else Const(1.0)
        if form == "t2-i":
            g = make_polynomial_quasi_periodic(cprime, c[0], seed=seed, basis="t2")
            return construct_t2(T2Params(n=n, c=c, form="I", g_part=g, phi=phi))
        g = make_periodic(cprime, 2, seed=seed, basis="t2")
        if form == "cor2":
            return construct_cor2(n, c, g)
        return construct_t2(T2Params(n=n, c=c, form="II", g_part=g, phi=phi))
    if form == "equ1":
        while True:
            c = (c_component(), c_component())
            if abs(c[1]) > 0.3:
                break
        g = make_periodic((c[1],), 2, seed=seed)
        return construct_legacy_xw("equ1", g, c)
    while True:
        c = (c_component(), c_component())
        if abs(c[1] - c[0]) > 0.3:
            break
    g = make_periodic((c[1] - c[0],), 2, seed=seed, basis="t2")
    return construct_legacy_xw("equ2", g, c)


ALL_FORMS = ("t1-i", "t1-ii", "t2-i", "t2-ii", "cor1", "cor2", "equ1", "equ2")


@pytest.mark.parametrize("form", ALL_FORMS)
def test_family_round_trip_smoke(form):
    rng = np.random.default_rng(zlib.crc32(form.encode()))
    for i in range(5):
        f, problem = random_family_draw(form, rng)
        rep = verify_problem(problem, f, SamplingPolicy(seed=1000 + i))
        assert rep.passed, f"{form} draw {i}: max rel {rep.max_rel_residual:.3e}"
