import math

import numpy as np
import pytest

from fermat_pdde.backends import eval_batch
from fermat_pdde.errors import DimensionError, ProblemSpecError
from fermat_pdde.expr import (
    Const,
    Expr,
    Pow,
    Var,
    directional_derivative,
    partial,
    shift,
)
from fermat_pdde.operators import (
    KINDS,
    LinearPDOperator,
    PDDEProblem,
    apply_linear_operator,
    difference,
    is_identically_zero,
    residual,
    scale_terms,
    unit_index,
)
from fermat_pdde.parser import parse
from fermat_pdde.verify import SamplingPolicy, check_residual

from conftest import disc_points, rel_err
from oracle import evaluate
from test_expr import F_EX4

PI = math.pi


class TestLinearOperator:
    def test_first_partial(self):
        op = LinearPDOperator(n=2, coeffs={(1, 0): Const(1.0)})
        out = apply_linear_operator(op, parse("z1^2", 2))
        for pt in disc_points(41, 10, 2):
            assert rel_err(evaluate(out, pt), 2 * pt[0]) < 1e-13

    def test_direction_annihilates_difference_functions(self):
        op = LinearPDOperator(n=2, coeffs={(1, 0): Const(1.0), (0, 1): Const(1.0)})
        out = apply_linear_operator(op, parse("sin(z2-z1)", 2))
        for pt in disc_points(42, 20, 2):
            assert abs(evaluate(out, pt)) < 1e-12

    def test_variable_coefficient_second_derivative(self):
        op = LinearPDOperator(n=2, coeffs={(2, 0): Var(2)})
        out = apply_linear_operator(op, parse("exp(z1)", 2))
        for pt in disc_points(43, 10, 2):
            assert rel_err(evaluate(out, pt), pt[1] * np.exp(pt[0])) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ProblemSpecError):
            LinearPDOperator(n=2, coeffs={})

    def test_rejects_wrong_index_length(self):
        with pytest.raises(ProblemSpecError):
            LinearPDOperator(n=2, coeffs={(1, 0, 0): Const(1.0)})

    def test_rejects_zero_order(self):
        with pytest.raises(ProblemSpecError):
            LinearPDOperator(n=2, coeffs={(0, 0): Const(1.0)})

    def test_rejects_order_above_dimension(self):
        with pytest.raises(ProblemSpecError):
            LinearPDOperator(n=2, coeffs={(2, 1): Const(1.0)})

    def test_rejects_all_zero_coefficients(self):
        with pytest.raises(ProblemSpecError):
            LinearPDOperator(n=2, coeffs={(1, 0): Const(0.0), (0, 1): parse("0*z1", 2)})

    def test_dimension_mismatch_on_apply(self):
        op = LinearPDOperator(n=2, coeffs={(1, 0): Const(1.0)})
        with pytest.raises(DimensionError):
            apply_linear_operator(op, parse("z3", 3))


class TestDifference:
    def test_on_coordinate(self):
        d = difference(Var(1), (0.5 + 1j, 2.0))
        for pt in disc_points(44, 10, 2):
            assert rel_err(evaluate(d, pt), 0.5 + 1j) < 1e-14

    def test_exponential_with_half_period(self):
        d = difference(parse("exp(z1)", 1), (PI * 1j,))
        for pt in disc_points(45, 10, 1):
            assert rel_err(evaluate(d, pt), -2 * np.exp(pt[0])) < 1e-13

    def test_example4_periodic_shift_vanishes(self):
        d = difference(F_EX4, (0, PI * 1j, PI * 1j))
        for pt in disc_points(46, 30, 3, radius=1.5):
            assert abs(evaluate(d, pt)) / max(1, abs(evaluate(F_EX4, pt))) < 1e-12

    def test_zero_shift_rejected(self):
        with pytest.raises(ProblemSpecError):
            difference(Var(1), (0, 0))

    def test_difference_plus_f_equals_shift(self):
        c = (0.3, -0.7j, 1.1)
        lhs = difference(F_EX4, c) + F_EX4
        rhs = shift(F_EX4, c)
        for pt in disc_points(47, 20, 3):
            assert rel_err(evaluate(lhs, pt), evaluate(rhs, pt)) < 1e-12


class TestResidual:
    def test_example4_solves_its_equation(self):
        p = PDDEProblem(kind="fte", n=3, m1=2, c=(0, PI * 1j, PI * 1j), phi=Const(1.0))
        rep = check_residual(residual(p, F_EX4), scale_terms(p, F_EX4), SamplingPolicy(), 3)
        assert rep.passed
        assert rep.max_rel_residual < 1e-10

    def test_fermat_cos_sin_pair(self):
        h = parse("z1+z2^2", 2)
        p = PDDEProblem(kind="fermat", n=2, m1=2, g=parse("sin(z1+z2^2)", 2))
        res = residual(p, parse("cos(z1+z2^2)", 2))
        rep = check_residual(res, scale_terms(p, parse("cos(z1+z2^2)", 2)), SamplingPolicy(tol=1e-12), 2)
        assert rep.passed

    def test_toy_polynomial_residual_value(self):
        # (2 z1)^2 + (z1+1)^2 - 1 = 5 z1^2 + 2 z1; equals 7 at z1 = 1
        p = PDDEProblem(kind="fte", n=2, m1=2, c=(1.0, 0.0), phi=Const(1.0))
        res = residual(p, parse("z1^2", 2))
        for pt in disc_points(48, 10, 2):
            expect = 5 * pt[0] ** 2 + 2 * pt[0]
            assert rel_err(evaluate(res, pt), expect) < 1e-12
        assert evaluate(res, (1.0, 0.0)) == pytest.approx(7.0, abs=1e-12)

    def test_xc_matches_operator_built_equivalent(self):
        # the specialized xc path against the generic operator construction
        f = parse("sin(z1)*z2 + exp(z2)/3", 2)
        c = (0.4, 0.9j)
        p = PDDEProblem(kind="xc", n=2, m1=3, m2=2, c=c)
        spec_res = residual(p, f)
        op = LinearPDOperator(n=2, coeffs={(1, 0): Const(1.0)})
        generic = Pow(apply_linear_operator(op, f), 3) + Pow(shift(f, c), 2) - 1
        for pt in disc_points(49, 30, 2):
            assert rel_err(evaluate(spec_res, pt), evaluate(generic, pt)) < 1e-10

    def test_xw_matches_operator_built_equivalent(self):
        f = parse("sin(z2-z1) + z1*z2^2/5", 2)
        c = (0.3j, 0.8)
        p = PDDEProblem(kind="xw", n=2, m1=2, m2=3, c=c)
        spec_res = residual(p, f)
        op = LinearPDOperator(n=2, coeffs={(1, 0): Const(1.0), (0, 1): Const(1.0)})
        generic = Pow(apply_linear_operator(op, f), 2) + Pow(shift(f, c), 3) - 1
        for pt in disc_points(50, 30, 2):
            assert rel_err(evaluate(spec_res, pt), evaluate(generic, pt)) < 1e-10

    def test_fg_residual_linear_in_beta(self):
        op = LinearPDOperator(n=2, coeffs={(1, 0): Const(1.0), (0, 2): Var(2)})
        beta1 = parse("1+z2", 2)
        beta2 = parse("3", 2)
        common = dict(kind="fg", n=2, m1=2, m2=1, c=(1.0, 0.5), alpha=parse("2+z1", 2), operator=op)
        f = parse("exp(z1) + z2^2", 2)
        r1 = residual(PDDEProblem(beta=beta1, **common), f)
        r2 = residual(PDDEProblem(beta=beta2, **common), f)
        for pt in disc_points(51, 20, 2):
            delta = evaluate(r1, pt) - evaluate(r2, pt)
            expect = evaluate(beta2, pt) - evaluate(beta1, pt)
            assert rel_err(delta, expect) < 1e-11

    def test_xc_sine_family_solves(self):
        # f = sin(z1 + z2) with c = (pi, pi): cos^2 + sin^2(arg + 2 pi) = 1
        p = PDDEProblem(kind="xc", n=2, m1=2, m2=2, c=(PI, PI))
        f = parse("sin(z1+z2)", 2)
        rep = check_residual(residual(p, f), scale_terms(p, f), SamplingPolicy(), 2)
        assert rep.passed
        assert rep.max_rel_residual < 1e-12

    def test_xw_sine_family_solves(self):
        # f = sin(z1) with c1 = 2 pi: the z2 direction differentiates to zero
        p = PDDEProblem(kind="xw", n=2, m1=2, m2=2, c=(2 * PI, 0.5))
        f = parse("sin(z1)", 2)
        rep = check_residual(residual(p, f), scale_terms(p, f), SamplingPolicy(), 2)
        assert rep.passed

    def test_fg_exact_polynomial_instance(self):
        # G = d/dz1 on f = z1^2 gives 2 z1; with the difference 2 z1 + 1 the
        # right side 4 z1 + 1 balances exactly
        op = LinearPDOperator(n=2, coeffs={(1, 0): Const(1.0)})
        p = PDDEProblem(kind="fg", n=2, m1=1, m2=1, c=(1.0, 0.0), alpha=Const(1.0),
                        beta=parse("4*z1+1", 2), operator=op)
        f = parse("z1^2", 2)
        rep = check_residual(residual(p, f), scale_terms(p, f), SamplingPolicy(), 2)
        assert rep.passed
        assert rep.max_rel_residual < 1e-12

    def test_equ_kinds_fix_powers(self):
        p = PDDEProblem(kind="equ1", n=2, m1=None, m2=None, c=(1.0, 1.0))
        assert (p.m1, p.m2) == (2, 1)
        res = residual(p, parse("z1", 2))  # (1)^2 + (z1+1) - 1 = z1 + 1
        assert evaluate(res, (2.0, 0.0)) == pytest.approx(3.0, abs=1e-12)

    def test_scale_terms_cover_equation_sides(self):
        p = PDDEProblem(kind="fte", n=3, m1=2, c=(0, PI * 1j, PI * 1j), phi=Const(1.0))
        terms = scale_terms(p, F_EX4)
        assert len(terms) == 3
        pts = disc_points(52, 5, 3)
        for t in terms:
            vals, ok = eval_batch(t, pts)
            assert ok.all()


F2 = parse("exp(z1+z2)*(z1+1) + sin(z1*z2)", 2)


def _equation(kind):
    """(problem, lhs terms, right side) for candidate F2, from the module table."""
    c = (0.5, 0.25j)
    g = parse("z1*z2 + 1", 2)
    d1 = partial(F2, (1, 0))
    d12 = directional_derivative(F2, (1, 1))
    fs = shift(F2, c)
    if kind == "fermat":
        return PDDEProblem(kind=kind, n=2, m1=3, g=g), (Pow(F2, 3), Pow(g, 3)), 1
    if kind in ("xc", "xw"):
        d = d1 if kind == "xc" else d12
        return PDDEProblem(kind=kind, n=2, m1=2, m2=3, c=c), (Pow(d, 2), Pow(fs, 3)), 1
    if kind in ("equ1", "equ2"):
        d = d1 if kind == "equ1" else d12
        return PDDEProblem(kind=kind, n=2, m1=2, m2=1, c=c), (Pow(d, 2), fs), 1
    if kind == "fte":
        phi = parse("z2^2 + 1", 2)
        return PDDEProblem(kind=kind, n=2, m1=3, c=c, phi=phi), (Pow(d1, 3), fs), phi
    if kind == "ftee":
        phi = Const(2.0)
        return PDDEProblem(kind=kind, n=2, m1=3, c=c, phi=phi), (Pow(d12, 3), fs), phi
    op = LinearPDOperator(n=2, coeffs={(1, 0): Const(1.0), (1, 1): parse("z2+1", 2)})
    alpha, beta = parse("2 + z2", 2), parse("z1 + 3", 2)
    p = PDDEProblem(kind=kind, n=2, m1=2, m2=2, c=c, alpha=alpha, beta=beta, operator=op)
    gterm = apply_linear_operator(op, F2)
    return p, (Pow(gterm, 2), alpha * Pow(difference(F2, c), 2)), beta


@pytest.mark.parametrize("kind", KINDS)
def test_residual_and_scale_terms_share_the_equation_table(kind):
    p, lhs, rhs = _equation(kind)
    assert residual(p, F2) is lhs[0] + lhs[1] - rhs
    # a fixed right side 1 is no scale term
    assert scale_terms(p, F2) == ([*lhs, rhs] if isinstance(rhs, Expr) else [*lhs])


class TestProblemValidation:
    def test_unknown_kind(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="nope", n=2, m1=2, c=(1, 0))

    def test_phi_must_avoid_z1(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="fte", n=2, m1=2, c=(1, 0), phi=Var(1))

    def test_ftee_phi_must_avoid_z2(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="ftee", n=3, m1=2, c=(1, 0, 0), phi=Var(2))

    def test_phi_must_not_vanish(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="fte", n=2, m1=2, c=(1, 0), phi=parse("0*z2", 2))

    def test_zero_shift_vector(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="fte", n=2, m1=2, c=(0, 0), phi=Const(1.0))

    def test_shift_length(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="fte", n=3, m1=2, c=(1, 0), phi=Const(1.0))

    def test_equ1_needs_two_variables(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="equ1", n=3, m1=2, m2=1, c=(1, 0, 0))

    def test_equ1_rejects_other_powers(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="equ1", n=2, m1=3, m2=1, c=(1, 0))

    def test_xc_needs_m2(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="xc", n=2, m1=2, c=(1, 0))

    def test_fg_needs_operator_and_sides(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="fg", n=2, m1=2, m2=1, c=(1, 0), alpha=Const(1.0), beta=Const(1.0))

    def test_fg_alpha_must_not_vanish(self):
        op = LinearPDOperator(n=2, coeffs={(1, 0): Const(1.0)})
        with pytest.raises(ProblemSpecError):
            PDDEProblem(
                kind="fg", n=2, m1=2, m2=1, c=(1, 0),
                alpha=parse("0*z1", 2), beta=Const(1.0), operator=op,
            )

    def test_fermat_needs_partner(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="fermat", n=2, m1=2)

    def test_xw_needs_two_variables(self):
        with pytest.raises(ProblemSpecError):
            PDDEProblem(kind="xw", n=1, m1=2, m2=1, c=(1,))

    def test_unread_field_is_rejected(self):
        # fte reads no m2: the equation it was meant for is another one
        with pytest.raises(ProblemSpecError, match="kind fte does not read the field m2"):
            PDDEProblem(kind="fte", n=2, m1=2, m2=3, c=(1, 0), phi=Const(1.0))

    def test_unit_index(self):
        assert unit_index(2, 4) == (0, 1, 0, 0)
        with pytest.raises(DimensionError):
            unit_index(5, 4)

    def test_is_identically_zero(self):
        assert is_identically_zero(parse("cos(z1)^2 + sin(z1)^2 - 1", 1), 1)
        assert not is_identically_zero(parse("z1^2", 1), 1)

    def test_tiny_nonzero_is_not_zero(self):
        # judged against its own summands, not an absolute 1e-10
        assert not is_identically_zero(parse("1e-11*z2", 2), 2)
        assert not is_identically_zero(parse("1e-300", 1), 1)

    def test_huge_cancellation_is_zero(self):
        e = parse("exp(30*z2)*(z2+1) - exp(30*z2)*z2 - exp(30*z2)", 2)
        assert is_identically_zero(e, 2)
        assert is_identically_zero(-e, 2)

    def test_identity_inside_product_is_zero(self):
        # the cancelling sum sits under a product, a quotient or a power
        for text in (
            "z3*(cos(z3)^2 + sin(z3)^2 - 1)",
            "2*(exp(30*z2)*(z2+1) - exp(30*z2)*z2 - exp(30*z2))",
            "(cos(z1)^2 + sin(z1)^2 - 1)/(z2+3)",
            "-(exp(30*z2)*(z2+1) - exp(30*z2)*z2 - exp(30*z2))^3*z1",
        ):
            assert is_identically_zero(parse(text, 3), 3), text

    def test_product_of_nonzero_factors_is_not_zero(self):
        assert not is_identically_zero(parse("1e-11*z2*(z1+1)", 2), 2)
        assert not is_identically_zero(parse("(z1 - z2)^2/(z1+3)", 2), 2)

    def test_phi_vanishing_as_product_rejected(self):
        with pytest.raises(ProblemSpecError, match="vanishes"):
            PDDEProblem(kind="fte", n=3, m1=2, c=(1, 0, 0), phi=parse("z3*(cos(z3)^2 + sin(z3)^2 - 1)", 3))

    def test_tiny_operator_coefficient_accepted(self):
        op = LinearPDOperator(n=2, coeffs={(1, 0): parse("1e-11*z2", 2)})
        assert set(op.coeffs) == {(1, 0)}
