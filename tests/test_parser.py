import math

import pytest
from hypothesis import given, settings

from fermat_pdde.errors import ParseError
from fermat_pdde.expr import (
    Add,
    Const,
    Cos,
    Exp,
    Mul,
    Neg,
    Pow,
    Sin,
    Var,
    Wp,
    WpPrime,
    to_string,
)
from fermat_pdde.parser import parse

from conftest import disc_points, rel_err
from oracle import evaluate
from test_expr import eval_ok, exprs


class TestGrammar:
    def test_sum_of_power_and_imaginary_product(self):
        assert parse("z1^2 + i*z2", 2) == Add((Pow(Var(1), 2), Mul((Const(1j), Var(2)))))

    def test_function_call(self):
        assert parse("exp(z2+z3)", 3) == Exp(Add((Var(2), Var(3))))

    def test_precedence_mul_before_add(self):
        e = parse("z1 + 2*z2", 2)
        assert evaluate(e, (1, 3)) == pytest.approx(7, abs=1e-14)

    def test_left_associative_division(self):
        assert evaluate(parse("8/2/2", 1), (0,)) == pytest.approx(2, abs=1e-14)

    def test_power_binds_unary(self):
        # factor := unary ('^' int)?  makes -z1^2 read as (-z1)^2
        assert parse("-z1^2", 1) == Pow(Neg(Var(1)), 2)

    def test_negative_exponent(self):
        assert parse("z1^-2", 1) == Pow(Var(1), -2)

    def test_nested_parens_and_functions(self):
        e = parse("cos(sin(z1) + exp(-z2))", 2)
        assert e == Cos(Add((Sin(Var(1)), Exp(Neg(Var(2))))))

    def test_wp_nodes(self):
        assert parse("wp(z1)", 1) == Wp(Var(1))
        assert parse("wpd(z1+i)", 1) == WpPrime(Add((Const(1j), Var(1))))

    def test_whitespace_insensitive(self):
        assert parse(" z1 +  2 * z2 ", 2) == parse("z1+2*z2", 2)

    def test_scientific_notation(self):
        assert parse("2e3", 1) == Const(2000.0)
        assert parse("1.5e-2", 1) == Const(0.015)


class TestConstantFoldingAtParseTime:
    def test_pi_i_e(self):
        assert parse("pi", 1) == Const(math.pi)
        assert parse("i", 1) == Const(1j)
        assert parse("e", 1) == Const(math.e)

    def test_complex_literal(self):
        assert parse("1.5-2*i", 1) == Const(1.5 - 2j)

    def test_sqrt_literal(self):
        assert parse("sqrt(3)", 1) == Const(math.sqrt(3.0))
        assert parse("sqrt(2+2)", 1) == Const(2.0)

    def test_numeric_subtree_folding(self):
        assert parse("2*pi*i*z1", 1) == Mul((Const(2j * math.pi), Var(1)))

    def test_sqrt_rejects_nonconstant(self):
        with pytest.raises(ParseError):
            parse("sqrt(z1)", 1)

    def test_sqrt_rejects_negative(self):
        with pytest.raises(ParseError):
            parse("sqrt(-1)", 1)


class TestErrors:
    def test_variable_out_of_range_and_position(self):
        with pytest.raises(ParseError) as exc:
            parse("z3^2", 2)
        assert exc.value.position == 0
        assert "out of range" in str(exc.value)

    def test_variable_zero(self):
        with pytest.raises(ParseError):
            parse("z0", 2)

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError) as exc:
            parse("z1^2.5", 1)
        assert "integer" in str(exc.value)

    def test_parenthesized_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("z1^(2)", 1)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("z1 + * z2", 2)
        assert exc.value.position == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(z1 + z2", 2)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("z1 z2", 2)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("foo(z1)", 1)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("z1 @ z2", 2)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("", 1)

    @pytest.mark.parametrize("text", ["1e400", "z1 + 2e308*z1", "1e999999"])
    def test_overflowing_literal(self, text):
        with pytest.raises(ParseError) as exc:
            parse(text, 1)
        assert "overflows" in str(exc.value)

    def test_bad_dimension(self):
        with pytest.raises(ParseError):
            parse("z1", 0)


class TestPrintParseRoundTrip:
    def test_fixture_roundtrip(self):
        text = (
            "pi*i + z3 - z4 + z5 + exp(z2+z3-2*z4) - (pi^2+z1^2)/4"
            " + (z1-pi*i)*exp(5*z2*z3-2*z2*z4+z5+9) + (z1-pi*i)*(z2+z3+z4+z5)/18"
            " - (exp(5*z2*z3-2*z2*z4+z5+9) + (z2+z3+z4+z5-9*pi*i)/18)^2"
        )
        e = parse(text, 5)
        back = parse(to_string(e), 5)
        for pt in disc_points(21, 20, 5):
            assert rel_err(evaluate(back, pt), evaluate(e, pt)) < 1e-12

    def test_starred_constant_denominator_parenthesized(self):
        # "1/-0.5*i" would re-parse as (1/-0.5)*i; the printer must emit
        # "1/(-0.5*i)" for pure-imaginary denominators
        from fermat_pdde.expr import Const, Div, Neg

        e = Neg(Div(Const(1 + 0j), Const(-0.5j)))
        s = to_string(e)
        assert evaluate(parse(s, 1), (0,)) == pytest.approx(-2j, abs=1e-15)

    def test_wp_roundtrip(self):
        e = parse("wp(z1)^3 - wpd(z1)/sqrt(3)", 1)
        assert parse(to_string(e), 1) == e

    @settings(max_examples=80, deadline=None)
    @given(exprs())
    def test_random_roundtrip(self, e):
        back = parse(to_string(e), 3)
        for pt in disc_points(22, 4, 3, radius=0.8):
            a, b = eval_ok(e, pt), eval_ok(back, pt)
            if a is None or b is None:
                continue
            assert rel_err(b, a) < 1e-12
