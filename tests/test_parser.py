import contextlib
import io
import json
import math
import sys

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
    partial,
    shift,
    to_string,
)
from fermat_pdde.cli import main as cli_main
from fermat_pdde.parser import _tokenize, parse
from fermat_pdde.tape import compile_expr

from conftest import FIXTURES, disc_points, load_script, rel_err
from oracle import evaluate, tokenize
from oracle import parse as reference_parse
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
    def test_dimension_bound(self):
        assert parse("z1000", 1000) is Var(1000)
        for n in (1001, 10_000_000_000_000):
            with pytest.raises(ParseError, match=f"dimension must be at most 1000, got {n}"):
                parse("z1", n)

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


class TestLimits:
    """Nesting and integer text past what the parser takes is a ParseError, not a traceback."""

    def test_nesting_limit(self):
        assert parse("(" * 200 + "z1" + ")" * 200, 1) is Var(1)
        with pytest.raises(ParseError) as exc:
            parse("(" * 201 + "z1" + ")" * 201, 1)
        assert str(exc.value) == "nesting deeper than 200 parentheses and calls (at position 200)"

    def test_calls_and_parentheses_nest_alike(self):
        text = "exp(" * 100 + "(" * 100 + "z1" + ")" * 200
        assert parse(text, 1) is parse("exp(" * 100 + "z1" + ")" * 100, 1)
        with pytest.raises(ParseError, match="nesting deeper") as exc:
            parse("sin(" + text + ")", 1)
        assert exc.value.position == 4 + 400 + 99

    def test_exp_chain_at_the_limit(self):
        # the parser and every walk over the expression fit within the recursion limit
        e = parse("exp(" * 200 + "z1" + ")" * 200, 1)
        assert parse(to_string(e), 1) is e
        d = partial(e, (1,))
        s = shift(e, (0.5j,))
        assert len(compile_expr([e, d, s]).ops) >= 400  # the exps of e and of its shift
        with pytest.raises(ParseError, match="nesting deeper") as exc:
            parse("exp(" * 201 + "z1" + ")" * 201, 1)
        assert exc.value.position == 803

    @pytest.mark.parametrize("text, node", [
        ("z01", Var(1)),
        ("z" + "0" * 5000 + "2", Var(2)),
        ("z1^0003", Pow(Var(1), 3)),
        ("z1^" + "0" * 5000 + "3", Pow(Var(1), 3)),
        ("z1^-" + "0" * 400 + "2", Pow(Var(1), -2)),
    ], ids=["index", "long index", "exponent", "long exponent", "negative exponent"])
    def test_leading_zeros(self, text, node):
        assert parse(text, 2) is node

    @pytest.mark.parametrize("text, position", [
        ("z1^" + "9" * 5000, 3),
        ("z1^-" + "9" * 400, 4),
        ("z1^1" + "0" * 309, 3),
    ], ids=["past the conversion limit", "negative", "1e309"])
    def test_exponent_past_the_double_range(self, text, position):
        with pytest.raises(ParseError, match="overflows a double") as exc:
            parse(text, 1)
        assert exc.value.position == position

    def test_largest_exponent(self):
        k = int(sys.float_info.max)
        assert parse(f"z1^{k}", 1) is Pow(Var(1), k)

    @pytest.mark.parametrize("name", ["z" + "1" * 5000, "z1001", "z" + "0" * 5000],
                             ids=["past the conversion limit", "z1001", "zero"])
    def test_index_past_the_dimension_range(self, name):
        with pytest.raises(ParseError, match="variable index out of range") as exc:
            parse(f"1 + {name}", 1000)
        assert exc.value.position == 4


def scan(tokenizer, text):
    """The tokens of text as (kind, text, position) tuples, or the ParseError's message and position.

    The package's scan gives each token as the strings its groups matched,
    (space, num, name, op, bad): the kind is the group that matched, the
    position the length matched before it, and the first token with only
    space is the end.  A bad character is the error `parse` raises for it.
    """
    try:
        tokens = tokenizer(text)
    except ParseError as err:
        return ("ParseError", str(err), err.position)
    if tokenizer is not _tokenize:
        return [tuple(tok) for tok in tokens]
    out, pos = [], 0
    for space, *groups in tokens:
        pos += len(space)
        kind = next((kind for kind, g in zip(("num", "name", "op", "bad"), groups) if g), "end")
        if kind == "bad":
            with pytest.raises(ParseError) as exc:
                parse(text, 1)
            return ("ParseError", str(exc.value), exc.value.position)
        tok = "".join(groups)
        out.append((kind, tok, pos))
        if kind == "end":
            return out
        pos += len(tok)


def fixture_texts():
    """Every string in the problem files: expressions, and notes with characters no token starts."""
    texts = []

    def collect(value):
        if isinstance(value, str):
            texts.append(value)
        elif isinstance(value, dict):
            for v in value.values():
                collect(v)
        elif isinstance(value, list):
            for v in value:
                collect(v)

    for path in sorted(FIXTURES.glob("*.json")):
        collect(json.loads(path.read_text()))
    return texts


def constructor_texts():
    """f and the generated g part of one family member per theorem, as the CLI prints them."""
    texts = []
    for theorem, c in (("t1-i", "14,1,3,5"), ("t1-ii", "0,pi*i,pi*i"), ("t2-i", "2,3,2,4"),
                       ("t2-ii", "pi*i,2*pi*i,-pi*i,2*pi*i"), ("cor1", "0.6,1.1,0.9"),
                       ("cor2", "0.5,1.4,0.8"), ("equ1", "1,1"), ("equ2", "1,3")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(["--format", "machine", "construct", "--theorem", theorem, "--c", c,
                             "--gen-seed", "11", "--samples", "20"]) in (0, 1)
        doc = json.loads(out.getvalue())
        texts += [doc["f"], doc["g_part"]]
    return texts


def gathered_texts(source):
    """The fixture, fg rung or constructor texts."""
    if source == "fg":
        fg_texts = load_script("bench_pipeline").fg_texts
        return [t for n in range(2, 8) for t in fg_texts(n)]
    return {"fixtures": fixture_texts, "constructors": constructor_texts}[source]()


#: texts whose first bad character, one no token starts, is at a position
BAD_CHARACTERS = [
    ("z1 $ 2", 3, "$"),
    ("z1 +\n  # z2", 7, "#"),
    ("z1 +\n\t\r\x0b\x0c z2 ; 3", 13, ";"),
    ("z1 \u00b7 z2", 3, "\u00b7"),
    ("exp(z\u00e9)", 5, "\u00e9"),
    ("z1\u00a0+ \u2003z2 \u2212 1", 9, "\u2212"),
]

EDGE_TEXTS = ["", "   ", " z1 ", "\n1.5e-3*z2\t", "1e", "1.e5e", ".5.5", "z12ab3(", "2e+"]


class TestTokenizer:
    """The one-pattern scan splits text as the token-at-a-time matcher of `oracle` does."""

    @pytest.mark.parametrize("source", ["fixtures", "fg", "constructors"])
    def test_same_tokens_as_the_reference(self, source):
        texts = gathered_texts(source)
        assert len(texts) >= 12
        for text in texts:
            assert scan(_tokenize, text) == scan(tokenize, text), text

    @pytest.mark.parametrize("text, position, char", BAD_CHARACTERS)
    def test_bad_character_position(self, text, position, char):
        with pytest.raises(ParseError) as exc:
            parse(text, 2)
        assert exc.value.position == position
        assert str(exc.value) == f"unexpected character {char!r} (at position {position})"
        assert scan(_tokenize, text) == scan(tokenize, text)

    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_edge_texts(self, text):
        assert scan(_tokenize, text) == scan(tokenize, text)


def parsed(parser, text, n):
    """The node parser builds from text over z1..zn, or the ParseError's message and position."""
    try:
        return parser(text, n)
    except ParseError as err:
        return ("ParseError", str(err), err.position)


def assert_same_parse(text, n):
    got, want = parsed(parse, text, n), parsed(reference_parse, text, n)
    assert got is want or (type(want) is tuple and got == want), (text, n, got, want)


class TestSameNodesAsTheReference:
    """`parse` returns the very node the method-per-rule parser of `oracle` builds, or fails alike."""

    @pytest.mark.parametrize("source", ["fixtures", "fg", "constructors"])
    def test_gathered_texts(self, source):
        # under a smaller n than a text's, an index is out of range
        for text in gathered_texts(source):
            for n in (1, 3, 7):
                assert_same_parse(text, n)

    @pytest.mark.parametrize("text", EDGE_TEXTS + [text for text, _, _ in BAD_CHARACTERS])
    def test_edge_and_bad_character_texts(self, text):
        assert_same_parse(text, 2)

    @pytest.mark.parametrize("text", [
        "--z1^2", "-(-z1)^-3", "3/-z1*2", "z1^0003 - z01", "8/2/2*z2", "z1 + * z2", "(z1", "exp z1",
        "exp(z1", "z1^", "z1^-", "z1^2.5", "z1^(2)", "z1^2^3", "sqrt(z1)", "sqrt(-1)", "z1 z2", "z0",
        "z3", "foo(z1)", "1e400", "z1)", "2*/3", "-", "\u0663*z1^\u0663", "z1 ^ - 2 @",
    ])
    def test_grammar_and_error_texts(self, text):
        assert_same_parse(text, 2)

    @settings(max_examples=80, deadline=None)
    @given(exprs())
    def test_printed_random_expressions(self, e):
        assert_same_parse(to_string(e), 3)


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

    @pytest.mark.parametrize("text", ["1e300*1e300*z1", "exp(1000) + z1", "3/5e-324*z1"])
    def test_overflowing_fold_roundtrip(self, text):
        # the fold to inf or NaN is not made, so the printed text holds none
        e = parse(text, 1)
        assert parse(to_string(e), 1) is e

    @settings(max_examples=80, deadline=None)
    @given(exprs())
    def test_random_roundtrip(self, e):
        back = parse(to_string(e), 3)
        for pt in disc_points(22, 4, 3, radius=0.8):
            a, b = eval_ok(e, pt), eval_ok(back, pt)
            if a is None or b is None:
                continue
            assert rel_err(b, a) < 1e-12
