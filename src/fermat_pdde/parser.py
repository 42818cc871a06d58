"""Recursive-descent parser for the expression grammar.

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' int)?
    unary  := '-' unary | atom
    atom   := number | 'i' | 'pi' | 'e' | var | func '(' expr ')' | '(' expr ')'
    var    := 'z' digits
    func   := 'sqrt' | a name in expr.FUNCTIONS: exp, sin, cos, wp, wpd

Numbers accept decimals and scientific notation.  Complex constants are
written as ``a+b*i``.  ``sqrt`` is folded at parse time and only accepts a
non-negative real constant argument.  Note that ``^`` applies to the whole
unary, so ``-z1^2`` parses as ``(-z1)^2``.

The result is built through the node constructors, so it is folded as it
is built (see `expr`); each chain of ``+``/``-`` is one sum and each run
of ``*`` one product, so a long chain is one wide node, not a deep one.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .errors import ParseError
from .expr import FUNCTIONS, Add, Const, Div, Expr, Mul, Neg, Pow, Var

__all__ = ["parse"]

#: largest n an expression is parsed under: every command reads its
#: dimension through `parse`, and every sample point holds n values
_MAX_DIMENSION = 1000

#: one alternative per token kind, tried in this order at each position;
#: `ws` and `bad` (any other single character) make every character part of
#: some match, so one scan of the text finds every token and the first bad
#: character
_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
    r"|(?P<bad>.)"
)


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


_new_token = tuple.__new__  # builds a _Token without its Python-level __new__


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
        tokens.append(_new_token(_Token, (kind, m[0], m.start())))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            terms.append(rhs if op == "+" else Neg(rhs))
        return _chain(Add, terms)

    # term := factor (('*'|'/') factor)*
    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.parse_factor()
            if op == "*":
                factors.append(rhs)
            else:
                factors = [Div(_chain(Mul, factors), rhs)]
        return _chain(Mul, factors)

    # factor := unary ('^' int)?
    def parse_factor(self) -> Expr:
        node = self.parse_unary()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Pow(node, self.parse_int_exponent())
        return node

    def parse_int_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "num":
            raise ParseError("expected an integer exponent after '^'", tok.pos)
        if not tok.text.isdigit():
            raise ParseError(f"exponent must be an integer, got {tok.text!r}", tok.pos)
        self.advance()
        return sign * int(tok.text)

    # unary := '-' unary | atom
    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text!r} overflows a double", tok.pos)
            return Const(value)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok.kind == "name":
            name = tok.text
            if name == "i":
                return Const(1j)
            if name == "pi":
                return Const(math.pi)
            if name == "e":
                return Const(math.e)
            if name in FUNCTIONS or name == "sqrt":
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
                return self.make_call(name, inner, tok.pos)
            if name[0] == "z" and name[1:].isdigit():
                index = int(name[1:])
                if index < 1 or index > self.n:
                    raise ParseError(
                        f"variable index out of range: {name} with dimension n={self.n}", tok.pos
                    )
                return Var(index)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)

    def make_call(self, name: str, inner: Expr, pos: int) -> Expr:
        if name == "sqrt":
            if not isinstance(inner, Const) or inner.value.imag != 0 or inner.value.real < 0:
                raise ParseError("sqrt expects a non-negative real constant argument", pos)
            return Const(math.sqrt(inner.value.real))
        return FUNCTIONS[name](inner)


def _chain(cls, operands: list[Expr]) -> Expr:
    # a lone operand is returned as it is: Add or Mul would add it to 0 or
    # multiply it by 1, which can turn a -0.0 part of a constant into +0.0
    return operands[0] if len(operands) == 1 else cls(operands)


def parse(text: str, n: int) -> Expr:
    """Parse an expression over z1..zn into a folded expression.

    Raises ParseError with the offending position on syntax errors,
    out-of-range variable indices, non-integer exponents and a dimension
    outside 1.._MAX_DIMENSION.
    """
    if n < 1:
        raise ParseError(f"dimension must be >= 1, got {n}", 0)
    if n > _MAX_DIMENSION:
        raise ParseError(f"dimension must be at most {_MAX_DIMENSION}, got {n}", 0)
    p = _Parser(text, n)
    node = p.parse_expr()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node
