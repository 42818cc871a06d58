"""Reference implementations the tests hold the package against.

`evaluate` walks the expression tree in Python complex arithmetic, one
point at a time, and `fd_partial` takes central differences of it.  The
package evaluates only through the compiled tape (`fermat_pdde.backends`);
the tests hold its values and derivatives against these.  `tokenize`
splits text into tokens by matching one token at a time, as the parser
did before it scanned the whole text with one pattern, and `parse` reads
them with one method per rule of the grammar, as the parser did before
its descent read the scan's tuples by index.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Sequence

import numpy as np

from fermat_pdde.errors import (
    DimensionError,
    EvalError,
    ParseError,
    PoleHitError,
)
from fermat_pdde.expr import (
    DEFAULT_POLE_EPS,
    FUNCTIONS,
    Add,
    Const,
    Cos,
    Div,
    Exp,
    Expr,
    Mul,
    Neg,
    Pow,
    Sin,
    Var,
    Wp,
    WpPrime,
    max_var_index,
    uses_wp,
)

__all__ = ["evaluate", "fd_partial", "parse", "tokenize"]


def _ipow(base: complex, k: int, pole_eps: float) -> complex:
    if k < 0:
        v = _ipow(base, -k, pole_eps)
        if abs(v) < pole_eps:
            raise PoleHitError(f"near-zero base raised to negative power {k}")
        return 1.0 / v
    out = 1 + 0j
    b = base
    while k:
        if k & 1:
            out *= b
        b *= b
        k >>= 1
    return out


def evaluate(e: Expr, point: Sequence[complex], ell=None, pole_eps: float = DEFAULT_POLE_EPS) -> complex:
    """Value of the expression at one point of C^n.

    `ell` is the EllipticContext wp/wpd nodes are evaluated on, by default
    the package's lattice, as the tape takes it.  Near-zero denominators
    (|den| < pole_eps) and lattice-point arguments of wp raise PoleHitError.
    """
    pt = tuple(complex(x) for x in point)
    if max_var_index(e) > len(pt):
        raise DimensionError(
            f"point has {len(pt)} coordinates but the expression uses z{max_var_index(e)}"
        )
    if ell is None and uses_wp(e):
        from fermat_pdde.elliptic import default_context

        ell = default_context()

    seen: dict[Expr, complex] = {}

    def ev(node: Expr) -> complex:
        # a shared subtree is evaluated once
        out = seen.get(node)
        if out is None:
            out = seen[node] = ev_node(node)
        return out

    def ev_node(node: Expr) -> complex:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return pt[node.index - 1]
        if isinstance(node, Add):
            return sum((ev(t) for t in node.terms), 0j)
        if isinstance(node, Mul):
            out = 1 + 0j
            for f in node.factors:
                out *= ev(f)
            return out
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, Div):
            den = ev(node.den)
            if abs(den) < pole_eps:
                raise PoleHitError(f"denominator {den!r} below pole threshold {pole_eps}")
            return ev(node.num) / den
        if isinstance(node, Pow):
            return _ipow(ev(node.base), node.exponent, pole_eps)
        if isinstance(node, Exp):
            return complex(np.exp(np.complex128(ev(node.arg))))
        if isinstance(node, Sin):
            return complex(np.sin(np.complex128(ev(node.arg))))
        if isinstance(node, Cos):
            return complex(np.cos(np.complex128(ev(node.arg))))
        if isinstance(node, Wp):
            return ell.wp_pair(ev(node.arg))[0]
        if isinstance(node, WpPrime):
            return ell.wp_pair(ev(node.arg))[1]
        raise TypeError(f"unknown node {node!r}")

    with np.errstate(all="ignore"):
        return complex(ev(e))


def fd_partial(e: Expr, j: int, point: Sequence[complex], step: float = 1e-5, ell=None) -> complex:
    """Central-difference estimate of d e / d z_j at a point.

    Independent numeric oracle for `partial`; the step is taken along the
    real axis of the complex coordinate z_j.
    """
    if step <= 0:
        raise EvalError("fd_partial step must be positive")
    pt = list(complex(x) for x in point)
    if j < 1 or j > len(pt):
        raise DimensionError(f"variable index {j} out of range for point of length {len(pt)}")
    up = list(pt)
    dn = list(pt)
    up[j - 1] += step
    dn[j - 1] -= step
    return (evaluate(e, up, ell=ell) - evaluate(e, dn, ell=ell)) / (2.0 * step)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def tokenize(text: str) -> list[_Token]:
    """(kind, text, position) of each token, then ("end", "", len(text)).

    Raises ParseError at the first character that starts no token.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        pos = m.end()
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = tokenize(text)
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
    """The expression text denotes over z1..zn, read token by token from `tokenize`.

    Nesting is bounded only by the interpreter's recursion limit.
    """
    if n < 1:
        raise ParseError(f"dimension must be >= 1, got {n}", 0)
    if n > 1000:
        raise ParseError(f"dimension must be at most 1000, got {n}", 0)
    p = _Parser(text, n)
    node = p.parse_expr()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node
