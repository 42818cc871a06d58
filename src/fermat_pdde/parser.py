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

One `re.findall` call splits the text into tuples of matched strings;
`_sum`, `_product` and `_factor` read them by index, and a factor's minus
signs and ``^`` suffix are loops.  A token's position is counted from the
lengths matched before it, only when a ParseError is raised.  Parentheses
and calls nest at most `_MAX_NESTING` deep.  A number and an exponent
must fit a double and a variable index 1..n, and no more digits are
converted than that range has: ``z01`` is z1 and ``^0003`` a cube.

The result is built through the node constructors, so it is folded as it
is built (see `expr`); each chain of ``+``/``-`` is one sum and each run
of ``*`` one product, so a long chain is one wide node, not a deep one.
"""

from __future__ import annotations

import math
import re
import sys

from .errors import ParseError
from .expr import FUNCTIONS, Add, Const, Div, Expr, Mul, Neg, Pow, Var

__all__ = ["parse"]

#: largest n an expression is parsed under: every command reads its
#: dimension through `parse`, and every sample point holds n values
_MAX_DIMENSION = 1000

#: deepest nesting of parentheses and calls; the descent takes three
#: frames a level, far inside the interpreter's recursion limit
_MAX_NESTING = 200

#: digits of the largest variable index and of the largest finite double
_INDEX_DIGITS = len(str(_MAX_DIMENSION))
_DOUBLE_DIGITS = len(str(int(sys.float_info.max)))

_CONSTANTS = {"i": 1j, "pi": math.pi, "e": math.e}

#: one match per token: the whitespace before it, then a num, a name, an
#: op, a bad character (one no token starts) or the end of the text.
#: `_tokenize` gives each as (space, num, name, op, bad), the groups that
#: did not match empty; the first token with only space is the end, and
#: the matches are contiguous, so they cover the text
_TOKEN_RE = re.compile(
    r"(\s*)(?:((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z][A-Za-z0-9]*)"
    r"|([-+*/^()])"
    r"|(\S)|\Z)"
)
_tokenize = _TOKEN_RE.findall


def _error(message: str, toks: list, k: int) -> ParseError:
    """A ParseError at token k, placed by the lengths matched before it."""
    return ParseError(message, len("".join(map("".join, toks[:k]))) + len(toks[k][0]))


def _chain(cls, operands: list[Expr]) -> Expr:
    # a lone operand is returned as it is: Add or Mul would add it to 0 or
    # multiply it by 1, which can turn a -0.0 part of a constant into +0.0
    return operands[0] if len(operands) == 1 else cls(operands)


# Each level reads the tokens from index k and returns its node and the
# index of the first token it did not read.

def _sum(toks: list, k: int, n: int, depth: int) -> tuple[Expr, int]:
    node, k = _product(toks, k, n, depth)
    op = toks[k][3]
    if op != "+" and op != "-":
        return node, k
    terms = [node]
    while op == "+" or op == "-":
        node, k = _product(toks, k + 1, n, depth)
        terms.append(node if op == "+" else Neg(node))
        op = toks[k][3]
    return Add(terms), k


def _product(toks: list, k: int, n: int, depth: int) -> tuple[Expr, int]:
    node, k = _factor(toks, k, n, depth)
    op = toks[k][3]
    if op != "*" and op != "/":
        return node, k
    factors = [node]
    while op == "*" or op == "/":
        node, k = _factor(toks, k + 1, n, depth)
        if op == "*":
            factors.append(node)
        else:
            factors = [Div(_chain(Mul, factors), node)]
        op = toks[k][3]
    return _chain(Mul, factors), k


def _factor(toks: list, k: int, n: int, depth: int) -> tuple[Expr, int]:
    first = k
    _, num, name, op, _ = toks[k]
    while op == "-":
        k += 1
        _, num, name, op, _ = toks[k]
    negations = k - first
    at = k
    k += 1
    if name:
        if name[0] == "z" and name[1:].isdigit():
            digits = name[1:].lstrip("0")
            index = int(digits) if 0 < len(digits) <= _INDEX_DIGITS else 0
            if index < 1 or index > n:
                raise _error(f"variable index out of range: {name} with dimension n={n}", toks, at)
            node = Var(index)
        elif name in FUNCTIONS or name == "sqrt":
            if toks[k][3] != "(":
                raise _error("expected '('", toks, k)
            if depth == _MAX_NESTING:
                raise _error(f"nesting deeper than {_MAX_NESTING} parentheses and calls", toks, k)
            inner, k = _sum(toks, k + 1, n, depth + 1)
            if toks[k][3] != ")":
                raise _error("expected ')'", toks, k)
            k += 1
            if name != "sqrt":
                node = FUNCTIONS[name](inner)
            elif not isinstance(inner, Const) or inner.value.imag != 0 or inner.value.real < 0:
                raise _error("sqrt expects a non-negative real constant argument", toks, at)
            else:
                node = Const(math.sqrt(inner.value.real))
        elif name in _CONSTANTS:
            node = Const(_CONSTANTS[name])
        else:
            raise _error(f"unknown identifier {name!r}", toks, at)
    elif num:
        value = float(num)
        if not math.isfinite(value):
            raise _error(f"number {num!r} overflows a double", toks, at)
        node = Const(value)
    elif op == "(":
        if depth == _MAX_NESTING:
            raise _error(f"nesting deeper than {_MAX_NESTING} parentheses and calls", toks, at)
        node, k = _sum(toks, k, n, depth + 1)
        if toks[k][3] != ")":
            raise _error("expected ')'", toks, k)
        k += 1
    else:
        raise _error(f"unexpected token {op!r}" if op else "unexpected end of input", toks, at)
    while negations:
        node = Neg(node)
        negations -= 1
    if toks[k][3] != "^":
        return node, k
    sign = 1
    k += 1
    if toks[k][3] == "-":
        sign = -1
        k += 1
    num = toks[k][1]
    if not num:
        raise _error("expected an integer exponent after '^'", toks, k)
    if not num.isdigit():
        raise _error(f"exponent must be an integer, got {num!r}", toks, k)
    if not math.isfinite(float(num)):
        raise _error(f"exponent {num!r} overflows a double", toks, k)
    # a value that fits a double has no more digits than the largest one,
    # so every digit before those is a zero
    return Pow(node, sign * int(num[-_DOUBLE_DIGITS:])), k + 1


def parse(text: str, n: int) -> Expr:
    """Parse an expression over z1..zn into a folded expression.

    Raises ParseError with the offending position on syntax errors,
    out-of-range variable indices, non-integer exponents, nesting deeper
    than _MAX_NESTING, a number or exponent past the double range and a
    dimension outside 1.._MAX_DIMENSION.
    """
    if n < 1:
        raise ParseError(f"dimension must be >= 1, got {n}", 0)
    if n > _MAX_DIMENSION:
        raise ParseError(f"dimension must be at most {_MAX_DIMENSION}, got {n}", 0)
    toks = _tokenize(text)
    try:
        node, k = _sum(toks, 0, n, 0)
        trailing = "".join(toks[k][1:])
        if trailing:
            raise _error(f"unexpected trailing input {trailing!r}", toks, k)
    except ParseError:
        # as if the text were split before it was read: a character no
        # token starts is the error, wherever it stands
        for k, tok in enumerate(toks):
            if tok[4]:
                raise _error(f"unexpected character {tok[4]!r}", toks, k) from None
        raise
    return node
