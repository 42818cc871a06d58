"""Reference implementations the tests hold the package against.

`evaluate` walks the expression tree in Python complex arithmetic, one
point at a time, and `fd_partial` takes central differences of it.  The
package evaluates only through the compiled tape (`fermat_pdde.backends`);
the tests hold its values and derivatives against these.  `tokenize`
splits text into tokens by matching one token at a time, as the parser
did before it scanned the whole text with one pattern, and `parse` reads
them with one method per rule of the grammar, as the parser did before
its descent read the scan's tuples by index.  `free_variables`,
`uses_wp`, `partial`, `directional_derivative`, `shift`, `to_string` and
`_zero_candidates` recurse once per tree level, each with its own memo on
the node (or none), as the package did before one iterative walk with one
memo per node replaced them.  `postorder` recurses to list the distinct
nodes under a list of roots in the order `expr._postorder` gives.
"""

from __future__ import annotations

import cmath
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
from fermat_pdde import expr as ex
from fermat_pdde.expr import (
    _PREC_ADD,
    _PREC_ATOM,
    _PREC_MUL,
    _PREC_POW,
    _PREC_UNARY,
    DEFAULT_POLE_EPS,
    FUNCTIONS,
    ONE,
    ZERO,
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
    _fmt_const,
    _Unary,
)

__all__ = [
    "evaluate", "fd_partial", "parse", "tokenize", "free_variables", "max_var_index", "uses_wp",
    "partial", "directional_derivative", "shift", "to_string", "_zero_candidates", "postorder",
]


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


# ---------------------------------------------------------------------------
# the recursive walks

def _children(e: Expr) -> tuple[Expr, ...]:
    """The node's operands, in evaluation order (stored at construction)."""
    return e._kids


def free_variables(e: Expr) -> frozenset[int]:
    """Set of 1-based variable indices occurring in the expression."""
    out = e.__dict__.get("_free")
    if out is None:
        if isinstance(e, Var):
            out = frozenset((e.index,))
        else:
            out = frozenset().union(*(free_variables(c) for c in _children(e)))
        e.__dict__["_free"] = out
    return out


def max_var_index(e: Expr) -> int:
    """Largest variable index used; 0 for constant expressions."""
    return max(free_variables(e), default=0)


def uses_wp(e: Expr) -> bool:
    out = e.__dict__.get("_uses_wp")
    if out is None:
        out = isinstance(e, (Wp, WpPrime)) or any(uses_wp(c) for c in _children(e))
        e.__dict__["_uses_wp"] = out
    return out


# ---------------------------------------------------------------------------
# differentiation

def _deriv(e: Expr, w: tuple[Const, ...]) -> Expr:
    """Derivative along the constant direction w: sum_j w_j d/dz_j.

    The chain-rule expansion (product rule, quotient rule, ...; see
    `_deriv_node`) is built through the constructors, so it is folded as
    it is built.  `w` holds interned constants, so it keys the per-node
    memo exactly (signed zeros included).  The memo lives on `e`: a later
    derivative of the same interned operand along the same direction is a
    lookup.
    """
    memo = e.__dict__.get("_deriv")
    if memo is None:
        memo = e.__dict__["_deriv"] = {}
    out = memo.get(w)
    if out is None:
        out = memo[w] = _deriv_node(e, w)
    return out


def _deriv_node(e: Expr, w: tuple[Const, ...]) -> Expr:
    """The derivative of one node along w, differentiating its operands by `_deriv`.

    A product is one product rule.  Where two or more factors have a
    derivative other than the 0 node and some non-constant factor has the
    0 node (w does not touch it), the result is the untouched factors, in
    their order, times the sum of the product rule over the touched ones;
    every other product is the sum of the products with one factor
    differentiated, over its touched factors (see the comment below).  So a
    mixed partial, whose steps each touch few factors, differentiates one
    interned sum per step and grows linearly in the number of steps, where
    copying the untouched factors into every term would double it per step.
    """
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return w[e.index - 1]
    if isinstance(e, Add):
        return Add([_deriv(t, w) for t in e.terms])
    if isinstance(e, Mul):
        fs = list(e.factors)
        # skip the terms whose differentiated factor is 0: each would fold
        # to 0 and add nothing.  That holds while e has at most one constant
        # factor and it is finite; else 0 times it is NaN, or the constants
        # overflowed and the term would stay unfolded
        consts = [x.value for x in fs if isinstance(x, Const)]
        keep_zero = len(consts) > 1 or not all(map(cmath.isfinite, consts))
        ds = [_deriv(f, w) for f in fs]
        touched = [i for i, d in enumerate(ds) if d is not ZERO]
        if not keep_zero and len(touched) > 1 and len(touched) + len(consts) < len(fs):
            inner = [fs[i] for i in touched]
            return Mul([f for f, d in zip(fs, ds) if d is ZERO] + [Add(
                [Mul(inner[:k] + [ds[i]] + inner[k + 1:]) for k, i in enumerate(touched)])])
        return Add([Mul(fs[:i] + [d] + fs[i + 1:])
                    for i, d in enumerate(ds) if d is not ZERO or keep_zero])
    if isinstance(e, Neg):
        return Neg(_deriv(e.arg, w))
    if isinstance(e, Div):
        u, v = e.num, e.den
        return (_deriv(u, w) * v - u * _deriv(v, w)) / v**2
    if isinstance(e, Pow):
        k = e.exponent
        return Mul([Const(k), Pow(e.base, k - 1), _deriv(e.base, w)])
    if isinstance(e, Exp):
        return e * _deriv(e.arg, w)
    if isinstance(e, Sin):
        return Cos(e.arg) * _deriv(e.arg, w)
    if isinstance(e, Cos):
        return -(Sin(e.arg) * _deriv(e.arg, w))
    if isinstance(e, Wp):
        return WpPrime(e.arg) * _deriv(e.arg, w)
    if isinstance(e, WpPrime):
        # (wp')^2 = 4 wp^3 - 1  =>  wp'' = 6 wp^2
        return Mul([Const(6.0), Wp(e.arg) ** 2, _deriv(e.arg, w)])
    raise TypeError(f"unknown node {e!r}")


def _unit(j: int, n: int) -> tuple[Const, ...]:
    return tuple(ONE if i == j else Const(0j) for i in range(1, n + 1))


def directional_derivative(e: Expr, weights: Sequence[complex]) -> Expr:
    """sum_j w_j * de/dz_j in one chain-rule pass.

    Equal to adding the individual partials, but arguments killed by the
    direction (such as z2 - z1 under w = (1, 1, 0, ...)) fold to zero
    structurally, which keeps the result well conditioned where the
    termwise sum would cancel catastrophically.
    """
    w = tuple(Const(x) for x in weights)
    if max_var_index(e) > len(w):
        raise DimensionError(
            f"direction has {len(w)} components but the expression uses z{max_var_index(e)}"
        )
    return _deriv(e, w)


def partial(e: Expr, multi_index: Sequence[int]) -> Expr:
    """Exact mixed partial derivative for a multi-index (i1, ..., in).

    Each entry counts repeated differentiation in that variable; the
    all-zero index returns the expression unchanged.  The result is folded
    but otherwise unsimplified: compare derivatives numerically, not
    structurally.  Every step is memoized on its operand, so repeating a
    partial of a live expression costs a few lookups.  A product's factors
    that a step does not touch stay outside its product-rule sum (see
    `_deriv_node`), so a mixed partial of a product of n factors in one
    variable each grows linearly in n, not as 2^n.
    """
    idx = tuple(multi_index)
    if any((not isinstance(i, int)) or i < 0 for i in idx):
        raise DimensionError(f"multi-index entries must be non-negative integers: {idx!r}")
    if max_var_index(e) > len(idx):
        raise DimensionError(
            f"multi-index has {len(idx)} components but the expression uses z{max_var_index(e)}"
        )
    out = e
    for j, count in enumerate(idx, start=1):
        w = _unit(j, len(idx))
        for _ in range(count):
            out = _deriv(out, w)
    return out


def shift(e: Expr, c: Sequence[complex]) -> Expr:
    """Replace every z_j by z_j + c_j (the shifted function z -> z + c).

    Memoized on each node like a derivative: a later shift of the same
    interned expression by the same vector is a lookup.
    """
    cs = tuple(complex(x) for x in c)
    if max_var_index(e) > len(cs):
        raise DimensionError(
            f"shift vector has {len(cs)} components but the expression uses z{max_var_index(e)}"
        )
    return _shift(e, tuple(Const(x) for x in cs))


#: the shift memo's entry for a node the shift leaves as it is: the node
#: itself would make the node refer to itself, a reference cycle
_UNSHIFTED = object()


def _shift(e: Expr, c: tuple[Const, ...]) -> Expr:
    """`shift` by the interned constants c, memoized on e under the key c.

    Constants and variables are not memoized: a constant is its own
    shift, and the shift of z_j, z_j + c_j, refers to z_j.  No other
    node's shift refers to the node (a shift deepens a tree by at most the
    one sum that replaces a variable), so the memo holds no cycle.
    """
    if type(e) is Const:
        return e
    if type(e) is Var:
        cj = c[e.index - 1]
        return e if cj.value == 0 else Add((e, cj))
    memo = e.__dict__.get("_shift")
    if memo is None:
        memo = e.__dict__["_shift"] = {}
    out = memo.get(c)
    if out is None:
        out = _shift_node(e, c)
        memo[c] = _UNSHIFTED if out is e else out
    elif out is _UNSHIFTED:
        out = e
    return out


def _shift_node(e: Expr, c: tuple[Const, ...]) -> Expr:
    if isinstance(e, Add):
        return Add(tuple(_shift(t, c) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_shift(f, c) for f in e.factors))
    if isinstance(e, _Unary):
        return type(e)(_shift(e.arg, c))
    if isinstance(e, Div):
        return Div(_shift(e.num, c), _shift(e.den, c))
    if isinstance(e, Pow):
        return Pow(_shift(e.base, c), e.exponent)
    raise TypeError(f"unknown node {e!r}")


def to_string(e: Expr) -> str:
    """Render in the expression grammar; parse(to_string(e)) evaluates equal to e."""

    def render(node: Expr) -> tuple[str, int]:
        if isinstance(node, Const):
            return _fmt_const(node.value)
        if isinstance(node, Var):
            return f"z{node.index}", _PREC_ATOM
        if isinstance(node, Add):
            parts = []
            for k, t in enumerate(node.terms):
                s, p = render(t)
                if k == 0:
                    parts.append(s)
                elif s.startswith("-"):
                    parts.append(" - " + s[1:])
                else:
                    parts.append(" + " + s)
            return "".join(parts), _PREC_ADD
        if isinstance(node, Mul):
            parts = []
            for f in node.factors:
                s, p = render(f)
                if p < _PREC_MUL:
                    s = f"({s})"
                parts.append(s)
            return "*".join(parts), _PREC_MUL
        if isinstance(node, Neg):
            s, p = render(node.arg)
            # '^' binds after unary minus in this grammar, so "-x^2" would
            # re-parse as (-x)^2; parenthesize Pow arguments.
            if p < _PREC_UNARY or isinstance(node.arg, Pow):
                s = f"({s})"
            return f"-{s}", _PREC_UNARY
        if isinstance(node, Div):
            ns, npr = render(node.num)
            ds, dpr = render(node.den)
            if npr < _PREC_MUL:
                ns = f"({ns})"
            if dpr <= _PREC_MUL:
                ds = f"({ds})"
            return f"{ns}/{ds}", _PREC_MUL
        if isinstance(node, Pow):
            bs, bp = render(node.base)
            if bp != _PREC_ATOM:
                bs = f"({bs})"
            return f"{bs}^{node.exponent}", _PREC_POW
        if isinstance(node, _Unary):
            s, _ = render(node.arg)
            return f"{node.name}({s})", _PREC_ATOM
        raise TypeError(f"unknown node {node!r}")

    return render(e)[0]


def postorder(roots) -> list[Expr]:
    """The distinct nodes under `roots`, each after its operands.

    Roots in order, operands left to right, and a node already listed is
    skipped where it occurs again.
    """
    seen: dict[Expr, None] = {}

    def visit(node: Expr) -> None:
        if node in seen:
            return
        for k in node._kids:
            visit(k)
        seen[node] = None

    for root in roots:
        visit(root)
    return list(seen)


def _zero_candidates(e: Expr) -> list[Expr]:
    """Sums and leaves of e, one of which vanishes iff e does.

    Holomorphic functions on a polydisc have no zero divisors, so a product
    vanishes identically iff one of its factors does; a quotient iff its
    numerator does; a positive power iff its base does.
    """
    if isinstance(e, ex.Neg):
        return _zero_candidates(e.arg)
    if isinstance(e, ex.Mul):
        return [c for factor in e.factors for c in _zero_candidates(factor)]
    if isinstance(e, ex.Div):
        return _zero_candidates(e.num)
    if isinstance(e, ex.Pow) and e.exponent > 0:
        return _zero_candidates(e.base)
    return [e]
