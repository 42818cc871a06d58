"""Reference implementations the tests hold the package against.

`evaluate` walks the expression tree in Python complex arithmetic, one
point at a time, and `fd_partial` takes central differences of it.  The
package evaluates only through the compiled tape (`fermat_pdde.backends`);
the tests hold its values and derivatives against these.  `tokenize`
splits text into tokens by matching one token at a time, as the parser
did before it scanned the whole text with one pattern.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

from fermat_pdde.errors import (
    DimensionError,
    EvalError,
    ParseError,
    PoleHitError,
)
from fermat_pdde.expr import (
    DEFAULT_POLE_EPS,
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

__all__ = ["evaluate", "fd_partial", "tokenize"]


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


def tokenize(text: str) -> list[tuple[str, str, int]]:
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
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens
