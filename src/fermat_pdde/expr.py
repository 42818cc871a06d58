"""Hash-consed complex expressions over variables z1..zn.

The node set is deliberately small: constants, variables, sums, products,
quotients, integer powers, and the one-operand nodes: negation,
exp/sin/cos, and the Weierstrass pair wp/wpd.  Each one-operand class
carries its grammar name and the numpy ufunc that evaluates it
elementwise (none for wp/wpd, which need the elliptic context), and
`FUNCTIONS` maps each name to its class: the parser, the printer,
constant folding and the tape all read this one table.  Nodes are
interned: constructing a node whose children and data equal those of a
live node returns that node, so structurally equal subtrees are one
object and an expression is a DAG, also when threads build expressions
at the same time.  Equality and hashing are by identity, which is
structural equality under interning.  A `Const` is keyed on the bit
pattern of its value, so 0.0 and -0.0 stay distinct and folding is
bit-exact.  The intern table holds nodes weakly; a node lives as long as
something else refers to it.

The tree walks (`free_variables`, `uses_wp`, `fold_constants`) and each
directional derivative are memoized on the node they start from, so a
shared subtree is walked or differentiated once.  Exact symbolic
differentiation (`partial`), argument shifting (`shift`), light constant
folding (`fold_constants`) and printing (`to_string`) live here.
Expressions are evaluated only by compiling them to a tape (`tape`) and
running it over blocks of sample points (`backends`).
"""

from __future__ import annotations

import math
import struct
import threading
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, EvalError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Neg",
    "Div",
    "Pow",
    "Exp",
    "Sin",
    "Cos",
    "Wp",
    "WpPrime",
    "FUNCTIONS",
    "as_expr",
    "variables",
    "free_variables",
    "max_var_index",
    "uses_wp",
    "fold_constants",
    "partial",
    "directional_derivative",
    "shift",
    "to_string",
    "DEFAULT_POLE_EPS",
]

#: pole threshold of tape evaluation where no sampling policy sets one (the
#: identity probe, the constructors' self-checks, `eval_batch` by default):
#: a denominator, or the base of a negative power, of modulus below it is a
#: pole hit
DEFAULT_POLE_EPS = 1e-12

# ---------------------------------------------------------------------------
# interning

#: intern key -> weak reference to the live node with that key.  Keys name
#: children by id(): a live node keeps its children alive, so their ids
#: cannot be reused while its entry exists, and a key holds no reference
#: that could keep a node (or a memo cycle through it) alive.
_TABLE: dict[tuple, weakref.KeyedRef] = {}
#: guards the check-then-insert of a new node and the removal of a dead one,
#: so threads building equal expressions get one node; reentrant because a
#: collection triggered inside _intern runs _forget on the same thread
_LOCK = threading.RLock()


def _forget(ref: weakref.KeyedRef) -> None:
    with _LOCK:
        if _TABLE.get(ref.key) is ref:
            del _TABLE[ref.key]


def _intern(cls, key: tuple, kids: tuple, **fields):
    ref = _TABLE.get(key)
    node = ref() if ref is not None else None
    if node is None:
        with _LOCK:
            ref = _TABLE.get(key)
            node = ref() if ref is not None else None
            if node is None:
                node = object.__new__(cls)
                node.__dict__.update(fields)
                node.__dict__["_kids"] = kids
                _TABLE[key] = weakref.KeyedRef(node, _forget, key)
    return node


# Nodes are dataclasses for their field list and repr only: construction
# goes through each class's __new__, which interns, and equality and
# hashing stay those of object (identity).  Memos are written straight
# into a node's __dict__, past the frozen __setattr__.

@dataclass(frozen=True, eq=False, init=False)
class Expr:
    """Base node."""

    def __add__(self, other) -> Expr:
        return _add(self, as_expr(other))

    def __radd__(self, other) -> Expr:
        return _add(as_expr(other), self)

    def __sub__(self, other) -> Expr:
        return _add(self, Neg(as_expr(other)))

    def __rsub__(self, other) -> Expr:
        return _add(as_expr(other), Neg(self))

    def __mul__(self, other) -> Expr:
        return _mul(self, as_expr(other))

    def __rmul__(self, other) -> Expr:
        return _mul(as_expr(other), self)

    def __truediv__(self, other) -> Expr:
        return Div(self, as_expr(other))

    def __rtruediv__(self, other) -> Expr:
        return Div(as_expr(other), self)

    def __pow__(self, exponent) -> Expr:
        return Pow(self, exponent)

    def __neg__(self) -> Expr:
        return Neg(self)

    def __str__(self) -> str:
        return to_string(self)

    def __reduce__(self):
        return type(self), tuple(self.__dict__[f] for f in self.__dataclass_fields__)


@dataclass(frozen=True, eq=False, init=False)
class Const(Expr):
    value: complex

    def __new__(cls, value):
        v = complex(value)
        return _intern(cls, (cls, struct.pack("<2d", v.real, v.imag)), (), value=v)


@dataclass(frozen=True, eq=False, init=False)
class Var(Expr):
    index: int  # 1-based

    def __new__(cls, index):
        if not isinstance(index, int) or index < 1:
            raise DimensionError(f"variable index must be a positive integer, got {index!r}")
        return _intern(cls, (cls, index), (), index=index)


@dataclass(frozen=True, eq=False, init=False)
class Add(Expr):
    terms: tuple[Expr, ...]

    def __new__(cls, terms):
        terms = tuple(terms)
        return _intern(cls, (cls, *map(id, terms)), terms, terms=terms)


@dataclass(frozen=True, eq=False, init=False)
class Mul(Expr):
    factors: tuple[Expr, ...]

    def __new__(cls, factors):
        factors = tuple(factors)
        return _intern(cls, (cls, *map(id, factors)), factors, factors=factors)


@dataclass(frozen=True, eq=False, init=False)
class Div(Expr):
    num: Expr
    den: Expr

    def __new__(cls, num, den):
        return _intern(cls, (cls, id(num), id(den)), (num, den), num=num, den=den)


@dataclass(frozen=True, eq=False, init=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def __new__(cls, base, exponent):
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise EvalError(f"Pow exponent must be an integer, got {exponent!r}")
        return _intern(cls, (cls, id(base), exponent), (base,), base=base, exponent=exponent)


@dataclass(frozen=True, eq=False, init=False)
class _Unary(Expr):
    """A node with one operand, applied elementwise.

    `name` is the node's function name in the grammar (None for negation)
    and `ufunc` the numpy ufunc that computes it (None for wp and wpd,
    which need the elliptic context).
    """

    arg: Expr
    name = None  # class attributes, not dataclass fields
    ufunc = None

    def __new__(cls, arg):
        return _intern(cls, (cls, id(arg)), (arg,), arg=arg)


@dataclass(frozen=True, eq=False, init=False)
class Neg(_Unary):
    ufunc = np.negative


@dataclass(frozen=True, eq=False, init=False)
class Exp(_Unary):
    name, ufunc = "exp", np.exp


@dataclass(frozen=True, eq=False, init=False)
class Sin(_Unary):
    name, ufunc = "sin", np.sin


@dataclass(frozen=True, eq=False, init=False)
class Cos(_Unary):
    name, ufunc = "cos", np.cos


@dataclass(frozen=True, eq=False, init=False)
class Wp(_Unary):
    name = "wp"


@dataclass(frozen=True, eq=False, init=False)
class WpPrime(_Unary):
    name = "wpd"


#: grammar function name -> node class
FUNCTIONS: dict[str, type[_Unary]] = {cls.name: cls for cls in (Exp, Sin, Cos, Wp, WpPrime)}

ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(x) -> Expr:
    """Coerce a scalar to Const; pass expressions through."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(complex(x))
    raise TypeError(f"cannot interpret {x!r} as an expression")


def variables(n: int) -> tuple[Var, ...]:
    """The tuple (z1, ..., zn)."""
    return tuple(Var(j) for j in range(1, n + 1))


def _add(a: Expr, b: Expr) -> Expr:
    # flatten one level so chained + stays shallow
    terms: list[Expr] = []
    for x in (a, b):
        if isinstance(x, Add):
            terms.extend(x.terms)
        else:
            terms.append(x)
    return Add(tuple(terms))


def _mul(a: Expr, b: Expr) -> Expr:
    factors: list[Expr] = []
    for x in (a, b):
        if isinstance(x, Mul):
            factors.extend(x.factors)
        else:
            factors.append(x)
    return Mul(tuple(factors))


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
# constant folding

def fold_constants(e: Expr) -> Expr:
    """Collapse constant subtrees, drop zero terms and unit factors.

    The result evaluates identically to the input wherever the input is
    defined.  This is deliberately *not* a canonical form: no expansion,
    no term collection beyond constants.  Memoized per node; a node that
    folds to itself is marked rather than pointing at itself.
    """
    out = e.__dict__.get("_folded")
    if out is None:
        out = _fold(e)
        e.__dict__["_folded"] = True if out is e else out
        return out
    return e if out is True else out


def _fold(e: Expr) -> Expr:
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Add):
        return _fold_add([fold_constants(t) for t in e.terms])
    if isinstance(e, Mul):
        return _fold_mul([fold_constants(f) for f in e.factors])
    if isinstance(e, Neg):
        return _fold_neg(fold_constants(e.arg))
    if isinstance(e, Div):
        return _fold_div(fold_constants(e.num), fold_constants(e.den))
    if isinstance(e, Pow):
        return _fold_pow(fold_constants(e.base), e.exponent)
    if isinstance(e, _Unary):
        arg = fold_constants(e.arg)
        # wp of a constant needs the elliptic context, so is never folded
        if isinstance(arg, Const) and e.ufunc is not None:
            with np.errstate(all="ignore"):
                return Const(complex(e.ufunc(arg.value)))
        return type(e)(arg)
    raise TypeError(f"unknown node {e!r}")


# The _fold_* helpers take operands that are already folded and return what
# _fold returns for the node built from them, so the derivative below can
# fold as it goes without building the unfolded node first.

def _fold_add(terms_in: list[Expr]) -> Expr:
    terms: list[Expr] = []
    csum = 0j
    for t in terms_in:
        for x in t.terms if isinstance(t, Add) else (t,):
            if isinstance(x, Const):
                csum += x.value
            else:
                terms.append(x)
    if csum != 0:
        terms.insert(0, Const(csum))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def _fold_mul(factors_in: list[Expr]) -> Expr:
    factors: list[Expr] = []
    cprod = 1 + 0j
    for f in factors_in:
        for x in f.factors if isinstance(f, Mul) else (f,):
            if isinstance(x, Const):
                cprod *= x.value
            else:
                factors.append(x)
    if cprod == 0:
        return ZERO
    if cprod != 1:
        factors.insert(0, Const(cprod))
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _fold_neg(arg: Expr) -> Expr:
    if isinstance(arg, Const):
        return Const(-arg.value)
    if isinstance(arg, Neg):
        return arg.arg
    return Neg(arg)


def _fold_div(num: Expr, den: Expr) -> Expr:
    if isinstance(den, Const) and den.value != 0:
        if isinstance(num, Const):
            return Const(num.value / den.value)
        if den.value == 1:
            return num
    return Div(num, den)


def _fold_pow(base: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, Const) and not (base.value == 0 and k < 0):
        try:
            return Const(base.value ** k)
        except (OverflowError, ZeroDivisionError):
            # extreme magnitudes stay unfolded (overflow, or a negative
            # power whose intermediate underflows to zero); evaluation
            # reports inf or a pole hit there instead
            return Pow(base, k)
    return Pow(base, k)


# ---------------------------------------------------------------------------
# differentiation

def _deriv(e: Expr, w: tuple[Const, ...]) -> Expr:
    """Folded derivative along the constant direction w: sum_j w_j d/dz_j.

    The result is `fold_constants` of the chain-rule expansion (product
    rule over every factor, quotient rule, ...), node for node, but it is
    folded as it is built, so the unfolded expansion is never made.  `w`
    holds interned constants, so it keys the per-node memo exactly (signed
    zeros included).  The memo lives on `e`: a later derivative of the
    same interned operand along the same direction is a lookup.
    """
    memo = e.__dict__.get("_deriv")
    if memo is None:
        memo = e.__dict__["_deriv"] = {}
    out = memo.get(w)
    if out is None:
        out = memo[w] = _deriv_node(e, w)
    return out


def _deriv_node(e: Expr, w: tuple[Const, ...]) -> Expr:
    fold = fold_constants
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return w[e.index - 1]
    if isinstance(e, Add):
        return _fold_add([_deriv(t, w) for t in e.terms])
    if isinstance(e, Mul):
        folded = [fold(f) for f in e.factors]
        return _fold_add([
            _fold_mul(folded[:i] + [_deriv(f, w)] + folded[i + 1:])
            for i, f in enumerate(e.factors)
        ])
    if isinstance(e, Neg):
        return _fold_neg(_deriv(e.arg, w))
    if isinstance(e, Div):
        u, v = e.num, e.den
        num = _fold_add([_fold_mul([_deriv(u, w), fold(v)]),
                         _fold_neg(_fold_mul([fold(u), _deriv(v, w)]))])
        return _fold_div(num, _fold_pow(fold(v), 2))
    if isinstance(e, Pow):
        k = e.exponent
        if k == 0:
            return ZERO
        return _fold_mul([Const(k), _fold_pow(fold(e.base), k - 1), _deriv(e.base, w)])
    if isinstance(e, Exp):
        return _fold_mul([fold(e), _deriv(e.arg, w)])
    if isinstance(e, Sin):
        return _fold_mul([fold(Cos(e.arg)), _deriv(e.arg, w)])
    if isinstance(e, Cos):
        return _fold_neg(_fold_mul([fold(Sin(e.arg)), _deriv(e.arg, w)]))
    if isinstance(e, Wp):
        return _fold_mul([fold(WpPrime(e.arg)), _deriv(e.arg, w)])
    if isinstance(e, WpPrime):
        # (wp')^2 = 4 wp^3 - 1  =>  wp'' = 6 wp^2
        return _fold_mul([Const(6.0), fold(Pow(Wp(e.arg), 2)), _deriv(e.arg, w)])
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
    partial of a live expression costs a few lookups.
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
    """Replace every z_j by z_j + c_j (the shifted function z -> z + c)."""
    cs = tuple(complex(x) for x in c)
    if max_var_index(e) > len(cs):
        raise DimensionError(
            f"shift vector has {len(cs)} components but the expression uses z{max_var_index(e)}"
        )
    done: dict[Expr, Expr] = {}

    def sub(node: Expr) -> Expr:
        out = done.get(node)
        if out is None:
            out = done[node] = sub_node(node)
        return out

    def sub_node(node: Expr) -> Expr:
        if isinstance(node, Const):
            return node
        if isinstance(node, Var):
            cj = cs[node.index - 1]
            if cj == 0:
                return node
            return Add((node, Const(cj)))
        if isinstance(node, Add):
            return Add(tuple(sub(t) for t in node.terms))
        if isinstance(node, Mul):
            return Mul(tuple(sub(f) for f in node.factors))
        if isinstance(node, _Unary):
            return type(node)(sub(node.arg))
        if isinstance(node, Div):
            return Div(sub(node.num), sub(node.den))
        if isinstance(node, Pow):
            return Pow(sub(node.base), node.exponent)
        raise TypeError(f"unknown node {node!r}")

    return fold_constants(sub(e))


# ---------------------------------------------------------------------------
# printing (inverse of the parser's grammar)

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_float(x: float) -> str:
    if math.isfinite(x) and x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_const(v: complex) -> tuple[str, int]:
    re, im = v.real, v.imag
    if im == 0:
        if re < 0:
            return f"-{_fmt_float(-re)}", _PREC_UNARY
        return _fmt_float(re), _PREC_ATOM
    if re == 0:
        if im == 1:
            return "i", _PREC_ATOM
        if im == -1:
            return "-i", _PREC_UNARY
        # the 'b*i' forms contain a top-level '*', so they embed at MUL
        # precedence: as a denominator they need parentheses
        if im < 0:
            return f"-{_fmt_float(-im)}*i", _PREC_MUL
        return f"{_fmt_float(im)}*i", _PREC_MUL
    sign = "+" if im >= 0 else "-"
    return f"({_fmt_float(re)}{sign}{_fmt_float(abs(im))}*i)", _PREC_ATOM


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
