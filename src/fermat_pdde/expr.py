"""Hash-consed, constant-folded complex expressions over variables z1..zn.

The node set is deliberately small: constants, variables, sums, products,
quotients, integer powers, and the one-operand nodes: negation,
exp/sin/cos, and the Weierstrass pair wp/wpd.  Each one-operand class
carries its grammar name and the numpy ufunc that evaluates it
elementwise (none for wp/wpd, which `elliptic.wp_many` computes), and
`FUNCTIONS` maps each name to its class: the parser, the printer,
constant folding and the tape all read this one table.

Every node is folded when it is built: each constructor collapses
constant operands, flattens nested sums and products, drops zero terms
and unit factors, and returns what is left, which may be a node of
another class (``Add((z1, Const(0)))`` is ``z1``).  This is deliberately
*not* a canonical form: no expansion, no term collection beyond
constants.  A fold of finite constants whose value is not finite is not
made: the grammar has no inf or NaN, so such a node stays unfolded and
prints as text that parses back to it.

Then the node is interned: constructing a node whose children and data
equal those of a live node returns that node, so structurally equal
subtrees are one object and an expression is a DAG, also when threads
build expressions at the same time.  Equality and hashing are by
identity, which is structural equality under interning.  A `Const` is
keyed on the bit pattern of its value, so 0.0 and -0.0 stay distinct and
folding is bit-exact.  The intern table holds nodes weakly; a node lives
as long as something else refers to it.

One iterative post-order walk on an explicit stack, `_walk`, gives the
free variables, `uses_wp` and each derivative and shift of a tree of any
depth.  It memoizes a node's value in the node's one dict `_memo`, under
a key per walk, so a shared subtree is walked once; a value that is the
node itself is stored as the marker `_SAME`, which makes no reference
cycle.  One per-call walk, `_postorder`, lists the distinct nodes under a
list of roots, each after its operands, for the tape compiler, printing
(`to_string`) and pickling.  Exact symbolic differentiation (`partial`)
and argument shifting (`shift`) live here too.
Expressions are evaluated only by compiling them to a tape (`tape`) and
running it over blocks of sample points (`backends`).
"""

from __future__ import annotations

import cmath
import math
import struct
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass
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


def _intern(cls, key: tuple, kids: tuple, fields: tuple):
    ref = _TABLE.get(key)
    node = ref() if ref is not None else None
    if node is None:
        with _LOCK:
            ref = _TABLE.get(key)
            node = ref() if ref is not None else None
            if node is None:
                node = object.__new__(cls)
                node.__dict__.update(zip(cls.__dataclass_fields__, fields))
                node.__dict__["_kids"] = kids
                node.__dict__["_memo"] = {}
                _TABLE[key] = weakref.KeyedRef(node, _forget, key)
    return node


def _make(cls, *fields):
    """The interned node of class `cls` with these field values, as given.

    Every constructor ends here once it has folded, and so does unpickling,
    which must not fold again: refolding a folded node can give another
    node (1 times a leading constant 6-0j is 6+0j).
    """
    if cls is Add or cls is Mul:
        kids = fields[0]
        key = (cls, *map(id, kids))
    elif cls is Pow:
        kids = fields[:1]
        key = (cls, id(fields[0]), fields[1])
    elif cls is Const:
        v = fields[0]
        kids, key = (), (cls, struct.pack("<2d", v.real, v.imag))
    elif cls is Var:
        kids, key = (), (cls, fields[0])
    else:  # a quotient or a one-operand node
        kids = fields
        key = (cls, *map(id, kids))
    return _intern(cls, key, kids, fields)


def _unpickle(items):
    """The last node of a postfix list from `Expr.__reduce__`, rebuilt through `_make`."""
    nodes = []
    for cls, kids, rest in items:
        kids = tuple(nodes[k] for k in kids)
        nodes.append(_make(cls, kids) if cls is Add or cls is Mul else _make(cls, *kids, *rest))
    return nodes[-1]


# Nodes are dataclasses for their field list only: construction goes
# through each class's __new__, which folds and then interns, and equality
# and hashing stay those of object (identity).  The repr and the frozen
# __setattr__ and __delattr__ are written once, on Expr, so decorating a
# node class generates no code; a class that adds no field (the unary
# nodes below _Unary) inherits the field list undecorated.  Memos are
# written straight into a node's __dict__, past the frozen __setattr__.
_node = dataclass(init=False, repr=False, eq=False)


@_node
class Expr:
    """Base node."""

    def __add__(self, other) -> Expr:
        return Add((self, as_expr(other)))

    def __radd__(self, other) -> Expr:
        return Add((as_expr(other), self))

    def __sub__(self, other) -> Expr:
        return Add((self, Neg(as_expr(other))))

    def __rsub__(self, other) -> Expr:
        return Add((as_expr(other), Neg(self)))

    def __mul__(self, other) -> Expr:
        return Mul((self, as_expr(other)))

    def __rmul__(self, other) -> Expr:
        return Mul((as_expr(other), self))

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
        # one flat postfix list of the distinct nodes (`_postorder`), each
        # (class, operand indices, other fields), so a tree of any depth
        # pickles and copies without recursion
        index, items = _postorder((self,)), []
        for node in index:
            rest = (node.__dict__[f] for f in node.__dataclass_fields__)
            items.append((type(node), tuple(index[k] for k in node._kids),
                          tuple(v for v in rest if not isinstance(v, (Expr, tuple)))))
        return _unpickle, (tuple(items),)

    def __repr__(self) -> str:
        # the dataclass form, Add(terms=(Var(index=1), ...)), written out from
        # an explicit stack of text pieces and field values, so a tree of any
        # depth has a repr; a string per node, as `to_string` builds from
        # `_postorder`, would copy a deep chain's text once per level
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if isinstance(x, Expr):
                parts = [f"{type(x).__qualname__}("]
                for k, f in enumerate(x.__dataclass_fields__):
                    parts += [", " * (k > 0) + f"{f}=", x.__dict__[f]]
                stack += reversed([*parts, ")"])
            elif type(x) is tuple:
                parts = [p for k, v in enumerate(x) for p in (", " * (k > 0), v)]
                stack += reversed(["(", *parts, ",)" if len(x) == 1 else ")"])
            else:
                out.append(x if type(x) is str else repr(x))
        return "".join(out)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@_node
class Const(Expr):
    value: complex

    def __new__(cls, value):
        return _make(cls, complex(value))


@_node
class Var(Expr):
    index: int  # 1-based

    def __new__(cls, index):
        if not isinstance(index, int) or index < 1:
            raise DimensionError(f"variable index must be a positive integer, got {index!r}")
        return _make(cls, index)


@_node
class Add(Expr):
    """A sum: nested sums are flattened into it, its constant terms summed
    into one leading term (dropped if zero), and one remaining term is the
    result itself."""

    terms: tuple[Expr, ...]

    def __new__(cls, terms):
        terms = tuple(terms)  # read twice where a fold overflows
        rest: list[Expr] = []
        csum = 0j
        for t in terms:
            for x in t.terms if type(t) is Add else (t,):
                if type(x) is Const:
                    csum += x.value
                else:
                    rest.append(x)
        if not cmath.isfinite(csum):
            flat = tuple(x for t in terms for x in (t.terms if isinstance(t, Add) else (t,)))
            if not _foldable(csum, flat):
                return _make(cls, flat)
        if csum != 0:
            rest.insert(0, Const(csum))
        if not rest:
            return ZERO
        if len(rest) == 1:
            return rest[0]
        return _make(cls, tuple(rest))


@_node
class Mul(Expr):
    """A product: nested products are flattened into it, its constant
    factors multiplied into one leading factor (dropped if one; a zero
    product is the constant 0), and one remaining factor is the result
    itself."""

    factors: tuple[Expr, ...]

    def __new__(cls, factors):
        factors = tuple(factors)  # read twice where a fold overflows
        rest: list[Expr] = []
        cprod = None  # the first constant: 1+0j would turn an imaginary -0.0 into +0.0
        for f in factors:
            for x in f.factors if type(f) is Mul else (f,):
                if type(x) is Const:
                    cprod = x.value if cprod is None else cprod * x.value
                else:
                    rest.append(x)
        if cprod is None:
            cprod = 1 + 0j
        elif not cmath.isfinite(cprod):
            flat = tuple(x for f in factors for x in (f.factors if isinstance(f, Mul) else (f,)))
            if not _foldable(cprod, flat):
                return _make(cls, flat)
        if cprod == 0:
            return ZERO
        if cprod != 1:
            rest.insert(0, Const(cprod))
        if not rest:
            return ONE
        if len(rest) == 1:
            return rest[0]
        return _make(cls, tuple(rest))


@_node
class Div(Expr):
    """A quotient; one by a nonzero constant of a constant is folded, and
    one by the constant 1 is its numerator."""

    num: Expr
    den: Expr

    def __new__(cls, num, den):
        if isinstance(den, Const) and den.value != 0:
            if isinstance(num, Const):
                value = num.value / den.value
                if _foldable(value, (num, den)):
                    return Const(value)
            elif den.value == 1:
                return num
        return _make(cls, num, den)


@_node
class Pow(Expr):
    """An integer power; powers 0 and 1 and those of a constant are folded."""

    base: Expr
    exponent: int

    def __new__(cls, base, exponent):
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise EvalError(f"Pow exponent must be an integer, got {exponent!r}")
        if exponent == 0:
            return ONE
        if exponent == 1:
            return base
        if isinstance(base, Const) and not (base.value == 0 and exponent < 0):
            try:
                value = base.value ** exponent
            except (OverflowError, ZeroDivisionError):
                # extreme magnitudes stay unfolded (overflow, or a negative
                # power whose intermediate underflows to zero); evaluation
                # reports inf or a pole hit there instead
                pass
            else:
                if _foldable(value, (base,)):
                    return Const(value)
        return _make(cls, base, exponent)


@_node
class _Unary(Expr):
    """A node with one operand, applied elementwise.

    `name` is the node's function name in the grammar (None for negation)
    and `ufunc` the numpy ufunc that computes it (None for wp and wpd,
    which `elliptic.wp_many` computes and so are never folded).  A node with
    a ufunc and a constant operand is folded to its value.
    """

    arg: Expr
    name = None  # class attributes, not dataclass fields
    ufunc = None

    def __new__(cls, arg):
        if isinstance(arg, Const) and cls.ufunc is not None:
            with np.errstate(all="ignore"):
                value = complex(cls.ufunc(arg.value))
            if _foldable(value, (arg,)):
                return Const(value)
        return _make(cls, arg)


class Neg(_Unary):
    ufunc = np.negative

    def __new__(cls, arg):
        return arg.arg if isinstance(arg, Neg) else super().__new__(cls, arg)


class Exp(_Unary):
    name, ufunc = "exp", np.exp


class Sin(_Unary):
    name, ufunc = "sin", np.sin


class Cos(_Unary):
    name, ufunc = "cos", np.cos


class Wp(_Unary):
    name = "wp"


class WpPrime(_Unary):
    name = "wpd"


#: grammar function name -> node class
FUNCTIONS: dict[str, type[_Unary]] = {cls.name: cls for cls in (Exp, Sin, Cos, Wp, WpPrime)}

ZERO = Const(0.0)
ONE = Const(1.0)


def _foldable(value: complex, operands) -> bool:
    """Whether a constant fold that gives `value` is made.

    It is not when the constants among `operands` are all finite and
    `value` is not: the node then stays unfolded, so it prints as text the
    parser reads back to the same node, and evaluation meets the inf or
    NaN as it meets any other overflow.
    """
    return cmath.isfinite(value) or not all(
        cmath.isfinite(x.value) for x in operands if isinstance(x, Const)
    )


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


def _postorder(roots: Sequence[Expr]) -> dict[Expr, int]:
    """The distinct nodes under `roots`, each after its operands: node -> position.

    Roots are taken in order and operands left to right, as a recursive
    walk that skips seen nodes takes them.  A node that is no leaf waits
    on one explicit stack with an iterator over its operands until the
    iterator is spent, so a tree of any depth is walked.
    """
    pos: dict[Expr, int] = {}
    for root in roots:
        stack = [(root, iter(root._kids))] if root not in pos else []
        while stack:
            node, kids = stack[-1]
            for k in kids:
                if k not in pos:
                    if k._kids:
                        stack.append((k, iter(k._kids)))
                        break
                    pos[k] = len(pos)
            else:
                stack.pop()
                pos[node] = len(pos)
    return pos


#: the memo entry of a node whose value is the node itself: storing the node
#: would make it refer to itself, a reference cycle
_SAME = object()


def _walk(e: Expr, key, leaf, visit):
    """The value at `e` of a post-order walk, memoized on each node under `key`.

    A leaf (a constant or a variable) is worth `leaf(node)`, computed once
    per walk and kept on no node.  Any other node is worth `visit(node,
    values of its operands)`, stored in its `_memo` under `key` (as `_SAME`
    where it is the node itself), so a later walk under the same key stops
    where an earlier one has been.  A node without a value goes on the
    stack with a None and its operands above it, and is visited when the
    None is back on top; a popped operand that is a leaf or has a value is
    passed over.  It keeps this loop, not `_postorder`, which would list
    every node below `e`, also those below a node memoized under `key`.
    """
    if not e._kids:
        return leaf(e)
    out = e._memo.get(key)
    if out is None:
        stack, leaves = [e], {}
        while stack:
            node = stack.pop()
            if node is not None:
                if node._kids and key not in node._memo:
                    stack.append(node)
                    stack.append(None)
                    stack.extend(node._kids)
                continue
            node = stack.pop()
            vals = []
            for k in node._kids:
                if k._kids:
                    v = k._memo[key]
                    vals.append(k if v is _SAME else v)
                else:
                    vals.append(leaves[k] if k in leaves else leaves.setdefault(k, leaf(k)))
            out = visit(node, vals)
            node._memo[key] = _SAME if out is node else out
        out = e._memo[key]
    return e if out is _SAME else out


def free_variables(e: Expr) -> frozenset[int]:
    """Set of 1-based variable indices occurring in the expression."""
    return _walk(e, "free", lambda x: frozenset((x.index,)) if type(x) is Var else frozenset(),
                 lambda node, vals: frozenset().union(*vals))


def max_var_index(e: Expr) -> int:
    """Largest variable index used; 0 for constant expressions."""
    return max(free_variables(e), default=0)


def uses_wp(e: Expr) -> bool:
    return _walk(e, "wp", lambda x: False,
                 lambda node, vals: isinstance(node, (Wp, WpPrime)) or any(vals))


def _check_dimension(e: Expr, size: int, what: str) -> None:
    if max_var_index(e) > size:
        raise DimensionError(f"{what} has {size} components but the expression uses z{max_var_index(e)}")


def _rebuild(e: Expr, kids: list[Expr]) -> Expr:
    """A node of e's class and data on the operands `kids`, folded as it is built."""
    cls = type(e)
    if cls is Pow:
        return Pow(kids[0], e.exponent)
    return cls(kids) if cls is Add or cls is Mul else cls(*kids)


# ---------------------------------------------------------------------------
# differentiation

def _derivative(e: Expr, w: tuple[Const, ...]) -> Expr:
    """Derivative along the constant direction w: sum_j w_j d/dz_j.

    The chain-rule expansion (product rule, quotient rule, ...; see
    `_deriv_node`) is built through the constructors, so it is folded as
    it is built.  `w` holds interned constants, so it keys the per-node
    memo exactly (signed zeros included): a later derivative of the same
    interned operand along the same direction is a lookup.
    """
    return _walk(e, ("d", w), lambda x: ZERO if type(x) is Const else w[x.index - 1], _deriv_node)


def _deriv_node(e: Expr, ds: list[Expr]) -> Expr:
    """The derivative of one node that is no leaf, given its operands' derivatives `ds`.

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
    if isinstance(e, Add):
        return Add(ds)
    if isinstance(e, Mul):
        fs = list(e.factors)
        # skip the terms whose differentiated factor is 0: each would fold
        # to 0 and add nothing.  That holds while e has at most one constant
        # factor and it is finite; else 0 times it is NaN, or the constants
        # overflowed and the term would stay unfolded
        consts = [x.value for x in fs if isinstance(x, Const)]
        keep_zero = len(consts) > 1 or not all(map(cmath.isfinite, consts))
        touched = [i for i, d in enumerate(ds) if d is not ZERO]
        if not keep_zero and len(touched) > 1 and len(touched) + len(consts) < len(fs):
            inner = [fs[i] for i in touched]
            return Mul([f for f, d in zip(fs, ds) if d is ZERO] + [Add(
                [Mul(inner[:k] + [ds[i]] + inner[k + 1:]) for k, i in enumerate(touched)])])
        return Add([Mul(fs[:i] + [d] + fs[i + 1:])
                    for i, d in enumerate(ds) if d is not ZERO or keep_zero])
    if isinstance(e, Div):
        u, v = e.num, e.den
        return (ds[0] * v - u * ds[1]) / v**2
    (d,) = ds  # the one operand's derivative
    if isinstance(e, Neg):
        return Neg(d)
    if isinstance(e, Pow):
        k = e.exponent
        return Mul([Const(k), Pow(e.base, k - 1), d])
    if isinstance(e, Exp):
        return e * d
    if isinstance(e, Sin):
        return Cos(e.arg) * d
    if isinstance(e, Cos):
        return -(Sin(e.arg) * d)
    if isinstance(e, Wp):
        return WpPrime(e.arg) * d
    if isinstance(e, WpPrime):
        # (wp')^2 = 4 wp^3 - 1  =>  wp'' = 6 wp^2
        return Mul([Const(6.0), Wp(e.arg) ** 2, d])
    raise TypeError(f"unknown node {e!r}")


def directional_derivative(e: Expr, weights: Sequence[complex]) -> Expr:
    """sum_j w_j * de/dz_j in one chain-rule pass.

    Equal to adding the individual partials, but arguments killed by the
    direction (such as z2 - z1 under w = (1, 1, 0, ...)) fold to zero
    structurally, which keeps the result well conditioned where the
    termwise sum would cancel catastrophically.
    """
    w = tuple(Const(x) for x in weights)
    _check_dimension(e, len(w), "direction")
    return _derivative(e, w)


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
    _check_dimension(e, len(idx), "multi-index")
    out = e
    for j, count in enumerate(idx):
        w = (ZERO,) * j + (ONE,) + (ZERO,) * (len(idx) - j - 1)  # d/dz_(j+1)
        for _ in range(count):
            out = _derivative(out, w)
    return out


def shift(e: Expr, c: Sequence[complex]) -> Expr:
    """Replace every z_j by z_j + c_j (the shifted function z -> z + c).

    Memoized on each node like a derivative, keyed by the interned shift
    constants.  A shift contains its node only where it is the node, which
    is stored as `_SAME` (a shift deepens a tree by at most the sum that
    replaces a variable), so the memo holds no reference cycle.
    """
    cs = tuple(Const(x) for x in c)
    _check_dimension(e, len(cs), "shift vector")
    return _walk(e, ("s", cs), lambda x: x if type(x) is Const else Add((x, cs[x.index - 1])),
                 _rebuild)


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


def _render(node: Expr, ops: list[tuple[str, int]]) -> tuple[str, int]:
    """The text and precedence of one node, given those of its operands."""
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return f"z{node.index}", _PREC_ATOM
    if isinstance(node, Add):
        (first, _), *rest = ops
        return first + "".join(" - " + s[1:] if s.startswith("-") else " + " + s
                               for s, _ in rest), _PREC_ADD
    if isinstance(node, Mul):
        return "*".join(f"({s})" if p < _PREC_MUL else s for s, p in ops), _PREC_MUL
    if isinstance(node, Neg):
        ((s, p),) = ops
        # '^' binds after unary minus in this grammar, so "-x^2" would
        # re-parse as (-x)^2; parenthesize Pow arguments.
        if p < _PREC_UNARY or isinstance(node.arg, Pow):
            s = f"({s})"
        return f"-{s}", _PREC_UNARY
    if isinstance(node, Div):
        (ns, npr), (ds, dpr) = ops
        if npr < _PREC_MUL:
            ns = f"({ns})"
        if dpr <= _PREC_MUL:
            ds = f"({ds})"
        return f"{ns}/{ds}", _PREC_MUL
    if isinstance(node, Pow):
        ((bs, bp),) = ops
        if bp != _PREC_ATOM:
            bs = f"({bs})"
        return f"{bs}^{node.exponent}", _PREC_POW
    if isinstance(node, _Unary):
        return f"{node.name}({ops[0][0]})", _PREC_ATOM
    raise TypeError(f"unknown node {node!r}")


def to_string(e: Expr) -> str:
    """Render in the expression grammar.

    `parse(to_string(e))` gives back e while the text nests no deeper than
    the parser reads (`parser._MAX_NESTING`, 200 parentheses and calls);
    a deeper tree, which no text the parser reads spells, prints to text
    it refuses.  Each distinct node is rendered once, in `_postorder`,
    from its operands' text and precedence in `done`, so a tree of any
    depth prints; an operand leaves `done` at its last reader.
    """
    reads = dict.fromkeys(_postorder((e,)), 0)  # per node, its readers not yet rendered
    for node in reads:
        for k in node._kids:
            reads[k] += 1
    done: dict[Expr, tuple[str, int]] = {}
    for node in reads:
        ops = []
        for k in node._kids:
            reads[k] -= 1
            ops.append(done[k] if reads[k] else done.pop(k))
        done[node] = _render(node, ops)
    return done[e][0]
