"""Multi-output slot tapes: the package's one way to evaluate expressions.

`compile_expr` takes one expression or a list of them and walks the DAG
their interned nodes form.  It emits one instruction per distinct node,
in postfix order, and gives each instruction a value slot; a slot is
reused once the last instruction reading it has run.  A negation, exp,
sin or cos is one `OP_MAP` instruction that applies the node class's
ufunc (`expr.FUNCTIONS`).  Two kinds of node get no instruction of their
own:

- a constant (the empty sum and product too) is an immediate operand,
  a scalar the reading instruction broadcasts; a root constant gets an
  `OP_CONST` instruction, which only fills its output row;
- a negation read as a summand other than the first is folded into that
  sum as a subtraction, a - b for a + (-b) (it gets an `OP_MAP`
  instruction only when something else reads it).

Sums and products are one n-ary instruction each and are folded left to
right, in the order of their operands, so every value matches the one a
node-by-node postfix evaluation of the same tree gives, bit for bit.  A
wide sum or product starts its fold early, in steps attached to the
instructions that produce its operands, so its fresh operands need not
all be live at once (the order of the fold is unchanged).  A `Wp` and a
`WpPrime` of the same argument share one evaluation of the pair: the
first of the two writes both slots and the second only marks where its
value is ready.

Operands are numbered in one index space: index k < len(Tape.consts)
is the immediate `Tape.consts[k]`, and index len(consts) + s is slot s.

Each root gets one output row.  Instructions that can reject a point
(quotients, negative powers, wp) carry a fail index, and each root's
point mask covers exactly the fail indices below it, so output i of a
multi-root tape equals, values and mask, the tape of root i alone.  A
quotient by a constant rejects all points or none: its fail row is
fixed once per evaluation from `Tape.fixed_fails`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import expr as ex

__all__ = ["Instr", "Tape", "compile_expr"]

OP_CONST = 0
OP_VAR = 1
OP_ADD = 2
OP_MUL = 3
OP_MAP = 4  # a one-operand node's ufunc, applied elementwise; `arg` is the ufunc
OP_DIV = 5
OP_POWI = 6
OP_WP = 7  # wp_many of the argument; `arg` is the (wp slot, wp' slot) pair, -1 if unused
OP_WP_SHARED = 8  # the partner of an OP_WP: its slot is already written

_OPCODE = {
    ex.Const: OP_CONST, ex.Var: OP_VAR, ex.Add: OP_ADD, ex.Mul: OP_MUL, ex.Div: OP_DIV,
    ex.Pow: OP_POWI, ex.Wp: OP_WP, ex.WpPrime: OP_WP,
    **{cls: OP_MAP for cls in (ex.Neg, *ex.FUNCTIONS.values()) if cls.ufunc is not None},
}


class Instr(NamedTuple):
    op: int
    dst: int  # operand index written: a slot (an OP_CONST root's own immediate)
    src: tuple[int, ...]  # operand indices read: immediates, then slots (module docstring)
    #: OP_CONST: the value; OP_VAR: the 0-based variable index; OP_MAP: the
    #: ufunc; OP_POWI: the exponent; OP_ADD/OP_MUL: the ufunc folding in each
    #: operand after the first (np.subtract for a folded negation); OP_DIV: the
    #: divisor when it is a constant, else None; OP_WP: the (wp, wp') slot pair
    arg: object
    fail: int  # fail index of an instruction that can reject points, else -1
    outs: tuple[int, ...]  # output rows that take this slot's value
    #: early fold steps of sums and products, run after this instruction:
    #: (ufunc, accumulator, left operand, right operand)
    steps: tuple[tuple[object, int, int, int], ...]


@dataclass(frozen=True, eq=False)
class Tape:
    ops: tuple[Instr, ...]
    n_slots: int
    #: immediate operands, numbered before the slots
    consts: tuple[np.complex128, ...]
    n_fail: int
    #: (fail index, divisor) of each quotient by a constant
    fixed_fails: tuple[tuple[int, complex], ...]
    #: per output row, the fail indices whose rejections mask that row
    root_fails: tuple[tuple[int, ...], ...]
    n_min: int  # largest variable index used
    has_wp: bool
    #: compiled from a single expression: evaluation returns 1-D rows
    single: bool


def _postfix(roots: Sequence[ex.Expr]) -> tuple[list[ex.Expr], list[int]]:
    """Distinct nodes below the roots, children before parents, first visit first.

    Also returns, per node, the position of the first node emitted while
    visiting it: the nodes a visit emits are contiguous and end with it.
    """
    order: list[ex.Expr] = []
    start: list[int] = []
    seen: set[ex.Expr] = set()
    for root in roots:
        stack = [(root, -1)]
        while stack:
            node, first = stack.pop()
            if node in seen:
                continue
            if first >= 0:
                seen.add(node)
                order.append(node)
                start.append(first)
                continue
            stack.append((node, len(order)))
            for child in reversed(node._kids):
                if child not in seen:
                    stack.append((child, -1))
    return order, start


def compile_expr(e: ex.Expr | Sequence[ex.Expr]) -> Tape:
    """Compile one expression, or a list of roots, to a slot tape."""
    single = isinstance(e, ex.Expr)
    roots = [e] if single else list(e)
    order, start = _postfix(roots)
    pos = {node: i for i, node in enumerate(order)}
    code = [_OPCODE.get(type(node), -1) for node in order]
    if -1 in code:
        raise TypeError(f"unknown node {order[code.index(-1)]!r}")
    kids = [[pos[c] for c in node._kids] for node in order]
    is_neg = [type(node) is ex.Neg for node in order]
    is_root = [False] * len(order)
    for root in roots:
        is_root[pos[root]] = True

    # ref[x] is the operand index of node x.  Constants, the empty sum and
    # the empty product included, are numbered first, as immediates;
    # alloc numbers slots after them.  A constant is emitted only as a
    # root.  reads[i] lists the nodes node i's instruction reads and
    # folds[i], for sums and products, the ufunc folding in each of them
    # after the first.  A negation summand past the first is read through
    # its argument and subtracted; the negation is emitted only if it is a
    # root or something else reads it (its readers come after it).
    consts = []
    ref = [-1] * len(order)
    emit = [True] * len(order)
    reads = list(kids)
    folds: dict[int, list] = {}
    for i, node in enumerate(order):
        c = code[i]
        ks = kids[i]
        if c == OP_CONST or (not ks and c in (OP_ADD, OP_MUL)):
            code[i] = OP_CONST
            ref[i] = len(consts)
            consts.append(np.complex128(node.value if c == OP_CONST else (0j if c == OP_ADD else 1 + 0j)))
            emit[i] = is_root[i]
            continue
        if is_neg[i]:
            emit[i] = is_root[i]
        elif c == OP_ADD:
            fs = folds[i] = [np.add] * len(ks)
            for k in range(1, len(ks)):
                if is_neg[ks[k]]:
                    if reads[i] is ks:
                        reads[i] = list(ks)
                    reads[i][k] = kids[ks[k]][0]
                    fs[k] = np.subtract
            ks = ks[:1]
        elif c == OP_MUL:
            folds[i] = [np.multiply] * len(ks)
        for x in ks:
            if is_neg[x]:
                emit[x] = True
    base = len(consts)

    # the wp partner of each Wp/WpPrime node that has one in this DAG
    wp_nodes = {(type(node), node.arg): i for i, node in enumerate(order) if code[i] == OP_WP}
    partner = {}
    for (kind, arg), i in wp_nodes.items():
        other = wp_nodes.get((ex.WpPrime if kind is ex.Wp else ex.Wp, arg))
        if other is not None:
            partner[i] = other

    # Schedule. A sum or product of K >= 3 operands folds its operands
    # left to right into its own slot as soon as both sides are ready, but
    # not before its visit starts (operands computed earlier are old and
    # live anyway).  Steps that fall before the node's own instruction are
    # attached to the first instruction after both sides are ready; the
    # node's own instruction folds the rest.  A wide sum of fresh terms
    # then holds one term at a time instead of all of them.  Immediates
    # are ready from the start.
    early: dict[int, list[tuple[int, int]]] = {}  # position -> (node, k)
    own = list(reads)  # operands the node's own instruction reads
    for i, j in partner.items():
        if j < i:  # the second of a wp pair reads nothing
            own[i] = []
    for i in folds:
        ks = reads[i]
        if len(ks) < 3:
            continue
        t = max(start[i], -1 if code[ks[0]] == OP_CONST else ks[0])
        done = 0
        for k in range(1, len(ks) - 1):
            if code[ks[k]] != OP_CONST:
                t = max(t, ks[k])
            while not emit[t]:
                t += 1
            if t >= i:
                break
            early.setdefault(t, []).append((i, k))
            done = k
        if done:
            own[i] = [i] + ks[done + 1:]

    # position of the last read of each emitted node.  Reads of a
    # constant are immediates and do not count.
    last = list(range(len(order)))
    for i, ks in enumerate(own):
        if emit[i]:
            for k in ks:
                last[k] = i
    for t, steps in early.items():
        for a, k in steps:
            for x in (reads[a][0], reads[a][k]) if k == 1 else (reads[a][k],):
                last[x] = max(last[x], t)
    dies_at: dict[int, list[int]] = {}
    for x, t in enumerate(last):
        if emit[x] and code[x] != OP_CONST:
            dies_at.setdefault(t, []).append(x)
    outs: dict[int, list[int]] = {}
    for r, root in enumerate(roots):
        outs.setdefault(pos[root], []).append(r)

    free: list[int] = []
    n_slots = 0

    def alloc(x: int) -> int:
        nonlocal n_slots
        if ref[x] < 0:
            if free:
                ref[x] = free.pop()
            else:
                ref[x] = base + n_slots
                n_slots += 1
        return ref[x]

    ops: list[Instr] = []
    fails = [0] * len(order)  # bitset of fail indices below each node
    fixed_fails = []
    n_fail = 0
    n_min = 0
    for i, node in enumerate(order):
        below = 0
        for k in kids[i]:
            below |= fails[k]
        if not emit[i]:
            fails[i] = below
            continue
        dst = alloc(i)
        src = tuple([ref[k] for k in own[i]])
        op, arg, fail = code[i], None, -1
        if partner.get(i, i) < i:  # written by its partner
            op = OP_WP_SHARED
            below = fails[partner[i]]
        elif op == OP_CONST:  # a root: its immediate fills the output row
            arg = consts[dst]
        elif op == OP_VAR:
            arg = node.index - 1
            n_min = max(n_min, node.index)
        elif op == OP_MAP:
            arg = node.ufunc
        elif op == OP_ADD or op == OP_MUL:  # how each operand after the first is folded in
            arg = tuple(folds[i][len(reads[i]) - len(src) + 1:])
        elif op == OP_DIV:
            fail = n_fail
            if code[kids[i][1]] == OP_CONST:
                arg = consts[ref[kids[i][1]]]
                fixed_fails.append((fail, arg))
        elif op == OP_POWI:
            arg = node.exponent
            if arg < 0:
                fail = n_fail
        elif op == OP_WP:
            fail = n_fail
            pair = [-1, -1]
            pair[isinstance(node, ex.WpPrime)] = dst
            if i in partner:
                pair[isinstance(order[partner[i]], ex.WpPrime)] = alloc(partner[i])
            arg = tuple(pair)
        if fail >= 0:
            n_fail += 1
            below |= 1 << fail
        fails[i] = below
        steps = ()
        if i in early:
            steps = tuple(
                (folds[a][k], alloc(a), ref[reads[a][0]] if k == 1 else ref[a], ref[reads[a][k]])
                for a, k in early[i]
            )
        ops.append(Instr(op, dst, src, arg, fail, tuple(outs.get(i, ())), steps))
        for x in dies_at.get(i, ()):
            free.append(ref[x])

    root_fails = tuple(
        tuple(f for f in range(n_fail) if fails[pos[root]] >> f & 1) for root in roots
    )
    return Tape(
        ops=tuple(ops),
        n_slots=max(n_slots, 1),
        consts=tuple(consts),
        n_fail=n_fail,
        fixed_fails=tuple(fixed_fails),
        root_fails=root_fails,
        n_min=n_min,
        has_wp=bool(wp_nodes),
        single=single,
    )
