"""Multi-output slot tapes for batched expression evaluation.

`compile_expr` takes one expression or a list of them and walks the DAG
their interned nodes form.  It emits one instruction per distinct node,
in postfix order, and gives each instruction a value slot; a slot is
reused once the last instruction reading it has run.  Sums and products
are one n-ary instruction each and are folded left to right, in the
order of their operands, so every value matches the one a node-by-node
postfix evaluation of the same tree gives, bit for bit.  A wide sum or
product starts its fold early, in steps attached to the instructions
that produce its operands, so its fresh operands need not all be live at
once (the order of the fold is unchanged).  A `Wp` and a
`WpPrime` of the same argument share one evaluation of the pair: the
first of the two writes both slots and the second only marks where its
value is ready.

Each root gets one output row.  Instructions that can reject a point
(quotients, negative powers, wp) carry a fail index, and each root's
point mask covers exactly the fail indices below it, so output i of a
multi-root tape equals, values and mask, the tape of root i alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import expr as ex
from .errors import DimensionError

__all__ = ["Instr", "Tape", "compile_expr"]

OP_CONST = 0
OP_VAR = 1
OP_ADD = 2
OP_MUL = 3
OP_NEG = 4
OP_DIV = 5
OP_POWI = 6
OP_EXP = 7
OP_SIN = 8
OP_COS = 9
OP_WP = 10  # wp_many of the argument; `arg` is the (wp slot, wp' slot) pair, -1 if unused
OP_WP_SHARED = 11  # the partner of an OP_WP: its slot is already written

_OPCODE = {
    ex.Const: OP_CONST, ex.Var: OP_VAR, ex.Add: OP_ADD, ex.Mul: OP_MUL, ex.Neg: OP_NEG,
    ex.Div: OP_DIV, ex.Pow: OP_POWI, ex.Exp: OP_EXP, ex.Sin: OP_SIN, ex.Cos: OP_COS,
    ex.Wp: OP_WP, ex.WpPrime: OP_WP,
}


class Instr(NamedTuple):
    op: int
    dst: int  # slot written
    src: tuple[int, ...]  # slots read
    arg: object  # constant value, 0-based variable index, exponent, or wp slot pair
    fail: int  # fail index of an instruction that can reject points, else -1
    outs: tuple[int, ...]  # output rows that take this slot's value
    #: early fold steps of sums and products, run after this instruction:
    #: (OP_ADD or OP_MUL, accumulator slot, left slot, right slot)
    steps: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True, eq=False)
class Tape:
    ops: tuple[Instr, ...]
    n_slots: int
    n_fail: int
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


def compile_expr(e: ex.Expr | Sequence[ex.Expr], n: int | None = None) -> Tape:
    """Compile one expression, or a list of roots, to a slot tape.

    `n`, when given, validates variable indices.
    """
    single = isinstance(e, ex.Expr)
    roots = [e] if single else list(e)
    order, start = _postfix(roots)
    pos = {node: i for i, node in enumerate(order)}
    kids = [[pos[c] for c in node._kids] for node in order]
    code = []
    for node in order:
        if type(node) not in _OPCODE:
            raise TypeError(f"unknown node {node!r}")
        code.append(_OPCODE[type(node)])

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
    # attached to the instruction they follow; the node's own instruction
    # folds the rest.  A wide sum of fresh terms then holds one term at a
    # time instead of all of them.
    early: list[list[tuple[int, int]]] = [[] for _ in order]  # position -> (node, k)
    own = [list(k) for k in kids]  # operands the node's own instruction reads
    for i in range(len(order)):
        if partner.get(i, i) < i:  # the second of a wp pair reads nothing
            own[i] = []
            continue
        ks = kids[i]
        if code[i] not in (OP_ADD, OP_MUL) or len(ks) < 3:
            continue
        t = max(start[i], ks[0])
        done = 0
        for k in range(1, len(ks) - 1):
            t = max(t, ks[k])
            if t >= i:
                break
            early[t].append((i, k))
            done = k
        if done:
            own[i] = [i] + ks[done + 1:]

    # position of the last read of each node; positions are visited in
    # order, so the latest assignment wins
    last = list(range(len(order)))
    for i in range(len(order)):
        for k in own[i]:
            last[k] = i
        for a, k in early[i]:
            if k == 1:
                last[kids[a][0]] = i
            last[kids[a][k]] = i
    dies_at: list[list[int]] = [[] for _ in order]
    for x, t in enumerate(last):
        dies_at[t].append(x)
    outs: dict[int, list[int]] = {}
    for r, root in enumerate(roots):
        outs.setdefault(pos[root], []).append(r)

    free: list[int] = []
    n_slots = 0
    slot = [-1] * len(order)

    def alloc(x: int) -> int:
        nonlocal n_slots
        if slot[x] < 0:
            if free:
                slot[x] = free.pop()
            else:
                slot[x] = n_slots
                n_slots += 1
        return slot[x]

    ops: list[Instr] = []
    fails = [0] * len(order)  # bitset of fail indices below each node
    n_fail = 0
    n_min = 0
    for i, node in enumerate(order):
        dst = alloc(i)
        src = tuple([slot[k] for k in own[i]])
        below = 0
        for k in kids[i]:
            below |= fails[k]
        op, arg, fail = code[i], None, -1
        if partner.get(i, i) < i:  # written by its partner
            op = OP_WP_SHARED
            below = fails[partner[i]]
        elif op == OP_CONST:
            arg = node.value
        elif op == OP_VAR:
            arg = node.index - 1
            n_min = max(n_min, node.index)
        elif op == OP_ADD or op == OP_MUL:
            if not src:  # the empty sum or product
                op, arg = OP_CONST, (0j if op == OP_ADD else 1 + 0j)
        elif op == OP_DIV:
            fail = n_fail
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
        steps = []
        for a, k in early[i]:
            left = slot[kids[a][0]] if k == 1 else slot[a]
            steps.append((code[a], alloc(a), left, slot[kids[a][k]]))
        ops.append(Instr(op, dst, src, arg, fail, tuple(outs.get(i, ())), tuple(steps)))
        for x in dies_at[i]:
            free.append(slot[x])

    if n is not None and n_min > n:
        raise DimensionError(f"expression uses z{n_min} but dimension is {n}")
    root_fails = tuple(
        tuple(f for f in range(n_fail) if fails[pos[root]] >> f & 1) for root in roots
    )
    return Tape(
        ops=tuple(ops),
        n_slots=max(n_slots, 1),
        n_fail=n_fail,
        root_fails=root_fails,
        n_min=n_min,
        has_wp=bool(wp_nodes),
        single=single,
    )
