"""Multi-output slot tapes: the package's one way to evaluate expressions.

`compile_expr` takes one expression or a list of them and emits one
instruction per distinct node of the DAG their interned nodes form, in
the post-order of `expr._postorder`, which printing and pickling read
too.  Every instruction computes a value into a slot.  A negation, exp,
sin or cos is one `OP_MAP` instruction that applies the node class's
ufunc (`expr.FUNCTIONS`).  Three kinds of node get no instruction of
their own:

- a constant is an immediate operand, a scalar the reading instruction
  broadcasts (expressions are folded as they are built, so no sum or
  product is empty);
- a negation read as a summand other than the first is folded into that
  sum as a subtraction, a - b for a + (-b) (it gets an `OP_MAP`
  instruction only when it is a root or something else reads it);
- a `Wp` and a `WpPrime` of the same argument share one evaluation of
  the pair: the `OP_WP` instruction of the first of the two writes both
  slots.

Sums and products are one n-ary instruction each and are folded left to
right, in the order of their operands, so every value matches the one a
node-by-node postfix evaluation of the same tree gives, bit for bit.  The
operands of a sum or product are all live when its instruction runs, so a
sum of K freshly computed terms holds K slots at once.

Operands are numbered in one index space: index k < len(Tape.consts)
is the immediate `Tape.consts[k]`, and index len(consts) + s is slot s.
A slot is reused once the last instruction reading it has run, except a
root's: after the run, root r's value sits in operand `Tape.roots[r]`,
an immediate for a constant root and a slot otherwise.

Quotients, negative powers and wp can reject a point; the evaluator
rejects such a point for every root at once (`backends.eval_blocks`), so
the tape records neither which instructions can reject a point nor which
roots read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import expr as ex

__all__ = ["Instr", "Tape", "compile_expr"]

OP_VAR = 1
OP_ADD = 2
OP_MUL = 3
OP_MAP = 4  # a one-operand node's ufunc, applied elementwise; `arg` is the ufunc
OP_DIV = 5
OP_POWI = 6
OP_WP = 7  # wp_many of the argument; `arg` is the (wp slot, wp' slot) pair, -1 if unused

_new = tuple.__new__  # builds an Instr without the Python-level Instr.__new__

_OPCODE = {
    ex.Var: OP_VAR, ex.Add: OP_ADD, ex.Mul: OP_MUL, ex.Div: OP_DIV,
    ex.Pow: OP_POWI, ex.Wp: OP_WP, ex.WpPrime: OP_WP,
    **{cls: OP_MAP for cls in (ex.Neg, *ex.FUNCTIONS.values()) if cls.ufunc is not None},
}


class Instr(NamedTuple):
    op: int
    dst: int  # the slot written (an OP_WP writes the slots in `arg`, this one among them)
    src: tuple[int, ...]  # operand indices read: immediates, then slots (module docstring)
    #: OP_VAR: the 0-based variable index; OP_MAP: the ufunc; OP_POWI: the
    #: exponent; OP_ADD/OP_MUL: the ufunc folding in each operand after the
    #: first (np.subtract for a folded negation); OP_DIV: the divisor when it
    #: is a constant, else None; OP_WP: the (wp, wp') slot pair
    arg: object


@dataclass(frozen=True, eq=False)
class Tape:
    ops: tuple[Instr, ...]
    n_slots: int
    #: immediate operands, numbered before the slots
    consts: tuple[np.complex128, ...]
    #: per root, the operand index holding its value after the last instruction
    roots: tuple[int, ...]
    n_min: int  # largest variable index used
    has_wp: bool
    #: compiled from a single expression: evaluation returns 1-D rows
    single: bool


def compile_expr(e: ex.Expr | Sequence[ex.Expr]) -> Tape:
    """Compile one expression, or a list of roots, to a slot tape.

    One loop over the nodes in `expr._postorder` settles everything a
    node decides on its own: its opcode, immediate and instruction
    argument, the operand positions its instruction reads (a negation
    summand past the first is read through its argument and subtracted)
    and the last position that reads each operand.  A negation is emitted
    when it is a root or when something reads it other than as a folded
    summand; its readers come after it, so that is known once the loop
    ends.  Then one loop over the emitted positions writes the
    instructions: it takes a slot for the node an instruction writes (and
    for its wp partner) and, after it, frees the slots of the operands it
    is the last to read.  A root's slot is never freed.
    """
    single = isinstance(e, ex.Expr)
    roots = [e] if single else list(e)
    is_root = set(roots)

    # Per postfix position: (opcode, instruction arg, operand positions
    # read), None for a node with no instruction, and the last position
    # that reads it (its own if none does).  The arg of a sum or product
    # is the ufunc folding in each operand after the first, that of the
    # first of a wp pair whether it is wp'.
    pos = ex._postorder(roots)
    n = len(pos)
    info: list = []
    last = list(range(n))
    consts: list = []
    ref = [-1] * n  # operand index: an immediate's from the start, a slot once written
    const_at: list[int] = []  # position of each immediate
    folded_negs = set()  # negations no reader has emitted so far
    wp_first = {}  # (class, argument position) -> position of a wp node with no partner yet
    partner = {}  # position of the first node of a wp pair -> that of the second
    n_min = 0

    for node, i in pos.items():
        cls = type(node)
        if cls is ex.Const:
            ref[i] = len(consts)
            const_at.append(i)
            consts.append(np.complex128(node.value))
            info.append(None)
            continue
        try:
            op = _OPCODE[cls]
        except KeyError:
            raise TypeError(f"unknown node {node!r}") from None
        kids = node._kids
        rd = [pos[c] for c in kids]  # the operand positions
        marks = rd  # operands that are emitted if they are negations
        if op == OP_VAR:
            arg = node.index - 1
            n_min = max(n_min, node.index)
        elif op == OP_MUL:
            arg = (np.multiply,) * (len(rd) - 1)
        elif op == OP_ADD:
            marks = rd[:1]
            folds = [np.add] * (len(rd) - 1)
            for k in range(1, len(rd)):
                if type(kids[k]) is ex.Neg:
                    rd[k] = info[rd[k]][2][0]
                    folds[k - 1] = np.subtract
            arg = tuple(folds)
        elif op == OP_MAP:
            arg = node.ufunc
            if cls is ex.Neg and node not in is_root:
                folded_negs.add(i)
        elif op == OP_POWI:
            arg = node.exponent
        elif op == OP_DIV:  # the divisor when it is a constant
            arg = consts[ref[rd[1]]] if type(kids[1]) is ex.Const else None
        else:  # OP_WP
            other = wp_first.pop((ex.WpPrime if cls is ex.Wp else ex.Wp, rd[0]), None)
            if other is not None:  # written by its partner, which reads the argument
                partner[other] = i
                info.append(None)
                continue
            wp_first[cls, rd[0]] = i
            arg = cls is ex.WpPrime
        if folded_negs and not folded_negs.isdisjoint(marks):
            for x in marks:
                if x in folded_negs:  # a negation read as itself
                    folded_negs.discard(x)
                    a = info[x][2][0]
                    if last[a] < x:
                        last[a] = x
        if i not in folded_negs:  # a folded negation's reads happen at its readers
            for x in rd:
                last[x] = i
        info.append((op, arg, rd))

    for x in folded_negs:
        info[x] = None
    for x in (*const_at, *(pos[r] for r in roots)):
        last[x] = n  # an immediate or a root is never freed

    # Emit.  An instruction takes its slot from the free list (last freed
    # first) or a new one before it runs; after it, the slots of the
    # operands it reads last go back on the list.
    base = len(consts)
    free: list[int] = []
    n_slots = 0

    def take() -> int:
        nonlocal n_slots
        if free:
            return free.pop()
        n_slots += 1
        return base + n_slots - 1

    ops: list[Instr] = []
    for i, ins in enumerate(info):
        if ins is None:
            continue
        op, arg, rd = ins
        dst = ref[i] = take()
        src = []
        for x in rd:
            src.append(ref[x])
        if op == OP_WP:  # the (wp slot, wp' slot) pair; the partner's slot is taken now
            pair = [-1, -1]
            pair[arg] = dst
            j = partner.get(i)
            if j is not None:
                pair[not arg] = ref[j] = take()
            arg = tuple(pair)
        ops.append(_new(Instr, (op, dst, tuple(src), arg)))
        for x in rd:
            if last[x] == i:
                last[x] = n  # an operand read twice is freed once
                free.append(ref[x])

    return Tape(
        ops=tuple(ops),
        n_slots=max(n_slots, 1),
        consts=tuple(consts),
        roots=tuple(ref[pos[r]] for r in roots),
        n_min=n_min,
        has_wp=bool(wp_first or partner),
        single=single,
    )
