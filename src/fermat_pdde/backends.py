"""Tape execution: a vectorized numpy interpreter over fixed-size point blocks.

The interpreter (`eval_blocks`) runs a slot tape (see `tape`) over a
stream of point blocks of at most `BLOCK` rows, so the working set is the
tape's slot count times `BLOCK` values, whatever the number of points.
`eval_batch` collects that stream for a full point array.  Every
operation is elementwise, so a point's value does not depend on the block
it falls in.
"""

from __future__ import annotations

import numpy as np

from . import tape as tp
from .errors import PDDEError
from .expr import DEFAULT_POLE_EPS, Expr

__all__ = [
    "BLOCK",
    "default_backend",
    "eval_batch",
    "eval_blocks",
]

#: points per block: a slot row is BLOCK complex values (64 KiB)
BLOCK = 4096


def default_backend() -> str:
    """Name of the evaluation backend: numpy is the only one."""
    return "numpy"


def _power_into(d: np.ndarray, base, k: int) -> None:
    """d = base**k for k >= 1 by binary powering, the lower power the left factor.

    base**2 is base*base and base**3 is base*(base*base): complex multiply
    is not commutative to the last bit where it uses FMA.
    """
    if k == 2:
        np.multiply(base, base, out=d)
    elif k == 3:
        np.multiply(base, base, out=d)
        np.multiply(base, d, out=d)
    else:
        acc = None
        while True:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if not k:
                break
            base = base * base
        d[...] = acc


def _run_block(tape: tp.Tape, pts: np.ndarray, slots: np.ndarray, bad: np.ndarray,
               out: np.ndarray, pole_eps: float, ell) -> None:
    """Run the tape on one block of points, `pts` of shape (m, n).

    Every rejection is ORed into the one row `bad`, which the caller
    clears: a non-constant divisor or the base of a negative power below
    `pole_eps`, a lane `wp_many` refuses, and every lane when a constant
    divisor is below `pole_eps`.  A divisor with no zeros (`OP_DIV_NZ`,
    `OP_POWI_NZ`) is never tested: where it is small, the quotient is
    large, and where it underflows to 0, the lane overflows (ok and not
    finite).  A divisor near zero is divided as it stands, since
    `eval_blocks` voids a rejected lane in every root.
    After the last instruction, each root's operand (`Tape.roots`) is
    copied to its row of `out`: a slot no later instruction overwrote, or
    an immediate, which fills the row.
    """
    rows = [*tape.consts, *slots]  # operand index -> immediate or slot row
    for op, dst, src, arg in tape.ops:
        d = rows[dst]
        if op == tp.OP_ADD or op == tp.OP_MUL:
            acc = rows[src[0]]  # a folded sum or product has two operands or more
            for s, fold in zip(src[1:], arg):
                fold(acc, rows[s], out=d)
                acc = d
        elif op == tp.OP_MAP:
            arg(rows[src[0]], out=d)
        elif op == tp.OP_VAR:
            d[...] = pts[:, arg]
        elif op == tp.OP_DIV:
            den = rows[src[1]]
            if arg is None:
                bad |= np.abs(den) < pole_eps
            elif np.abs(arg) < pole_eps:
                bad[...] = True
            np.divide(rows[src[0]], den, out=d)
        elif op == tp.OP_POWI:
            _power_into(d, rows[src[0]], abs(arg))
            if arg < 0:
                bad |= np.abs(d) < pole_eps
                np.divide(1.0, d, out=d)
        elif op == tp.OP_DIV_NZ:
            np.divide(rows[src[0]], rows[src[1]], out=d)
        elif op == tp.OP_POWI_NZ:
            _power_into(d, rows[src[0]], -arg)
            np.divide(1.0, d, out=d)
        elif op == tp.OP_WP:
            x, y, wok = ell.wp_many(rows[src[0]])  # NaN on the lanes it rejects
            bad |= ~wok
            for s, val in zip(arg, (x, y)):
                if s >= 0:
                    rows[s][...] = val
        else:  # pragma: no cover
            raise PDDEError(f"bad opcode {op}")
    for r, k in enumerate(tape.roots):
        out[r] = rows[k]


def eval_blocks(tape: tp.Tape, n: int, blocks, *, ell=None, pole_eps: float = DEFAULT_POLE_EPS):
    """Run a tape over a stream of point blocks, yielding (values, ok) per block.

    `blocks` yields arrays of shape (m, n), m at most `BLOCK`.  Each block
    gives values of shape (roots, m), each root's row read from its
    operand after the last instruction, and one ok row of shape (m,).  A
    lane with ok=False was rejected by some instruction of the tape (a
    near-zero denominator, a negative power of a near-zero base, or a wp
    lattice neighborhood), whichever roots read it, and carries NaN in
    every root; an overflow leaves ok=True with a non-finite value.  The
    slot, value and mask rows are allocated once per call and re-sized only
    for a block wider than every block before it, so memory does not grow
    with the number of blocks.  The yielded arrays are views of those
    rows: they stay valid until the next block is drawn, and a caller that
    keeps them longer copies them.  A tape that uses wp calls
    `ell.wp_many`, by default the `elliptic` module's, imported only then;
    a test or a profiler passes an object with its own `wp_many`.  Blocks
    are drawn one at a time: a caller that stops iterating draws no
    further block.
    """
    if n < tape.n_min:
        raise PDDEError(f"points have {n} coordinates but the expression uses z{tape.n_min}")
    if tape.has_wp and ell is None:
        from . import elliptic as ell
    width = 0
    for pts in blocks:
        m = pts.shape[0]
        if m > width:
            width = m
            slots = np.empty((tape.n_slots, width), dtype=np.complex128)
            values = np.empty((len(tape.roots), width), dtype=np.complex128)
            mask = np.empty(width, dtype=bool)
        vals, row = values[:, :m], mask[:m]
        row[...] = False
        with np.errstate(all="ignore"):
            _run_block(tape, pts, slots[:, :m], row, vals, pole_eps, ell)
        if row.any():
            vals[:, row] = np.nan
        np.logical_not(row, out=row)  # the reject row becomes the ok row
        yield vals, row


def eval_batch(
    e: Expr | tp.Tape,
    points,
    *,
    ell=None,
    pole_eps: float = DEFAULT_POLE_EPS,
):
    """Evaluate an expression (or precompiled tape) at many points.

    `points` is an array of shape (P, n) of complex coordinates, run
    through `eval_blocks` in blocks of `BLOCK` rows and collected.
    Returns (values, ok): a tape compiled from a list of roots gives
    arrays of shape (roots, P), one row per root, whose ok rows are one
    read-only row broadcast, since a lane is rejected for every root or
    for none; otherwise both are of shape (P,).
    """
    tape = e if isinstance(e, tp.Tape) else tp.compile_expr(e)
    points = np.asarray(points, dtype=np.complex128)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    P, n = points.shape
    values = np.empty((len(tape.roots), P), dtype=np.complex128)
    ok = np.empty(P, dtype=bool)
    blocks = (points[lo : lo + BLOCK] for lo in range(0, P, BLOCK))
    lo = 0
    for v, k in eval_blocks(tape, n, blocks, ell=ell, pole_eps=pole_eps):
        hi = lo + v.shape[1]
        values[:, lo:hi] = v
        ok[lo:hi] = k
        lo = hi
    if tape.single:
        return values[0], ok
    return values, np.broadcast_to(ok, values.shape)
