"""Tape execution: a vectorized numpy interpreter over fixed-size point blocks.

The interpreter runs a slot tape (see `tape`) over the points in blocks of
`BLOCK` rows, so the working set is the tape's slot count times `BLOCK`
values, whatever the number of points.  Every operation is elementwise,
so a point's value does not depend on the block it falls in.
"""

from __future__ import annotations

import numpy as np

from . import tape as tp
from .elliptic import EllipticContext
from .errors import MissingEllipticContextError, PDDEError
from .expr import DEFAULT_POLE_EPS, Expr

__all__ = [
    "BLOCK",
    "default_backend",
    "eval_batch",
]

#: points per block: a slot row is BLOCK complex values (64 KiB)
BLOCK = 4096


def default_backend() -> str:
    """Name of the evaluation backend: numpy is the only one."""
    return "numpy"


def _ipow_array(base: np.ndarray, k: int, pole_eps: float, ok: np.ndarray) -> np.ndarray:
    if k < 0:
        v = _ipow_array(base, -k, pole_eps, ok)
        bad = np.abs(v) < pole_eps
        ok &= ~bad
        return 1.0 / np.where(bad, 1.0, v)
    out = np.ones_like(base)
    b = base.copy()
    while k:
        if k & 1:
            out = out * b
        k >>= 1
        if k:
            b = b * b
    return out


_UFUNC = {tp.OP_ADD: np.add, tp.OP_MUL: np.multiply}


def _run_block(tape: tp.Tape, cols: np.ndarray, slots: np.ndarray, bad: np.ndarray,
               out: np.ndarray, pole_eps: float, ell: EllipticContext | None) -> None:
    """Run the tape on one block: `cols` holds one contiguous row per variable."""
    for op, dst, src, arg, fail, outs, steps in tape.ops:
        d = slots[dst]
        if op == tp.OP_ADD or op == tp.OP_MUL:
            ufunc = _UFUNC[op]
            if len(src) == 1:
                d[...] = slots[src[0]]
            else:
                ufunc(slots[src[0]], slots[src[1]], out=d)
                for s in src[2:]:
                    ufunc(d, slots[s], out=d)
        elif op == tp.OP_CONST:
            d.fill(arg)
        elif op == tp.OP_VAR:
            d[...] = cols[arg]
        elif op == tp.OP_NEG:
            np.negative(slots[src[0]], out=d)
        elif op == tp.OP_EXP:
            np.exp(slots[src[0]], out=d)
        elif op == tp.OP_SIN:
            np.sin(slots[src[0]], out=d)
        elif op == tp.OP_COS:
            np.cos(slots[src[0]], out=d)
        elif op == tp.OP_DIV:
            den = slots[src[1]]
            np.less(np.abs(den), pole_eps, out=bad[fail])
            np.divide(slots[src[0]], np.where(bad[fail], 1.0, den), out=d)
        elif op == tp.OP_POWI:
            if fail < 0:
                d[...] = _ipow_array(slots[src[0]], arg, pole_eps, None)
            else:
                ok = np.ones(d.shape, dtype=bool)
                d[...] = _ipow_array(slots[src[0]], arg, pole_eps, ok)
                np.logical_not(ok, out=bad[fail])
        elif op == tp.OP_WP:
            x, y, wok = ell.wp_many(slots[src[0]])
            np.logical_not(wok, out=bad[fail])
            for s, val in zip(arg, (x, y)):
                if s >= 0:
                    slots[s] = np.where(wok, val, 0.0)
        elif op != tp.OP_WP_SHARED:  # pragma: no cover
            raise PDDEError(f"bad opcode {op}")
        for r in outs:
            out[r] = d
        for step_op, acc, left, right in steps:
            _UFUNC[step_op](slots[left], slots[right], out=slots[acc])


def eval_batch(
    e: Expr | tp.Tape,
    points,
    *,
    ell: EllipticContext | None = None,
    pole_eps: float = DEFAULT_POLE_EPS,
):
    """Evaluate an expression (or precompiled tape) at many points.

    `points` is an array of shape (P, n) of complex coordinates.  Returns
    (values, ok): lanes with ok=False hit a pole (near-zero denominator,
    negative power of a near-zero base, or a wp lattice neighborhood) and
    carry NaN values.  A tape compiled from a list of roots gives arrays of
    shape (roots, P), one row per root; otherwise both are of shape (P,).
    """
    tape = e if isinstance(e, tp.Tape) else tp.compile_expr(e)
    points = np.asarray(points, dtype=np.complex128)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    if points.shape[1] < tape.n_min:
        raise PDDEError(
            f"points have {points.shape[1]} coordinates but the expression uses z{tape.n_min}"
        )
    if tape.has_wp and ell is None:
        raise MissingEllipticContextError("expression contains wp/wpd: pass an elliptic context")

    P = points.shape[0]
    R = len(tape.root_fails)
    values = np.empty((R, P), dtype=np.complex128)
    bad_all = np.zeros((R, P), dtype=bool)
    width = min(P, BLOCK)
    slots = np.empty((tape.n_slots, width), dtype=np.complex128)
    bad = np.zeros((tape.n_fail, width), dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, P, BLOCK):
            hi = min(lo + BLOCK, P)
            m = hi - lo
            cols = np.ascontiguousarray(points[lo:hi, : tape.n_min].T)
            _run_block(tape, cols, slots[:, :m], bad[:, :m], values[:, lo:hi], pole_eps, ell)
            for r, fails in enumerate(tape.root_fails):
                if fails:
                    np.any(bad[list(fails), :m], axis=0, out=bad_all[r, lo:hi])
    values[bad_all] = np.nan
    ok = ~bad_all
    if tape.single:
        return values[0], ok[0]
    return values, ok
