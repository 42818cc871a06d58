"""In-memory spans and counters recorded around calls into fermat_pdde layers.

Spans are recorded only here, in the benchmark's own files, around the
public calls the benchmark makes; nothing inside the package is patched.
A span is (op, id, parent, name, start, end): the spans of one op share
the op id, and `parent` is the id of the enclosing span (-1 at the top).

Work the package does inside one public call (sampling, tape compilation
and evaluation inside `check_residual`, the derivative inside `residual`,
the parser inside `load_problem`) is measured by a *replay*: after the
op's timed region ends, the benchmark repeats that work on the same
inputs through the layers' public functions, under a `replay` span whose
parent is the call it decomposes.  `verify.reduce` is derived from it:
check_residual time minus the replayed sample, compile and eval time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import fields

from fermat_pdde.expr import Expr

from procs import now


#: layer spans reported as `<name>_s` (seconds per cycle) and `<name>_calls`
LAYER_SPANS = (
    "problemfile.load",
    "parser.parse",
    "operators.problem",
    "operators.residual",
    "operators.scale_terms",
    "expr.partial",
    "tape.compile",
    "backends.eval",
    "elliptic.wp_many",
    "verify.sample",
    "verify.check",
    "verify.order",
    "construct.build",
    "periodic.generate",
)

#: spans whose time the replay subtracts from verify.check to derive verify.reduce
_CHECK_PARTS = ("verify.sample", "tape.compile", "backends.eval")

_NULL = nullcontext()


class NullTracer:
    """Untraced runs: spans cost one `with` on a shared null context."""

    enabled = False

    def begin_op(self) -> None:
        pass

    def span(self, name: str, parent: int | None = None):
        return _NULL

    def defer(self, replay) -> None:
        pass

    def run_deferred(self) -> None:
        pass


class Tracer:
    """Spans and counters of a traced run, kept in memory until the end."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.reduce_s = 0.0
        #: per-process timings of the `cli` workload's commands
        self.samples: defaultdict = defaultdict(list)
        self.op = -1
        self._stack: list[int] = []
        self._pending: list = []

    def begin_op(self) -> None:
        self.op += 1

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the block; `parent` overrides the enclosing span (for replays)."""
        sid = len(self.spans)
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = now()
        try:
            yield sid
        finally:
            end = now()
            self._stack.pop()
            self.spans[sid] = (self.op, sid, parent, name, start, end)

    def count(self, name: str, k=1) -> None:
        self.counts[name] += k

    def defer(self, replay) -> None:
        """Queue `replay(tracer)` to run after the op's timed region."""
        self._pending.append(replay)

    def run_deferred(self) -> None:
        pending, self._pending = self._pending, []
        for replay in pending:
            replay(self)

    def add_reduce(self, check_sid: int, parts_start: int) -> None:
        """Add one check's verify.reduce: its span minus the replay spans from `parts_start` on."""
        parts = sum(s[5] - s[4] for s in self.spans[parts_start:] if s[3] in _CHECK_PARTS)
        check = self.spans[check_sid]
        self.reduce_s += check[5] - check[4] - parts

    def layer_totals(self) -> tuple[dict, Counter]:
        """Total seconds and call counts per layer span name."""
        secs: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for s in self.spans:
            secs[s[3]] += s[5] - s[4]
            calls[s[3]] += 1
        return secs, calls


class TracedContext:
    """Elliptic context whose `wp_many` records a span and the points it saw.

    `eval_batch` takes the context as an argument, so passing this proxy in
    a replay times the public `EllipticContext.wp_many` without touching
    the package.
    """

    def __init__(self, ctx, tracer: Tracer):
        self._ctx = ctx
        self._tracer = tracer

    def wp_many(self, z):
        with self._tracer.span("elliptic.wp_many"):
            out = self._ctx.wp_many(z)
        self._tracer.count("elliptic.wp_points", int(getattr(z, "size", 1)))
        return out

    def __getattr__(self, name):
        return getattr(self._ctx, name)


def tree_counts(roots) -> tuple[int, int]:
    """(tree nodes, distinct nodes) over a list of expressions.

    Tree nodes count every node of every root as a tree, so a shared
    subtree counts once per occurrence; distinct nodes count structurally
    equal subtrees once across all roots, which is the size a hash-consed
    DAG with one tape for all roots would have.
    """
    table: dict = {}
    size_memo: dict[int, tuple[int, int]] = {}

    def visit(node) -> tuple[int, int]:
        hit = size_memo.get(id(node))
        if hit is not None:
            return hit
        key = [type(node).__name__]
        size = 1
        for f in fields(node):
            v = getattr(node, f.name)
            if isinstance(v, Expr):
                k, s = visit(v)
                key.append(("e", k))
                size += s
            elif isinstance(v, tuple) and v and isinstance(v[0], Expr):
                ks = []
                for child in v:
                    k, s = visit(child)
                    ks.append(k)
                    size += s
                key.append(tuple(ks))
            else:
                key.append(v)
        canon = table.setdefault(tuple(key), len(table))
        size_memo[id(node)] = (canon, size)
        return canon, size

    total = sum(visit(r)[1] for r in roots)
    return total, len(table)
