"""Two iterative post-order walks behind the symbolic layer.

`free_variables`, `uses_wp`, the derivative and the shift walk with
`expr._walk`, which memoizes on the nodes; `to_string` (and the tape
compiler and pickling) read the distinct nodes from `expr._postorder`,
which keeps no memo; the zero probe's descent keeps a stack of its own.
None of them recurses once per tree level.  They give what the recursive
versions in `oracle` give, `_postorder` lists the nodes in the order of
`oracle.postorder`, and a value that is its own node is memoized as a
marker, so reference counting alone frees it.
"""

import gc
import math

import pytest
from hypothesis import given, settings

import oracle
from conftest import load_script
from fermat_pdde import expr as ex
from fermat_pdde.errors import ParseError
from fermat_pdde.expr import (
    directional_derivative,
    free_variables,
    max_var_index,
    partial,
    shift,
    to_string,
    uses_wp,
)
from fermat_pdde.operators import PDDEProblem, residual
from fermat_pdde.parser import parse
from fermat_pdde.verify import _zero_candidates, is_identically_zero
from test_dag import dags
from test_expr import exprs
from test_parser import constructor_texts, fixture_texts

#: deeper than the interpreter's default recursion limit of 1000 frames
DEEP = 10_000


def quotient_chain(depth: int, head: str = "z1", den: str = "z2+2") -> str:
    """`head` divided `depth` times by `den`: it parses into a left-deep tree of `depth` quotients."""
    return head + f"/({den})" * depth


def power_chain(depth: int, base=ex.Var(1)):
    """((base^2)^2)...^2 with `depth` powers, as no text within the parser's nesting limit spells it."""
    for _ in range(depth):
        base = ex.Pow(base, 2)
    return base


class TestDeepTrees:
    def test_quotient_chain(self):
        e = parse(quotient_chain(DEEP), 2)
        assert free_variables(e) == {1, 2} and max_var_index(e) == 2
        assert uses_wp(e) is False
        assert to_string(e) == "z1" + "/(2 + z2)" * DEEP
        assert parse(to_string(e), 2) is e
        # d/dz1 leaves no z1; each quotient rule keeps its denominator
        assert free_variables(partial(e, (1, 0))) == {2}
        assert free_variables(directional_derivative(e, (0, 1))) == {1, 2}
        assert shift(e, (0, 0)) is e
        assert shift(e, (0, 1)) is parse(quotient_chain(DEEP, den="z2+3"), 2)
        assert to_string(shift(e, (1, 0))) == "(1 + z1)" + "/(2 + z2)" * DEEP

    def test_power_chain(self):
        depth = 1500
        e = power_chain(depth)
        assert free_variables(e) == {1}
        assert uses_wp(e) is False
        text = "(" * (depth - 1) + "z1^2" + ")^2" * (depth - 1)
        assert to_string(e) == text
        with pytest.raises(ParseError, match="nesting deeper than 200"):
            parse(text, 1)
        # the text nests deeper than the parser reads; its inner 150 levels read back
        inner = e
        for _ in range(depth - 150):
            inner = inner.base
        assert parse(to_string(inner), 1) is inner
        assert free_variables(partial(e, (1,))) == {1}
        assert shift(e, (0,)) is e
        assert to_string(shift(e, (2,))) == text.replace("z1", "(2 + z1)")

    def test_wp_below_a_deep_chain(self):
        e = parse(quotient_chain(DEEP, head="wp(z1)"), 2)
        assert uses_wp(e) is True
        assert uses_wp(partial(e, (0, 1))) is True

    def test_repr_of_a_deep_chain(self):
        e = parse(quotient_chain(DEEP), 2)
        den = "Add(terms=(Const(value=(2+0j)), Var(index=2)))"
        assert repr(e) == "Div(num=" * DEEP + "Var(index=1)" + f", den={den})" * DEEP

    def test_zero_probe_of_a_deep_phi(self):
        # the probe descends through 1500 numerators to the sum or leaf below them
        phi = parse(quotient_chain(1500, head="z2", den="z2+2"), 2)
        assert _zero_candidates(phi) == [ex.Var(2)]
        assert not is_identically_zero(phi, 2)
        problem = PDDEProblem(kind="fte", n=2, m1=2, c=(0.5, 0.25j), phi=phi)
        assert problem.phi is phi
        assert is_identically_zero(parse(quotient_chain(1500, head="(z2-z2)"), 2), 2)


class TestRetention:
    def test_self_derivative_is_freed_by_reference_counting(self):
        # d/dz7 exp(z7 + 2.5*z8) is the node itself: its memo entry is the
        # marker, so the node holds no reference to itself
        gc.collect()
        gc.disable()
        try:
            baseline = len(ex._TABLE)
            f = parse("exp(z7 + 2.5*z8)", 8)
            assert partial(f, (0,) * 6 + (1, 0)) is f
            assert ex.directional_derivative(f, (0,) * 6 + (1, 0)) is f
            del f
            assert len(ex._TABLE) == baseline
        finally:
            gc.enable()

    def test_one_memo_per_node(self):
        f = parse("exp(z1+z2)*(z1+1.375) + sin(z1*z2)/(z2-3.625) + wp(z1)", 2)
        d = partial(f, (1, 1))
        shift(f, (0.5j, 1))
        uses_wp(f)
        assert set(f.__dict__) == {*f.__dataclass_fields__, "_kids", "_memo"}
        d1 = ("d", (ex.ONE, ex.ZERO))
        assert set(f._memo) == {"free", "wp", d1, ("s", (ex.Const(0.5j), ex.ONE))}
        assert partial(f._memo[d1], (0, 1)) is d
        assert ("d", (ex.ZERO, ex.ONE)) in f._memo[d1]._memo


def agrees_with_the_reference(e, n):
    """Every walk of `e` gives the node, value or bytes the recursive version gives."""
    assert free_variables(e) == oracle.free_variables(e)
    assert max_var_index(e) == oracle.max_var_index(e)
    assert uses_wp(e) is oracle.uses_wp(e)
    assert to_string(e) == oracle.to_string(e)
    assert list(ex._postorder([e])) == oracle.postorder([e])
    assert _zero_candidates(e) == oracle._zero_candidates(e)
    indices = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    indices += [(2,) + (0,) * (n - 1), (1,) * n]
    if n > 1:
        indices.append((1, 1) + (0,) * (n - 2))
    for idx in indices:
        assert partial(e, idx) is oracle.partial(e, idx), idx
    for w in [(1, 1) + (0,) * (n - 2), tuple(complex(0.5, j) for j in range(n))]:
        w = w[:n]
        assert directional_derivative(e, w) is oracle.directional_derivative(e, w), w
    for c in [(0,) * n, tuple(complex(0, math.pi) * (-1) ** j for j in range(n)),
              (0.5j, 0, -1.25, -0.0, 2.5, 0, 1, 1j)[:n]]:
        assert shift(e, c) is oracle.shift(e, c), c


def fg_candidates():
    fg_texts = load_script("bench_pipeline").fg_texts
    return [(parse(t, n), n) for n in range(2, 9) for t in fg_texts(n)]


def parsed(texts, n=8):
    out = []
    for text in texts:
        try:
            out.append((parse(text, n), n))
        except ParseError:  # a note of a problem file, no expression
            pass
    return out


class TestSameAsTheRecursiveReference:
    @pytest.mark.parametrize("source", ["fixtures", "fg", "constructors"])
    def test_gathered_expressions(self, source):
        cases = {"fixtures": lambda: parsed(fixture_texts()), "fg": fg_candidates,
                 "constructors": lambda: parsed(constructor_texts())}[source]()
        assert len(cases) >= 12
        for e, n in cases:
            agrees_with_the_reference(e, n)

    def test_moderately_deep_chains(self):
        for e in (parse(quotient_chain(60), 2), power_chain(12, parse("z1/(z2-1)", 2)),
                  parse(quotient_chain(40, head="wpd(z1)", den="exp(z2)+z1"), 2)):
            agrees_with_the_reference(e, 2)

    @settings(max_examples=80, deadline=None)
    @given(exprs())
    def test_random_expressions(self, e):
        agrees_with_the_reference(e, 3)

    @settings(max_examples=60, deadline=None)
    @given(dags())
    def test_random_dags(self, roots):
        for e in roots:
            agrees_with_the_reference(e, 3)
        # the order of a multi-root list is the one the tape digests pin
        order = ex._postorder(roots)
        assert list(order) == oracle.postorder(roots)
        assert list(order.values()) == list(range(len(order)))


class TestPrintingCost:
    def test_each_distinct_node_is_rendered_once(self, monkeypatch):
        fg = load_script("bench_pipeline")
        f_text, beta_text = fg.fg_texts(7)
        e = residual(fg.fg_problem(parse(beta_text, 7), 7), parse(f_text, 7))
        calls = []
        render = ex._render
        monkeypatch.setattr(ex, "_render", lambda node, ops: calls.append(node) or render(node, ops))
        text = to_string(e)
        assert len(calls) == len(ex._postorder([e]))
        assert len(set(calls)) == len(calls)
        monkeypatch.undo()
        assert text == oracle.to_string(e)
