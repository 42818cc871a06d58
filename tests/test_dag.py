"""Hash-consed expressions and the multi-output slot tape."""

import copy
import gc
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermat_pdde import expr as ex
from fermat_pdde.backends import BLOCK, eval_batch
from fermat_pdde.elliptic import default_context
from fermat_pdde.errors import EvalError, PoleHitError
from fermat_pdde.expr import (
    Add,
    Const,
    Cos,
    Div,
    Exp,
    Mul,
    Neg,
    Pow,
    Sin,
    Var,
    Wp,
    WpPrime,
    partial,
)
from fermat_pdde.parser import parse
from fermat_pdde.tape import OP_WP, compile_expr

from conftest import disc_points
from oracle import evaluate, fd_partial

N = 3
ELL = default_context()
POLE_EPS = 1e-9


@st.composite
def dags(draw, entire=False, max_nodes=12):
    """Root lists over one pool of nodes; each new node picks earlier ones.

    Picking from the pool shares subtrees between parents and roots, and
    roots may be constants.  A difference a - b puts its negation -b in
    the pool too, so other nodes (and roots) can read it as well.  Unless
    `entire`, nodes include quotients, negative powers and wp/wpd, whose
    poles exercise the point masks, and quotients by a constant, some of
    modulus below POLE_EPS (every lane masked).  Other constants are 0 or
    have modulus >= 0.1, so no computed denominator sits near the pole
    threshold by construction.
    """
    consts = st.one_of(
        st.just(0j),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False,
                           allow_infinity=False),
    )
    divisors = st.one_of(
        consts,
        st.sampled_from([1e-12 + 0j, complex(0.0, -3e-10), 0.9 * POLE_EPS + 0j]),
    )
    pool = [Var(j) for j in range(1, N + 1)]
    pool += [Const(c) for c in draw(st.lists(consts, min_size=1, max_size=3))]
    kinds = ["add", "mul", "neg", "sub", "pow", "exp", "sin", "cos"]
    if not entire:
        kinds += ["div", "divc", "wp", "wpd"]
    for _ in range(draw(st.integers(1, max_nodes))):
        pick = st.sampled_from(pool)
        kind = draw(st.sampled_from(kinds))
        if kind in ("add", "mul"):
            operands = tuple(draw(st.lists(pick, min_size=2, max_size=4)))
            node = Add(operands) if kind == "add" else Mul(operands)
        elif kind == "sub":
            neg = Neg(draw(pick))
            pool.append(neg)
            node = Add((draw(pick), neg, *draw(st.lists(pick, max_size=2))))
        elif kind == "div":
            node = Div(draw(pick), draw(pick))
        elif kind == "divc":
            node = Div(draw(pick), Const(draw(divisors)))
        elif kind == "pow":
            node = Pow(draw(pick), draw(st.integers(0 if entire else -3, 3)))
        else:
            unary = {"neg": Neg, "exp": Exp, "sin": Sin, "cos": Cos, "wp": Wp, "wpd": WpPrime}
            node = unary[kind](draw(pick))
        pool.append(node)
    return draw(st.lists(st.sampled_from(pool[N:]), min_size=1, max_size=4))


def distinct_nodes(roots):
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(ex._children(node))
    return seen


def instruction_count(roots):
    """Distinct nodes that need an instruction of their own.

    A constant is an immediate unless it is a root; a negation is folded
    into subtraction unless it is a root or is read other than as a sum's
    operand past the first.
    """
    nodes = distinct_nodes(roots)
    needed = set(roots)
    for node in nodes:
        for k, kid in enumerate(ex._children(node)):
            if isinstance(kid, Neg) and not (isinstance(node, Add) and k > 0):
                needed.add(kid)
    return sum(1 for node in nodes if not isinstance(node, (Const, Neg)) or node in needed)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestInterning:
    def test_equal_subtrees_are_one_object(self):
        a = parse("exp(z1+z2)*(z1+1) + sin(z1*z2)", 2)
        b = parse("exp(z1+z2)*(z1+1) + sin(z1*z2)", 2)
        assert a is b
        assert Add((Var(1), Const(2.0))) is Add([Var(1), Const(2.0)])

    def test_signed_zeros_stay_distinct(self):
        assert Const(0.0) is not Const(-0.0)
        assert Const(complex(0.0, -0.0)) is not Const(0j)
        assert Const(-0.0) is Const(-0.0)

    def test_pickle_and_copy_return_the_interned_node(self):
        e = parse("exp(z1+z2)*(z1+1) + sin(z1*z2)/(z2-3) + z1^-2 + wpd(z1)", 2)
        assert pickle.loads(pickle.dumps(e)) is e
        assert copy.deepcopy(e) is e

    def test_threads_building_equal_expressions_share_nodes(self):
        texts = [f"exp({k}.125*z1+z2)*(z1+{k}.375)^2 - sin(z1*z2)/(z2+{k}.625)" for k in range(40)]
        results = [None] * 6
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def build(slot):
                results[slot] = [parse(t, 2) for t in texts]

            threads = [threading.Thread(target=build, args=(i,)) for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        for built in results[1:]:
            assert all(a is b for a, b in zip(built, results[0]))

    def test_partial_is_memoized_on_the_operand(self):
        f = parse("exp(z1+z2+z3)*(z1+1)*(z2+1)*(z3+1) + sin(z1*z2)", 3)
        assert partial(f, (1, 1, 1)) is partial(f, (1, 1, 1))

    def test_intern_table_does_not_leak(self):
        # derivatives are memoized on their operand, so the trees use
        # variables and constants no other test builds composites from:
        # a memo on a node that outlives the test would keep its entries
        gc.collect()
        baseline = len(ex._TABLE)
        for k in range(50):
            f = parse(f"exp({k}.5*z7+z8)*(z7+{k}.25)^3 + sin(z7*z8)/(z8+{k}.75)", 8)
            partial(f, (0,) * 6 + (1, 1))
            compile_expr([f, partial(f, (0,) * 7 + (1,))])
        del f
        gc.collect()
        assert len(ex._TABLE) == baseline


class TestSlotTape:
    @settings(max_examples=80, deadline=None)
    @given(dags())
    def test_one_instruction_per_distinct_node(self, roots):
        assert len(compile_expr(roots).ops) == instruction_count(roots)

    @settings(max_examples=80, deadline=None)
    @given(dags())
    def test_multi_root_rows_equal_single_root_tapes(self, roots):
        pts = disc_points(50, 40, N, radius=1.6)
        vals, ok = eval_batch(compile_expr(roots), pts, ell=ELL, pole_eps=POLE_EPS)
        assert vals.shape == ok.shape == (len(roots), len(pts))
        for i, root in enumerate(roots):
            v1, ok1 = eval_batch(compile_expr(root), pts, ell=ELL, pole_eps=POLE_EPS)
            assert np.array_equal(ok[i], ok1)
            assert np.array_equal(bits(vals[i]), bits(v1))

    @settings(max_examples=80, deadline=None)
    @given(dags())
    def test_agrees_with_scalar_evaluate(self, roots):
        pts = disc_points(51, 12, N, radius=1.6)
        vals, ok = eval_batch(compile_expr(roots), pts, ell=ELL, pole_eps=POLE_EPS)
        # forward error is judged against the largest intermediate value
        nodes = list(distinct_nodes(roots))
        inner, _ = eval_batch(compile_expr(nodes), pts, ell=ELL, pole_eps=POLE_EPS)
        with np.errstate(all="ignore"):
            scale = np.maximum(1.0, np.abs(inner).max(axis=0))
        for i, root in enumerate(roots):
            for p, pt in enumerate(pts):
                try:
                    ref = evaluate(root, pt, ell=ELL, pole_eps=POLE_EPS)
                except (PoleHitError, EvalError):
                    assert not ok[i, p]
                    continue
                assert ok[i, p]
                if np.isfinite(ref) and np.isfinite(scale[p]) and scale[p] < 1e100:
                    assert abs(vals[i, p] - ref) <= 1e-9 * scale[p]

    def test_block_boundaries_do_not_change_values(self):
        e = parse("exp(z1*z2)/(1+z1^2) + sin(z2)^3 - cos(z1)^-1 + wp(z1+z2/2)*wpd(z1+z2/2)", 2)
        pts = disc_points(52, 2 * BLOCK + 37, 2, radius=1.8)
        vals, ok = eval_batch(e, pts, ell=ELL)
        for lo, hi in ((0, 100), (BLOCK - 10, BLOCK + 10), (2 * BLOCK, 2 * BLOCK + 37)):
            part, pok = eval_batch(e, pts[lo:hi], ell=ELL)
            assert np.array_equal(pok, ok[lo:hi])
            assert np.array_equal(bits(part), bits(vals[lo:hi]))

    def test_wide_sum_holds_few_slots(self):
        f = parse("exp(z1+z2+z3+z4+z5)*(z1+1)*(z2+1)*(z3+1)*(z4+1)*(z5+1)", 5)
        d = partial(f, (1, 1, 1, 1, 1))
        assert len(d.terms) == 32
        assert compile_expr(d).n_slots < 16

    def test_small_powers_multiply_in_order(self):
        # complex multiply may use FMA, so z*(z*z) and (z*z)*z can differ in
        # the last bit; the tape keeps the lower power as the left factor
        pts = disc_points(56, 2000, 1, radius=1.7)
        z = pts[:, 0]
        z2 = z * z
        for k, expect in ((2, z2), (3, z * z2), (-2, 1.0 / z2), (-3, 1.0 / (z * z2)),
                          (5, z * (z2 * z2))):
            vals, ok = eval_batch(Pow(Var(1), k), pts, pole_eps=POLE_EPS)
            assert ok.all()
            assert np.array_equal(bits(vals), bits(expect))

    def test_empty_sum_and_product_are_constants(self):
        pts = disc_points(58, 10, 1)
        roots = [Add(()), Mul(()), Add((Var(1), Mul(()))), Const(2.5j)]
        tape = compile_expr(roots)
        assert len(tape.ops) == 5  # three constant roots, z1 and z1 + 1
        vals, ok = eval_batch(tape, pts)
        assert ok.all()
        for row, expect in zip(vals, (0j, 1 + 0j, pts[:, 0] + 1, 2.5j)):
            assert np.array_equal(bits(row), bits(np.broadcast_to(expect, row.shape)))

    def test_constant_divisor_masks_all_or_none(self):
        pts = disc_points(57, 300, 1, radius=1.5)
        for c, masked in ((0.5 * POLE_EPS, True), (0j, True), (complex(0.0, 2 * POLE_EPS), False),
                          (-3.0 + 1j, False)):
            vals, ok = eval_batch(Div(Var(1), Const(c)), pts, pole_eps=POLE_EPS)
            assert not ok.any() if masked else ok.all()
            if masked:
                assert np.isnan(vals).all()
            else:
                assert np.array_equal(bits(vals), bits(pts[:, 0] / c))

    def test_wp_pair_shares_one_call(self):
        h = parse("z1 + z2/2", 2)
        roots = [Wp(h) ** 3 + WpPrime(h), WpPrime(h) ** 2, Wp(h)]
        tape = compile_expr(roots)
        assert sum(ins.op == OP_WP for ins in tape.ops) == 1

        calls = []

        class Counting:
            def wp_many(self, z):
                calls.append(len(z))
                return ELL.wp_many(z)

        pts = disc_points(53, 300, 2, radius=1.5)
        vals, ok = eval_batch(tape, pts, ell=Counting())
        assert calls == [300]
        x, y, wok = ELL.wp_many(pts[:, 0] + pts[:, 1] / 2)
        assert np.array_equal(ok[2], wok)
        assert np.array_equal(bits(vals[2][wok]), bits(x[wok]))


class TestDerivativeOracle:
    @settings(max_examples=40, deadline=None)
    @given(dags(entire=True, max_nodes=8), st.integers(1, N))
    def test_partial_agrees_with_fd_partial(self, roots, j):
        e = roots[0]
        idx = tuple(1 if i == j else 0 for i in range(1, N + 1))
        d = partial(e, idx)
        for pt in disc_points(54, 4, N, radius=0.7):
            try:
                exact = evaluate(d, pt)
                fd = fd_partial(e, j, pt)
                size = max(1.0, abs(evaluate(e, pt)))
            except (PoleHitError, EvalError):
                continue
            if not (np.isfinite(exact) and np.isfinite(fd)) or size > 1e4 or abs(exact) > 1e4:
                continue
            assert abs(exact - fd) <= 1e-5 * max(size, abs(exact))


@pytest.mark.parametrize("text, n", [("wp(z1)^3*4 - wpd(z1)^2", 1), ("1/(z1-z2) + z2^-2", 2)])
def test_masks_match_single_expression_semantics(text, n):
    e = parse(text, n)
    pts = disc_points(55, 64, n, radius=1.5)
    pts[0] = 0.0  # a pole of every expression here
    vals, ok = eval_batch(e, pts, ell=ELL, pole_eps=POLE_EPS)
    assert not ok[0] and np.isnan(vals[0])
    assert ok[1:].all()
