"""Hash-consed expressions and the multi-output slot tape."""

import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import pickle
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fermat_pdde import expr as ex
from fermat_pdde import operators, verify
from fermat_pdde.backends import BLOCK, eval_batch
from fermat_pdde.cli import main as cli_main
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
from fermat_pdde import tape as tp
from fermat_pdde.tape import OP_WP, Tape, compile_expr

from conftest import FIXTURES, disc_points, load_script
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
            stack.extend(node._kids)
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
        for k, kid in enumerate(node._kids):
            if isinstance(kid, Neg) and not (isinstance(node, Add) and k > 0):
                needed.add(kid)
    return sum(1 for node in nodes if not isinstance(node, (Const, Neg)) or node in needed)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class _Partial(tuple):
    """A sum or product part-way through its fold: (class, operands so far)."""


_MAPPED = {cls.ufunc: cls for cls in (Neg, Exp, Sin, Cos)}
_FOLDED = {np.add: Add, np.subtract: Add, np.multiply: Mul}


def run_symbolic(tape: Tape, n_roots: int):
    """Run the tape on expressions instead of values.

    Each slot holds the node whose value it holds (a folded negation
    summand comes back as its Neg), so reading a slot that holds another
    node's value, or one never written, shows in the rows.  Returns the
    node written to each output row and, per fail index, the node of the
    instruction that carries it.
    """
    base = len(tape.consts)
    rows = {k: Const(c) for k, c in enumerate(tape.consts)}
    out = [None] * n_roots
    fail_node = {}

    def operand(fold, node):
        return Neg(node) if fold is np.subtract else node

    for op, dst, src, arg, fail, outs, steps in tape.ops:
        assert dst < base + tape.n_slots
        vals = [rows[s] for s in src]
        if op == tp.OP_CONST:
            assert dst < base and src == ()
            value = rows[dst]
        elif op == tp.OP_VAR:
            value = Var(arg + 1)
        elif op in (tp.OP_ADD, tp.OP_MUL):
            cls = Add if op == tp.OP_ADD else Mul
            assert len(arg) == len(vals) - 1
            head = vals[0]
            terms = list(head[1]) if isinstance(head, _Partial) else [head]
            assert not isinstance(head, _Partial) or (src[0] == dst and head[0] is cls)
            terms += [operand(f, v) for f, v in zip(arg, vals[1:])]
            value = cls(tuple(terms))
        elif op == tp.OP_MAP:
            value = _MAPPED[arg](vals[0])
        elif op == tp.OP_DIV:
            value = Div(vals[0], vals[1])
            if arg is not None:
                assert src[1] < base and arg == tape.consts[src[1]]
                assert (fail, arg) in tape.fixed_fails
        elif op == tp.OP_POWI:
            value = Pow(vals[0], arg)
        elif op == tp.OP_WP:
            assert dst in arg
            for slot, cls in zip(arg, (Wp, WpPrime)):
                if slot >= 0:
                    rows[slot] = cls(vals[0])
            value = rows[dst]
        else:
            assert op == tp.OP_WP_SHARED and src == ()
            value = rows[dst]
        can_fail = op in (tp.OP_DIV, tp.OP_WP) or (op == tp.OP_POWI and arg < 0)
        assert (fail >= 0) == can_fail
        if fail >= 0:
            fail_node[fail] = value
        if op != tp.OP_CONST:
            rows[dst] = value
        for r in outs:
            assert out[r] is None
            out[r] = value
        for fold, acc, left, right in steps:
            head = rows[left]
            if left == acc:
                assert isinstance(head, _Partial) and head[0] is _FOLDED[fold]
                terms = head[1]
            else:
                terms = (head,)
            rows[acc] = _Partial((_FOLDED[fold], (*terms, operand(fold, rows[right]))))
    return out, fail_node


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

    def test_shift_is_memoized_on_the_operand(self, monkeypatch):
        f = parse("exp(z1+z2+z3)*(z1+1)*(z2+1)*(z3+1) + sin(z1*z2)", 3)
        c = (0.5j, 0, -1.25)
        shifted = ex.shift(f, c)
        made = []
        make = ex._make

        def counted_make(cls, *fields):
            made.append((cls, *fields))
            return make(cls, *fields)

        monkeypatch.setattr(ex, "_make", counted_make)
        assert ex.shift(f, c) is shifted
        # the only lookups are the interned constants that key the memo
        assert made == [(Const, complex(x)) for x in c]

    @pytest.mark.parametrize("kind", ["xc", "fg"])
    def test_scale_terms_after_residual_reuses_the_shift(self, monkeypatch, kind):
        n = 3
        f_text, beta_text = FG_RUNG.fg_texts(n)
        f = parse(f_text, n)
        if kind == "fg":
            p = FG_RUNG.fg_problem(parse(beta_text, n), n)
        else:
            p = operators.PDDEProblem(kind="xc", n=n, m1=2, m2=3, c=(0.5j, 0, -1.25))
        operators.residual(p, f)
        made, inside = [], []
        make, shift = ex._make, operators.shift

        def counted_make(cls, *fields):
            if inside:
                made.append(cls)
            return make(cls, *fields)

        def counted_shift(e, c):
            inside.append(True)
            try:
                return shift(e, c)
            finally:
                inside.pop()

        monkeypatch.setattr(ex, "_make", counted_make)
        monkeypatch.setattr(operators, "shift", counted_shift)
        operators.scale_terms(p, f)
        # the shift builds no node: it looks up the key's n constants
        assert made == [Const] * n

    def test_shift_memo_holds_no_reference_cycle(self):
        # an unchanged subtree (z8^4, a constant) stores a marker, not
        # itself, so reference counting alone frees the shifted tree
        gc.collect()
        gc.disable()
        try:
            baseline = len(ex._TABLE)
            f = parse("(z7 + 3.125)^3*z8 - 2.375*z7*z8^2 + z8^4 + 5.625", 8)
            g = ex.shift(f, (0,) * 6 + (1.5j, 0))
            assert ex.shift(f, (0,) * 6 + (1.5j, 0)) is g
            assert ex.shift(g, (0,) * 8) is g
            del f, g
            assert len(ex._TABLE) == baseline
        finally:
            gc.enable()

    def test_intern_table_does_not_leak(self):
        # derivatives and shifts are memoized on their operand, so the
        # trees use variables and constants no other test builds
        # composites from: a memo on a node that outlives the test would
        # keep its entries
        gc.collect()
        baseline = len(ex._TABLE)
        for k in range(50):
            f = parse(f"exp({k}.5*z7+z8)*(z7+{k}.25)^3 + sin(z7*z8)/(z8+{k}.75)", 8)
            partial(f, (0,) * 6 + (1, 1))
            compile_expr([f, partial(f, (0,) * 7 + (1,)), ex.shift(f, (0,) * 6 + (0.5j, -1.5))])
        del f
        gc.collect()
        assert len(ex._TABLE) == baseline


class TestSlotTape:
    @settings(max_examples=80, deadline=None)
    @given(dags())
    def test_one_instruction_per_distinct_node(self, roots):
        assert len(compile_expr(roots).ops) == instruction_count(roots)

    @settings(max_examples=150, deadline=None)
    @given(dags(max_nodes=20))
    # the fresh z1*z1 is folded in by an early step after z2 is computed:
    # its slot must live until that step
    @example([Add((Mul((Var(1), Var(1))), Neg(Var(2)), Var(1), Var(2)))])
    def test_symbolic_run_rebuilds_every_root(self, roots):
        """Instructions, slots, immediates, fold steps, outputs and fail indices, by property."""
        tape = compile_expr(roots)
        out, fail_node = run_symbolic(tape, len(roots))
        assert all(o is r for o, r in zip(out, roots))
        # fail indices are numbered in instruction order, and a root's row
        # is masked by exactly the fail indices of the nodes below it
        assert [ins.fail for ins in tape.ops if ins.fail >= 0] == list(range(tape.n_fail))
        assert len(fail_node) == tape.n_fail
        for root, fails in zip(roots, tape.root_fails):
            below = distinct_nodes([root])
            expect = [f for f, node in fail_node.items()
                      if node in below or (isinstance(node, (Wp, WpPrime))
                                           and {Wp(node.arg), WpPrime(node.arg)} & below)]
            assert list(fails) == sorted(expect)
        assert [f for f, _ in tape.fixed_fails] == sorted(f for f, _ in tape.fixed_fails)
        # slots are numbered densely after the immediates
        written = {ins.dst for ins in tape.ops if ins.op != tp.OP_CONST}
        written |= {s for ins in tape.ops if ins.op == OP_WP for s in ins.arg if s >= 0}
        written |= {acc for ins in tape.ops for _, acc, _, _ in ins.steps}
        base = len(tape.consts)
        assert written == set(range(base, base + len(written)))
        assert tape.n_slots == max(len(written), 1)
        assert tape.has_wp == any(ins.op == OP_WP for ins in tape.ops)
        assert tape.n_min == max((ins.arg + 1 for ins in tape.ops if ins.op == tp.OP_VAR), default=0)

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
        # the expanded product rule of d^(1,...,1) of exp(z1+..+z5)*prod(zj+1):
        # one term per subset of the factors zj+1 left undifferentiated
        e = parse("exp(z1+z2+z3+z4+z5)", 5)
        d = Add([Mul([e, *(Var(j) + 1 for j, keep in enumerate(keeps, start=1) if keep)])
                 for keeps in itertools.product((True, False), repeat=5)])
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
        assert Add(()) is Const(0.0) and Mul(()) is Const(1.0)
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


def canonical(x):
    """A tape field as JSON data: a ufunc by name, a complex by its bit pattern.

    A tuple, an Instr too, becomes a list of its items in field order.
    """
    if isinstance(x, np.ufunc):
        return x.__name__
    if isinstance(x, complex):  # np.complex128 too
        return struct.pack("<2d", x.real, x.imag).hex()
    if isinstance(x, tuple):
        return [canonical(v) for v in x]
    assert x is None or type(x) in (int, bool), type(x)
    return x


def tape_digest(tape: Tape) -> str:
    """sha256 of every field of the tape, instructions included, in canonical form."""
    fields = {f.name: canonical(getattr(tape, f.name)) for f in dataclasses.fields(Tape)}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


class _Roots(Exception):
    """Carries the roots a check would compile out of the call that builds them."""


def check_roots(monkeypatch, run) -> list:
    """The roots `check_residual` gets from `run()`: residual, scale terms, guards."""
    def capture(res, scales, policy, n, guards=None):
        raise _Roots([res, *scales, *(g for g, _ in guards or ())])

    monkeypatch.setattr(verify, "check_residual", capture)
    with pytest.raises(_Roots) as caught:
        run()
    return caught.value.args[0]


FG_RUNG = load_script("fg_rung")
FERMAT_PAIRS = load_script("fixture_reports").FERMAT_PAIRS


def fg_run(n):
    f_text, beta_text = FG_RUNG.fg_texts(n)
    f = parse(f_text, n)
    return lambda: verify.verify_problem(FG_RUNG.fg_problem(parse(beta_text, n), n), f)


CHECKS = {
    **{f"fixture {p.stem}": (lambda p=p: cli_main(["verify", str(p)]))
       for p in sorted(FIXTURES.glob("*.json"))},
    **{f"fermat {kind} {h}": (lambda kind=kind, h=h, n=n: cli_main(
        ["fermat", "--kind", kind, "--h", h, "--n", str(n)])) for kind, h, n in FERMAT_PAIRS},
    **{f"fg n={n}": fg_run(n) for n in range(2, 8)},
}

#: digests of the check tapes, recorded from the nine-pass compiler that
#: the one-walk compiler replaced: a compiler change that moves one
#: instruction, slot, immediate or fail index of these tapes changes one.
#: The six fg pins were re-recorded when the product rule began to keep the
#: factors a direction does not touch outside its sum: the mixed partial
#: d^(1,...,1) is another expression since, and its tapes are shorter
#: (36/38/50/70/106/174 -> 37/37/43/49/55/61 instructions for n = 2..7)
TAPE_DIGESTS = {
    "fermat cos-sin z1+z2^2": "e7114425dcbfc5b85af55ed871fd8f8e6c961dbc39bd5272a27457ad9e6b9591",
    "fermat cubic z1": "314d342be23644a2e8d420d2a2f36cf49b4580c6a1f01e4ab21e267c63bf4baf",
    "fermat cubic z1 + z2/2": "88bd917e0ca228ac05aac4cd41646c3a5c816ca8267eb7a6b23a8796fab60267",
    "fermat mobius z1*z2": "632bc5ab470a5118570205240b6b3f7d89e6441540356711e5dff066aee4b8b3",
    "fg n=2": "fdd74468702ae05a1bdf7b4644add7523404410a4ff787c549e92f8edd73e617",
    "fg n=3": "702b58790384e2d83ab79e6f4fc682c8749cd0b00b68c61e018a9328e4acfb2b",
    "fg n=4": "45fe3a8cc7f02216f5f7017a7536d6c511ca3ff70fd205b0ad6cc32daec07532",
    "fg n=5": "e05ef7e17310b5ae5bdd6cadb6e40b34ffde335db94fcd25cc11bb64389381d2",
    "fg n=6": "3e481573b6b078a86d3269fe9e114e65e9023d62ae987db451b19fc7c3f96097",
    "fg n=7": "4bc59412cca7cd86412364637f1d19c18f713eeaff3b1049c2fdc41342171257",
    "fixture bad_poly": "13f5104847fe368d51f07d6a9bc46ccb7b4687b66d8f40d576b944d835632bd5",
    "fixture example1": "d5664e42a68026c733b66cf208619b0db299108240b5357d8ad854413b7a5022",
    "fixture example2": "fabc131df4e46fe9d762544f6036822883e770926c9a16d1b61fa8d83ac05950",
    "fixture example3": "6d07761d0469187caecab8f20a22f844bf3be104b951fa41f7391a3e908f9324",
    "fixture example4": "f5296962d736561bbcfb297a40ec8af7647a27c5b1ac80c1a11d09c9e946456c",
    "fixture example5": "c581057c4e7eba0fd5033b55a1c0802c8923bb236f60109b975a040c4ee6af78",
    "fixture example6": "692c7e64ab7f334d783a4218590f70fb9f84baf1cd4421cd1f91a46c0854cc38",
    "fixture example7": "e552a2e18de532c7ae792267b6320d5d418947f50440bc5c7c95176e208997a5",
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_tapes_are_unchanged(monkeypatch, name):
    roots = check_roots(monkeypatch, CHECKS[name])
    assert tape_digest(compile_expr(roots)) == TAPE_DIGESTS[name]
