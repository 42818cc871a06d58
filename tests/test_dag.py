"""Hash-consed expressions and the multi-output slot tape."""

import copy
import dataclasses
import gc
import hashlib
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
from fermat_pdde.elliptic import default_context, wp_many
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
POLE_EPS = 1e-9


@st.composite
def dags(draw, entire=False, max_nodes=12):
    """Root lists over one pool of nodes; each new node picks earlier ones.

    Picking from the pool shares subtrees between parents and roots, and
    roots may be constants.  A difference a - b puts its negation -b in
    the pool too, so other nodes (and roots) can read it as well.  Unless
    `entire`, nodes include quotients, negative powers and wp/wpd, whose
    poles exercise the point masks, and quotients by a constant, some of
    modulus below POLE_EPS (every lane of every root rejected).  Other constants are 0 or
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

    A constant is an immediate; a negation is folded into subtraction
    unless it is a root or is read other than as a sum's operand past the
    first; a wp and a wpd of one argument share one instruction.
    """
    nodes = distinct_nodes(roots)
    needed = set(roots)
    for node in nodes:
        for k, kid in enumerate(node._kids):
            if isinstance(kid, Neg) and not (isinstance(node, Add) and k > 0):
                needed.add(kid)
    return sum(1 for node in nodes
               if not (isinstance(node, Const)
                       or isinstance(node, Neg) and node not in needed
                       or isinstance(node, WpPrime) and Wp(node._kids[0]) in nodes))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


_MAPPED = {cls.ufunc: cls for cls in (Neg, Exp, Sin, Cos)}


def run_symbolic(tape: Tape):
    """Run the tape on expressions instead of values.

    Each slot holds the node whose value it holds (a folded negation
    summand comes back as its Neg), so reading a slot that holds another
    node's value, or one never written, shows in the result.  Returns the
    node in each root's operand after the last instruction.
    """
    base = len(tape.consts)
    rows = {k: Const(c) for k, c in enumerate(tape.consts)}
    for op, dst, src, arg in tape.ops:
        assert base <= dst < base + tape.n_slots
        vals = [rows[s] for s in src]
        if op == tp.OP_VAR:
            value = Var(arg + 1)
        elif op in (tp.OP_ADD, tp.OP_MUL):
            cls = Add if op == tp.OP_ADD else Mul
            assert len(arg) == len(vals) - 1
            value = cls((vals[0], *(Neg(v) if f is np.subtract else v
                                    for f, v in zip(arg, vals[1:]))))
        elif op == tp.OP_MAP:
            value = _MAPPED[arg](vals[0])
        elif op == tp.OP_DIV:
            value = Div(vals[0], vals[1])
            if arg is not None:
                assert src[1] < base and arg == tape.consts[src[1]]
        elif op == tp.OP_POWI:
            value = Pow(vals[0], arg)
        else:
            assert op == OP_WP and dst in arg
            for slot, cls in zip(arg, (Wp, WpPrime)):
                if slot >= 0:
                    rows[slot] = cls(vals[0])
            continue
        rows[dst] = value
    return [rows[k] for k in tape.roots]


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
        for text in ("exp(z1+z2)*(z1+1) + sin(z1*z2)/(z2-3) + z1^-2 + wpd(z1)",
                     "z1" + "/(z2+2)" * 1500):  # deeper than the recursion limit
            e = parse(text, 2)
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
        f_text, beta_text = BENCH.fg_texts(n)
        f = parse(f_text, n)
        if kind == "fg":
            p = BENCH.fg_problem(parse(beta_text, n), n)
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
    @example([Add((Mul((Var(1), Var(1))), Neg(Var(2)), Var(1), Var(2)))])
    def test_symbolic_run_rebuilds_every_root(self, roots):
        """Instructions, slots, immediates and outputs, by property."""
        tape = compile_expr(roots)
        out = run_symbolic(tape)
        assert len(out) == len(roots) and all(o is r for o, r in zip(out, roots))
        # slots are numbered densely after the immediates
        written = {ins.dst for ins in tape.ops}
        written |= {s for ins in tape.ops if ins.op == OP_WP for s in ins.arg if s >= 0}
        base = len(tape.consts)
        assert written == set(range(base, base + len(written)))
        assert tape.n_slots == max(len(written), 1)
        assert tape.has_wp == any(ins.op == OP_WP for ins in tape.ops)
        assert tape.n_min == max((ins.arg + 1 for ins in tape.ops if ins.op == tp.OP_VAR), default=0)

    @settings(max_examples=80, deadline=None)
    @given(dags())
    def test_multi_root_rows_equal_single_root_tapes(self, roots):
        # a lane is rejected for every root when any single-root tape rejects it
        pts = disc_points(50, 40, N, radius=1.6)
        vals, ok = eval_batch(compile_expr(roots), pts, pole_eps=POLE_EPS)
        assert vals.shape == ok.shape == (len(roots), len(pts))
        singles = [eval_batch(compile_expr(root), pts, pole_eps=POLE_EPS) for root in roots]
        every = np.logical_and.reduce([ok1 for _, ok1 in singles])
        for i, (v1, _) in enumerate(singles):
            assert np.array_equal(ok[i], every)
            assert np.array_equal(bits(vals[i, every]), bits(v1[every]))
            assert np.isnan(vals[i, ~every]).all()

    @settings(max_examples=80, deadline=None)
    @given(dags())
    def test_agrees_with_scalar_evaluate(self, roots):
        pts = disc_points(51, 12, N, radius=1.6)
        vals, ok = eval_batch(compile_expr(roots), pts, pole_eps=POLE_EPS)
        # forward error is judged against the largest intermediate value
        nodes = list(distinct_nodes(roots))
        inner, _ = eval_batch(compile_expr(nodes), pts, pole_eps=POLE_EPS)
        with np.errstate(all="ignore"):
            scale = np.maximum(1.0, np.abs(inner).max(axis=0))
        for p, pt in enumerate(pts):
            refs = []
            for root in roots:
                try:
                    refs.append(evaluate(root, pt, pole_eps=POLE_EPS))
                except (PoleHitError, EvalError):
                    refs = None
                    break
            # a lane is rejected exactly when some root's oracle raises
            assert (refs is None) == (not ok[:, p].any())
            if refs is None:
                continue
            for i, ref in enumerate(refs):
                if np.isfinite(ref) and np.isfinite(scale[p]) and scale[p] < 1e100:
                    assert abs(vals[i, p] - ref) <= 1e-9 * scale[p]

    def test_block_boundaries_do_not_change_values(self):
        e = parse("exp(z1*z2)/(1+z1^2) + sin(z2)^3 - cos(z1)^-1 + wp(z1+z2/2)*wpd(z1+z2/2)", 2)
        pts = disc_points(52, 2 * BLOCK + 37, 2, radius=1.8)
        vals, ok = eval_batch(e, pts)
        for lo, hi in ((0, 100), (BLOCK - 10, BLOCK + 10), (2 * BLOCK, 2 * BLOCK + 37)):
            part, pok = eval_batch(e, pts[lo:hi])
            assert np.array_equal(pok, ok[lo:hi])
            assert np.array_equal(bits(part), bits(vals[lo:hi]))

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
        assert len(tape.ops) == 2  # z1 and z1 + 1: a constant root is read from its immediate
        vals, ok = eval_batch(tape, pts)
        assert ok.all()
        for row, expect in zip(vals, (0j, 1 + 0j, pts[:, 0] + 1, 2.5j)):
            assert np.array_equal(bits(row), bits(np.broadcast_to(expect, row.shape)))

    def test_a_root_read_by_a_later_root_keeps_its_value(self):
        # z1 + 1 is read again by the second root, after the first root's row
        # would once have been written: its slot is not reused
        z1, z2 = Var(1), Var(2)
        roots = [z1 + 1, Exp(z2) * (z1 + 1), z1 + 1, Const(2)]
        pts = disc_points(59, 300, 2, radius=1.5)
        vals, ok = eval_batch(compile_expr(roots), pts)
        assert ok.all()
        for row, root in zip(vals, roots):
            single, _ = eval_batch(compile_expr(root), pts)
            assert np.array_equal(bits(row), bits(single))

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

    def test_constant_divisor_below_the_threshold_rejects_every_root(self):
        # one reject row per block: the quotient voids the lanes of z1 too
        pts = disc_points(57, 300, 1, radius=1.5)
        vals, ok = eval_batch([Div(Var(1), Const(0.5 * POLE_EPS)), Var(1)], pts, pole_eps=POLE_EPS)
        assert not ok.any()
        assert np.isnan(vals).all()

    def test_wp_pair_shares_one_call(self):
        h = parse("z1 + z2/2", 2)
        roots = [Wp(h) ** 3 + WpPrime(h), WpPrime(h) ** 2, Wp(h)]
        tape = compile_expr(roots)
        assert sum(ins.op == OP_WP for ins in tape.ops) == 1

        calls = []

        class Counting:
            def wp_many(self, z):
                calls.append(len(z))
                return wp_many(z)

        pts = disc_points(53, 300, 2, radius=1.5)
        vals, ok = eval_batch(tape, pts, ell=Counting())
        assert calls == [300]
        x, y, wok = wp_many(pts[:, 0] + pts[:, 1] / 2)
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
    vals, ok = eval_batch(e, pts, pole_eps=POLE_EPS)
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


BENCH = load_script("bench_pipeline")
FERMAT_PAIRS = load_script("fixture_reports").FERMAT_PAIRS


def fg_run(n):
    f_text, beta_text = BENCH.fg_texts(n)
    f = parse(f_text, n)
    return lambda: verify.verify_problem(BENCH.fg_problem(parse(beta_text, n), n), f)


CHECKS = {
    **{f"fixture {p.stem}": (lambda p=p: cli_main(["verify", str(p)]))
       for p in sorted(FIXTURES.glob("*.json"))},
    **{f"fermat {kind} {h}": (lambda kind=kind, h=h, n=n: cli_main(
        ["fermat", "--kind", kind, "--h", h, "--n", str(n)])) for kind, h, n in FERMAT_PAIRS},
    **{f"fg n={n}": fg_run(n) for n in range(2, 8)},
}

#: digests of the check tapes, recorded from the nine-pass compiler that
#: the one-walk compiler replaced: a compiler change that moves one
#: instruction, slot, immediate or root operand of these tapes changes one.
#: The six fg pins were re-recorded when the product rule began to keep the
#: factors a direction does not touch outside its sum: the mixed partial
#: d^(1,...,1) is another expression since, and its tapes are shorter
#: (36/38/50/70/106/174 -> 37/37/43/49/55/61 instructions for n = 2..7)
#: All 18 were re-recorded when the fold steps and the `steps` field of
#: `Instr` went: slots moved, instructions, opcodes and fail indices did not.
#: All 18 were re-recorded again when the fail indices went (`Instr.fail`,
#: `Tape.n_fail`, `fixed_fails` and `root_fails`; `Tape.n_roots` came in):
#: each equals the digest of the tape before it with those fields removed.
#: All 18 were re-recorded when `Instr.outs`, OP_CONST and OP_WP_SHARED
#: went and `Tape.roots` replaced `Tape.n_roots`: each tape computes the
#: nodes of the tape before it in the same order, less those two no-op
#: instructions, and slots moved (the cubic tapes' guard wp(h) is evaluated
#: after the residual's and the scale terms' roots, which keep their slots)
TAPE_DIGESTS = {
    "fermat cos-sin z1+z2^2": "7863fe2d31542f585d96d58243e0e88e8ea05800f44667fcb520e2e24e9ca45d",
    "fermat cubic z1": "c12bc5ca750e73fe2b4b02d1f4043c6382b315d3d45622e19a4b9ae2979d0b2f",
    "fermat cubic z1 + z2/2": "d12b90475272da69bf5cc6e19b1f3a8f35b45b98c79f6bbf555bc672b933e6fc",
    "fermat mobius z1*z2": "1c31ef7394710b1ffbdb4dc14721cab106beed995a339b48b70c805641686a6f",
    "fg n=2": "d4c5d1a2e9d408bc1273b43dcb5c1387a4491686e01dc2aad704b2e69b090cbd",
    "fg n=3": "5f7995f022ef58f85573ac16b4d1526337607ddc55bf2257bca0e5d2ba0592c4",
    "fg n=4": "062d47ab0f18af4270e575136499fe62f16d4917980bc5de7d956ed807f05a78",
    "fg n=5": "6e8f76b64f6bab02b1ba1d43f30a0b41eeedaa152fa8e0c427a617c973811a13",
    "fg n=6": "5788a87b538237807786b1640970c1ee43701e9603bb27c237ce26ef4aa67685",
    "fg n=7": "29f20675bab4e3573c8d5dd71322243b281e454e40d0f27a8d76729aa6b9e590",
    "fixture bad_poly": "9c759f5736141792fda7b9d0750ae682eccd15b09e05566e820ee84d7ee99e4d",
    "fixture example1": "16b3919d1530b0f77b4694707915b8a8c2f07b5aed8b394f78e579972c0662df",
    "fixture example2": "03a8314b3d852ca3972ba78aca1e738910e04921063e8a87ccf8a176e9823a4b",
    "fixture example3": "a99e5d729c7ed103cec637ce3abc712d81d9d2660d256fa8fb76c866e7d3f0bc",
    "fixture example4": "11b9e9a085f40d29712fd13421c4d51107035c4be024f6065d2ee4898d2a7c23",
    "fixture example5": "a18bbb0e29ea4e1151a565eebe685229aca99738109a1fc8d0991610339eb97a",
    "fixture example6": "ac9512f32e3af2522d4b20401a0c5014188cb1e4403d0bc3a1ba83e5db853a10",
    "fixture example7": "ee6f607bb3acda0bfa4f81847293877b15e6de948385346adfbcca997d194f93",
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_tapes_are_unchanged(monkeypatch, name):
    roots = check_roots(monkeypatch, CHECKS[name])
    assert tape_digest(compile_expr(roots)) == TAPE_DIGESTS[name]


def test_passing_the_default_context_keeps_the_bits(monkeypatch):
    # perfbench passes default_context() (or a proxy of it) as `ell`: the
    # cubic pair's check tape gives the same bits with `ell` omitted
    tape = compile_expr(check_roots(monkeypatch, CHECKS["fermat cubic z1 + z2/2"]))
    assert tape.has_wp
    pts = disc_points(60, 2000, 2, radius=2.0)
    pts[0] = 0.0  # h = 0, a lattice point: a rejected lane
    vals, ok = eval_batch(tape, pts)
    ref, ref_ok = eval_batch(tape, pts, ell=default_context())
    assert not ok[:, 0].any() and ok[:, 1:].any()
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(bits(vals), bits(ref))


def test_every_instruction_computes_a_value(monkeypatch):
    # a constant root is read from its immediate and a wp partner from the
    # slot its pair's instruction writes: neither is an instruction
    computing = {tp.OP_VAR, tp.OP_ADD, tp.OP_MUL, tp.OP_MAP, tp.OP_DIV, tp.OP_POWI, OP_WP}
    roots = [check_roots(monkeypatch, CHECKS[name]) for name in sorted(CHECKS)]
    roots.append([Wp(Var(1)) ** 3, WpPrime(Var(1)), Const(2.0)])
    for rs in roots:
        assert {ins.op for ins in compile_expr(rs).ops} <= computing
