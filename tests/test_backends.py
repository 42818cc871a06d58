import numpy as np
import pytest
from hypothesis import given, settings

from fermat_pdde.backends import BLOCK, default_backend, eval_batch, eval_blocks
from fermat_pdde.elliptic import default_context, wp_many
from fermat_pdde.errors import EvalError, PDDEError, PoleHitError
from fermat_pdde import tape as tp
from fermat_pdde.expr import Const, Div, Exp, Pow, Var
from fermat_pdde.parser import parse
from fermat_pdde.tape import compile_expr

from conftest import disc_points
from oracle import evaluate
from test_expr import F_EX1, F_EX4, exprs



def scalar_reference(e, pts):
    """Independent route: the recursive scalar evaluator, point by point."""
    vals = np.empty(len(pts), dtype=np.complex128)
    ok = np.ones(len(pts), dtype=bool)
    for i, pt in enumerate(pts):
        try:
            vals[i] = evaluate(e, pt)
        except (PoleHitError, EvalError):
            vals[i] = np.nan
            ok[i] = False
    return vals, ok


@pytest.fixture(params=[default_backend()])
def backend(request):
    """Keeps the "[numpy]" suffix in the test ids; numpy is the only backend."""
    return request.param


@pytest.mark.usefixtures("backend")
class TestAgainstScalarReference:
    def test_fixture_expressions(self):
        for e, n in ((F_EX4, 3), (F_EX1, 5)):
            pts = disc_points(31, 25, n, radius=1.5)
            vals, ok = eval_batch(e, pts)
            ref, rok = scalar_reference(e, pts)
            assert ok.all() and rok.all()
            scale = np.maximum(1.0, np.abs(ref))
            assert (np.abs(vals - ref) / scale).max() < 1e-12

    def test_rational_with_poles(self):
        e = parse("(z1+1)/(z1-1) + z2^-2", 2)
        pts = disc_points(32, 40, 2, radius=1.5)
        pts[0, 0] = 1.0  # exact pole of the quotient
        pts[1, 1] = 0.0  # exact pole of the negative power
        vals, ok = eval_batch(e, pts, pole_eps=1e-9)
        assert not ok[0] and not ok[1]
        assert np.isnan(vals[0].real) and np.isnan(vals[1].real)
        ref, rok = scalar_reference(e, pts)
        assert (ok == rok).all()
        good = ok
        scale = np.maximum(1.0, np.abs(ref[good]))
        assert (np.abs(vals[good] - ref[good]) / scale).max() < 1e-12

    def test_wp_expressions(self):
        e = parse("wp(z1)^3*4 - wpd(z1)^2", 1)
        pts = disc_points(33, 30, 1, radius=1.4)
        vals, ok = eval_batch(e, pts)
        x, y, wok = wp_many(pts[:, 0])
        expect = 4 * x**3 - y**2
        assert (ok == wok).all()
        # scale by the cancelling terms, not the tiny result
        scale = np.maximum(1.0, np.maximum(np.abs(4 * x**3), np.abs(y**2)))[ok]
        assert (np.abs(vals[ok] - expect[ok]) / scale).max() < 1e-12

    def test_wp_node_values(self):
        from fermat_pdde.expr import Var, Wp, WpPrime

        pts = disc_points(33, 30, 1, radius=1.4)
        x, y, wok = wp_many(pts[:, 0])
        for node, expect in ((Wp(Var(1)), x), (WpPrime(Var(1)), y)):
            vals, ok = eval_batch(node, pts)
            assert (ok == wok).all()
            scale = np.maximum(1.0, np.abs(expect[ok]))
            assert (np.abs(vals[ok] - expect[ok]) / scale).max() < 1e-13

    def test_deterministic(self):
        pts = disc_points(34, 50, 5, radius=2.0)
        a, _ = eval_batch(F_EX1, pts)
        b, _ = eval_batch(F_EX1, pts)
        assert np.array_equal(a.view(np.float64), b.view(np.float64))

    @settings(max_examples=40, deadline=None)
    @given(exprs())
    def test_random_trees(self, e):
        pts = disc_points(35, 6, 3, radius=0.8)
        vals, ok = eval_batch(e, pts, pole_eps=1e-12)
        ref, rok = scalar_reference(e, pts)
        both = ok & rok & np.isfinite(ref) & np.isfinite(vals)
        scale = np.maximum(1.0, np.abs(ref[both]))
        if both.any():
            assert (np.abs(vals[both] - ref[both]) / scale).max() < 1e-10


class TestSelection:
    def test_default_is_numpy(self):
        assert default_backend() == "numpy"


class TestTape:
    def test_compile_shape(self):
        t = compile_expr(F_EX4)
        assert t.n_min == 3
        assert not t.has_wp
        assert t.n_slots >= 2

    def test_wp_flag(self):
        assert compile_expr(parse("wp(z1)", 1)).has_wp

    def test_wp_defaults_to_the_package_lattice(self):
        pts = disc_points(38, 64, 1, radius=1.5)
        pts[0] = 0.0  # a lattice point: a masked lane
        e = parse("wp(z1)", 1)
        vals, ok = eval_batch(e, pts)
        ref, ref_ok = eval_batch(e, pts, ell=default_context())
        assert not ok[0] and ok[1:].all()
        assert np.array_equal(ok, ref_ok)
        assert vals.tobytes() == ref.tobytes()

    def test_dimension_check(self):
        with pytest.raises(PDDEError):
            eval_batch(F_EX4, disc_points(39, 3, 2))

    def test_precompiled_tape_reuse(self):
        t = compile_expr(F_EX4)
        pts = disc_points(40, 10, 3)
        vals, ok = eval_batch(t, pts)
        ref, _ = scalar_reference(F_EX4, pts)
        assert np.abs(vals - ref).max() < 1e-9


class TestDivisorsWithNoZeros:
    """exp of anything, a nonzero constant, and products, integer powers and
    negations of those have no zeros: a divisor of that form rejects no lane."""

    @pytest.mark.parametrize("text", [
        "1/exp(z1)", "z2/(2*exp(z1))", "exp(z1)^-2", "(3*exp(z1))^-1",
        "z2/(-exp(z1)^3*exp(z2))", "z2/exp(z1 + z2)", "(exp(z1)*exp(z2)^-1)^-2",
    ])
    def test_a_tiny_divisor_is_divided(self, text):
        e = parse(text, 2)
        pts = disc_points(61, 64, 2)
        pts[:, 0] -= 40.0  # |exp(z1)| below 1e-16, under the pole threshold
        vals, ok = eval_batch(e, pts)
        assert ok.all() and np.isfinite(vals).all()
        ref, ref_ok = scalar_reference(e, pts)
        assert ref_ok.all()
        assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref))

    def test_the_quotient_is_the_plain_division(self):
        pts = disc_points(62, 300, 2, radius=30.0)
        z1, z2 = pts[:, 0], pts[:, 1]
        for e, expect in ((Div(Var(2), Exp(Var(1))), z2 / np.exp(z1)),
                          (Pow(Exp(Var(1)), -3), 1.0 / (np.exp(z1) * (np.exp(z1) * np.exp(z1))))):
            vals, ok = eval_batch(e, pts)
            assert ok.all()
            assert np.array_equal(vals.view(np.uint64), expect.view(np.uint64))

    def test_a_divisor_that_underflows_overflows_the_lane(self):
        # exp(-800) is 0: the lane is kept (ok) and not finite, as an overflow is
        pts = np.array([[-800.0 + 0j, 1.0], [0.5, 1.0]])
        vals, ok = eval_batch(parse("z2/exp(z1)", 2), pts)
        assert ok.all()
        assert not np.isfinite(vals[0]) and np.isfinite(vals[1])

    @pytest.mark.parametrize("text, point", [
        ("1/(1 + exp(z1))", (np.pi * 1j, 0.5)),  # a sum can vanish
        ("z2/(exp(z1)*z2)", (0.5, 0.0)),  # so can a product with a variable factor
        ("(z2*exp(z1))^-2", (0.5, 0.0)),
        ("1/sin(z1)", (0.0, 0.5)),
    ])
    def test_a_divisor_that_can_vanish_is_still_tested(self, text, point):
        pts = np.array([point, (0.3, 0.7)], dtype=np.complex128)
        vals, ok = eval_batch(parse(text, 2), pts)
        assert list(ok) == [False, True]

    def test_only_a_divisor_is_asked_about(self, monkeypatch):
        asked = []

        def spy(node, memo):
            asked.append(node)
            return no_zeros(node, memo)

        no_zeros = tp._no_zeros
        monkeypatch.setattr(tp, "_no_zeros", spy)
        # no quotient by a non-constant and no negative power: no walk at all
        compile_expr(parse("exp(z1)*sin(z2) + z1^3 - cos(z1)/2", 2))
        assert asked == []
        tape = compile_expr(parse("z2/exp(z1) + z1^-2 + 1/(z1 + 1) + exp(z1)^-1", 2))
        assert len(asked) == 4
        ops = [ins.op for ins in tape.ops]
        assert ops.count(tp.OP_DIV_NZ) == 1 and ops.count(tp.OP_POWI_NZ) == 1
        assert ops.count(tp.OP_DIV) == 1 and ops.count(tp.OP_POWI) == 1


#: the pole threshold of the block-stream tapes
STREAM_EPS = 1e-9


def stream_roots():
    """Roots whose tape has every kind of rejecting instruction.

    Root 0 alone reads a quotient by a constant below STREAM_EPS (every
    lane rejected), roots 0 and 1 one by a constant above it (no lane
    rejected); root 1 has a live divisor, roots 2 and 3 wp, root 4 can
    overflow to inf with ok=True, and roots 5 and 6 reject no lane.
    """
    z1, z2 = Var(1), Var(2)
    third = Div(z1 + z2, Const(3.0))
    return [
        Div(z1, Const(1e-10)) + third,
        third + 1 / (z1 - 0.25),
        parse("wp(z1 + z2) * z2", 2),
        parse("wpd(z1 + z2) - wp(z2)", 2),
        parse("exp(800*z1)", 2),
        z1 * z2,
        Const(2.5),
    ]


def stream_groups():
    """Root 0 in a tape of its own: it rejects every lane of every root it shares a tape with."""
    roots = stream_roots()
    return [roots[:1], roots[1:]]


def stream_points(count):
    pts = disc_points(41, count, 2, radius=1.5)
    pts[0] = (0.25, 0.5)  # the live divisor's pole
    if count > 1:
        pts[1] = (0.3, -0.3)  # a lattice point of wp(z1 + z2)
    return pts


class TestBlockStream:
    """eval_blocks yields views of rows it keeps for the whole call.

    Each block, copied as it is drawn, must equal the same points' slice
    of eval_batch bit for bit, masks included, whatever the blocking.
    """

    @pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_blocks_equal_the_batch(self, count):
        pts = stream_points(count)
        for g, roots in enumerate(stream_groups()):
            tape = compile_expr(roots)
            vals, ok = eval_batch(tape, pts, pole_eps=STREAM_EPS)
            if g == 0:
                assert not ok.any()
            else:
                assert not ok[:, :2].any() and (count < 3 or ok[:, 2:].any())
            # uniform blocks, and blocks that grow after a narrow first one
            sizes = [BLOCK] * (count // BLOCK + 1)
            ragged = [1, 3, BLOCK, 2] * (count // BLOCK + 1)
            for widths in (sizes, ragged):
                lo, blocks = 0, []
                for w in widths:
                    blocks.append(pts[lo : lo + w])
                    lo += w
                lo = 0
                for v, k in eval_blocks(tape, 2, (b for b in blocks if len(b)), pole_eps=STREAM_EPS):
                    hi = lo + v.shape[1]
                    assert v.tobytes() == vals[:, lo:hi].tobytes()
                    assert np.array_equal(k, ok[0, lo:hi])
                    lo = hi
                assert lo == count

    def test_masks_match_the_scalar_reference(self):
        pts = stream_points(64)
        for roots in stream_groups():
            vals, ok = eval_batch(roots, pts, pole_eps=STREAM_EPS)
            for p, pt in enumerate(pts):
                pole = False
                for root in roots:
                    try:
                        evaluate(root, pt, pole_eps=STREAM_EPS)
                    except PoleHitError:
                        pole = True
                    except OverflowError:  # exp(800*z1): an overflow is no pole
                        pass
                # a lane is rejected, in every root, exactly when some root hits a pole
                assert not ok[:, p].any() if pole else ok[:, p].all()
            assert np.isnan(vals[~ok]).all()
