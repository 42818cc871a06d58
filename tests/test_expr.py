import cmath
import dataclasses
import gc
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermat_pdde import expr as ex
from fermat_pdde.backends import eval_batch
from fermat_pdde.errors import DimensionError, EvalError, PoleHitError
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
    directional_derivative,
    free_variables,
    partial,
    shift,
)
from fermat_pdde.parser import parse
from fermat_pdde.tape import compile_expr

from conftest import disc_points, load_script, rel_err
from oracle import evaluate, fd_partial

PI = math.pi

F_EX4 = parse("1 - z1^2/4 + z1*exp(z2+z3) - exp(2*z2+2*z3)", 3)
F_EX1_TEXT = (
    "pi*i + z3 - z4 + z5 + exp(z2+z3-2*z4) - (pi^2+z1^2)/4"
    " + (z1-pi*i)*exp(5*z2*z3-2*z2*z4+z5+9) + (z1-pi*i)*(z2+z3+z4+z5)/18"
    " - (exp(5*z2*z3-2*z2*z4+z5+9) + (z2+z3+z4+z5-9*pi*i)/18)^2"
)
F_EX1 = parse(F_EX1_TEXT, 5)
BENCH = load_script("bench_pipeline")


def recipes(n=3):
    """Bounded random expression recipes over z1..zn (hypothesis strategy).

    A recipe is a node class followed by its fields, with recipes in place
    of operands: (Const, c), (Var, j), (Add, (r1, r2)), (Pow, r, k), ...
    """
    finite = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    leaf = st.one_of(
        finite.map(lambda c: (Const, c)),
        st.integers(1, n).map(lambda j: (Var, j)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: (Add, t)),
            st.tuples(children, children).map(lambda t: (Mul, t)),
            children.map(lambda r: (Neg, r)),
            st.tuples(children, st.integers(-2, 3)).map(lambda t: (Pow, *t)),
            children.map(lambda r: (Sin, r)),
            children.map(lambda r: (Cos, r)),
            st.tuples(children, children).map(lambda t: (Div, *t)),
        )

    return st.recursive(leaf, extend, max_leaves=8)


def build(recipe, raw=False):
    """The expression a recipe describes, built through the constructors,
    which fold it; with `raw`, every node is interned as the recipe gives
    it, unfolded."""
    cls, *fields = recipe
    if cls is Add or cls is Mul:
        fields = [tuple(build(r, raw) for r in fields[0])]
    elif cls is not Const and cls is not Var:
        fields = [build(f, raw) if isinstance(f, tuple) else f for f in fields]
    return ex._make(cls, *fields) if raw else cls(*fields)


def exprs(n=3):
    """Bounded random expressions over z1..zn (hypothesis strategy)."""
    return recipes(n).map(build)


def eval_ok(e, pt):
    try:
        v = evaluate(e, pt)
    except (PoleHitError, EvalError):
        return None
    if not (np.isfinite(v.real) and np.isfinite(v.imag)) or abs(v) > 1e8:
        return None
    return v


class TestNodes:
    def test_structural_equality_and_hash(self):
        a = parse("z1^2 + i*z2", 2)
        b = parse("z1^2 + i*z2", 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != parse("z1^2 + 2*i*z2", 2)

    def test_expected_tree_shape(self):
        assert parse("z1^2 + i*z2", 2) == Add((Pow(Var(1), 2), Mul((Const(1j), Var(2)))))
        assert parse("exp(z2+z3)", 3) == Exp(Add((Var(2), Var(3))))

    def test_immutable(self):
        v = Var(1)
        with pytest.raises(AttributeError):
            v.index = 2

    def test_var_index_positive(self):
        with pytest.raises(DimensionError):
            Var(0)

    def test_pow_exponent_must_be_integer(self):
        with pytest.raises(EvalError):
            Pow(Var(1), 1.5)

    def test_free_variables(self):
        assert free_variables(F_EX4) == frozenset({1, 2, 3})
        assert free_variables(Const(2.0)) == frozenset()


_Z1, _Z2 = Var(1), Var(2)

#: one node of each class and its repr as the generated dataclass methods
#: wrote it; the hand-written Expr.__repr__ must print the same bytes
NODE_REPRS = [
    (Const(complex(-0.0, 2.5)), "Const(value=(-0+2.5j))"),
    (Var(3), "Var(index=3)"),
    (_Z1 + Const(1.5), "Add(terms=(Const(value=(1.5+0j)), Var(index=1)))"),
    (Const(2.0) * _Z1 * _Z2, "Mul(factors=(Const(value=(2+0j)), Var(index=1), Var(index=2)))"),
    (-_Z1, "Neg(arg=Var(index=1))"),
    (_Z1 / _Z2, "Div(num=Var(index=1), den=Var(index=2))"),
    (_Z1**-3, "Pow(base=Var(index=1), exponent=-3)"),
    (Exp(_Z1), "Exp(arg=Var(index=1))"),
    (Sin(_Z1), "Sin(arg=Var(index=1))"),
    (Cos(_Z2), "Cos(arg=Var(index=2))"),
    (Wp(_Z1), "Wp(arg=Var(index=1))"),
    (WpPrime(_Z1 + _Z2), "WpPrime(arg=Add(terms=(Var(index=1), Var(index=2))))"),
]
_FIELDS = {Const: ["value"], Var: ["index"], Add: ["terms"], Mul: ["factors"], Div: ["num", "den"],
           Pow: ["base", "exponent"], Neg: ["arg"], Exp: ["arg"], Sin: ["arg"], Cos: ["arg"],
           Wp: ["arg"], WpPrime: ["arg"]}


class TestNodeSurface:
    """The node classes are dataclasses whose decorator generates no method:
    the repr and the frozen setters are Expr's.  What callers see stays."""

    def test_every_class_is_covered(self):
        assert {type(node) for node, _ in NODE_REPRS} == set(_FIELDS)

    @pytest.mark.parametrize("node, text", NODE_REPRS, ids=lambda x: type(x).__name__)
    def test_repr(self, node, text):
        assert repr(node) == text

    def test_repr_of_a_dag(self):
        text = repr(F_EX1)
        assert len(text) == 1160
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "34497fd5f084c4dd9f20cb8131215a2b1ec22c793bd450537a2c0a599f1925fe")

    @pytest.mark.parametrize("node", [n for n, _ in NODE_REPRS], ids=lambda x: type(x).__name__)
    def test_fields_frozen_and_pickle(self, node):
        names = [f.name for f in dataclasses.fields(node)]
        assert names == _FIELDS[type(node)] == list(type(node).__dataclass_fields__)
        for name in [*names, "other"]:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(node, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(node, name)
        assert pickle.loads(pickle.dumps(node)) is node


class TestEvaluate:
    def test_polynomial_point(self):
        assert evaluate(parse("z1^2 + i*z2", 2), (1, 2)) == pytest.approx(1 + 2j, abs=1e-14)

    def test_euler_identity(self):
        assert evaluate(parse("exp(z1)", 1), (PI * 1j,)) == pytest.approx(-1, abs=1e-14)

    def test_example4_at_origin(self):
        assert evaluate(F_EX4, (0, 0, 0)) == pytest.approx(0, abs=1e-15)

    def test_point_too_short(self):
        with pytest.raises(DimensionError):
            evaluate(F_EX4, (1, 2))

    def test_division_pole(self):
        with pytest.raises(PoleHitError):
            evaluate(parse("1/(z1-1)", 1), (1.0,))

    def test_negative_power_pole(self):
        with pytest.raises(PoleHitError):
            evaluate(Pow(Var(1), -2), (0.0,))

    def test_negative_power_value(self):
        assert evaluate(Pow(Var(1), -2), (2.0,)) == pytest.approx(0.25, abs=1e-15)


class TestPartial:
    def test_product_rule(self):
        d = partial(parse("z1^2*z2", 2), (1, 0))
        for pt in disc_points(1, 10, 2):
            assert rel_err(evaluate(d, pt), 2 * pt[0] * pt[1]) < 1e-13

    def test_exponential_second_derivative(self):
        d = partial(parse("exp(2*z2)", 2), (0, 2))
        for pt in disc_points(2, 10, 2):
            assert rel_err(evaluate(d, pt), 4 * np.exp(2 * pt[1])) < 1e-13

    def test_zero_multi_index_is_identity(self):
        assert partial(F_EX4, (0, 0, 0)) == F_EX4

    def test_example4_first_partial_against_fd(self):
        # cross-check the symbolic derivative numerically at 20 points
        d = partial(F_EX4, (1, 0, 0))
        for pt in disc_points(3, 20, 3):
            fd = fd_partial(F_EX4, 1, pt)
            assert rel_err(evaluate(d, pt), fd) < 1e-8

    def test_example1_first_partial_against_fd(self):
        d = partial(F_EX1, (1, 0, 0, 0, 0))
        for pt in disc_points(4, 12, 5, radius=1.0):
            fd = fd_partial(F_EX1, 1, pt)
            assert rel_err(evaluate(d, pt), fd) < 1e-6

    def test_product_rule_left_out_terms_are_zero(self):
        # the derivative leaves out product-rule terms with a zero factor;
        # the result is the full sum, also where 0 times the constant is
        # NaN (inf) or the constants overflowed and did not fold
        z1, z2 = Var(1), Var(2)
        for e in (parse("2*z1^2*exp(z2)*(z2+1)", 2), Mul((Const(math.inf), z1, z2)),
                  Mul((Const(1e300), Const(1e300), z1, z2))):
            fs = list(e.factors)
            full = Add([Mul(fs[:i] + [partial(f, (1, 0))] + fs[i + 1:]) for i, f in enumerate(fs)])
            assert partial(e, (1, 0)) is full

    def test_mixed_partial_grows_linearly(self):
        # the factors zj+1 that d/dzj leaves alone stay outside the product
        # rule's sum, so each step of d^(1,...,1) differentiates one sum
        # instead of copying them into 2^n terms (267 new nodes at n = 7)
        for n in range(2, 13):
            gc.collect()
            gc.disable()
            try:
                f = parse(BENCH.fg_texts(n)[0], n)
                before = len(ex._TABLE)
                d = partial(f, (1,) * n)
                assert len(ex._TABLE) - before <= 4 * n + 8, n
            finally:
                gc.enable()
            for pt in disc_points(8, 6, n):
                z = np.array(pt)
                # exp(s)*prod(zj+2), and for n = 2 the mixed partial of sin(z1*z2)
                ref = np.exp(z.sum()) * np.prod(z + 2)
                if n == 2:
                    w = z[0] * z[1]
                    ref += np.cos(w) - w * np.sin(w)
                assert rel_err(evaluate(d, pt), ref) < 1e-12, n

    @pytest.mark.parametrize("text", ["exp(z1+z2)*z1*z2*(1/(z3-1))*(-z3)",
                                      "exp(z1+z2)*z1*z2*(z3-1)^-1*(-z3)"])
    def test_untouched_factors_keep_values_and_pole_mask(self, text):
        # z2, then z1, stays outside the sum of the step that does not touch
        # it.  1/(z3-1) and -z3 differentiate to 0/(z3-1)^2 and -0, not to the
        # 0 node, so they stay in the sum, whose zero terms keep the wider
        # pole mask of the full expansion; (z3-1)^-1 differentiates to 0 and
        # stays outside with its own pole.  The full expansion below
        # differentiates factor i in z1 and factor k in z2, for every i and k
        e = parse(text, 3)
        fs = list(e.factors)
        d1 = partial(e, (1, 0, 0))
        assert d1.factors[0] is Var(2)
        if isinstance(fs[3], Pow):
            assert d1.factors[1] is fs[3]

        def term(i, k):
            out = list(fs)
            out[i] = partial(out[i], (1, 0, 0))
            out[k] = partial(out[k], (0, 1, 0))
            return Mul(out)

        full = Add([term(i, k) for i in range(len(fs)) for k in range(len(fs))])
        pts = disc_points(9, 200, 3, radius=0.5)
        # on the pole, and where (z3-1)^2 or (z3-1)^4 is below the pole threshold
        pts[:4, 2] = [1.0, 1 + 1e-7, 1 + 1e-4, 1 + 1e-2]
        vals, ok = eval_batch(compile_expr([partial(e, (1, 1, 0)), full]), pts)
        assert np.array_equal(ok[0], ok[1])
        assert not ok[0, 0] and ok[0, 3] and ok[0, 4:].all()
        assert np.allclose(vals[0, ok[0]], vals[1, ok[0]], rtol=1e-12, atol=0)

    def test_bad_multi_index(self):
        with pytest.raises(DimensionError):
            partial(F_EX4, (1, 0))
        with pytest.raises(DimensionError):
            partial(F_EX4, (1, -1, 0))

    @settings(max_examples=40, deadline=None)
    @given(exprs(), exprs(), st.integers(1, 3))
    def test_linearity(self, u, v, j):
        a, b = 1.3 - 0.7j, -0.4 + 2.1j
        idx = tuple(1 if i == j else 0 for i in (1, 2, 3))
        combo = partial(Add((Mul((Const(a), u)), Mul((Const(b), v)))), idx)
        du, dv = partial(u, idx), partial(v, idx)
        for pt in disc_points(5, 4, 3, radius=0.7):
            vals = [eval_ok(e, pt) for e in (combo, du, dv)]
            if any(x is None for x in vals):
                continue
            assert rel_err(vals[0], a * vals[1] + b * vals[2]) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(exprs(), st.integers(1, 3), st.integers(1, 3))
    def test_mixed_partials_commute(self, e, j, k):
        idx_j = tuple(1 if i == j else 0 for i in (1, 2, 3))
        idx_k = tuple(1 if i == k else 0 for i in (1, 2, 3))
        jk = partial(partial(e, idx_j), idx_k)
        kj = partial(partial(e, idx_k), idx_j)
        for pt in disc_points(6, 4, 3, radius=0.7):
            a, b = eval_ok(jk, pt), eval_ok(kj, pt)
            if a is None or b is None:
                continue
            assert rel_err(a, b) < 1e-10


class TestDirectionalDerivative:
    def test_matches_sum_of_partials(self):
        e = parse("exp(z1*z2) + z1^3 - sin(z2)", 2)
        d = directional_derivative(e, (1, 1))
        ref = Add((partial(e, (1, 0)), partial(e, (0, 1))))
        for pt in disc_points(7, 10, 2):
            assert rel_err(evaluate(d, pt), evaluate(ref, pt)) < 1e-12

    def test_kills_difference_coordinate_structurally(self):
        e = parse("exp(3*(z2-z1)+z3)^2", 3)
        assert directional_derivative(e, (1, 1, 0)) == Const(0.0)


class TestShift:
    def test_single_variable(self):
        # folding puts the merged constant first
        assert shift(Var(1), (2 + 1j,)) == Add((Const(2 + 1j), Var(1)))

    def test_exp_periodicity_example4(self):
        e = parse("exp(z2+z3)", 3)
        s = shift(e, (0, PI * 1j, PI * 1j))
        for pt in disc_points(8, 20, 3):
            assert rel_err(evaluate(s, pt), evaluate(e, pt)) < 1e-12

    def test_zero_shift_structural_identity(self):
        assert shift(F_EX4, (0, 0, 0)) == F_EX4

    def test_composition(self):
        a = (0.5 + 0.25j, -1.0, 0.75j)
        b = (1.0j, 0.5, -0.25)
        ab = tuple(x + y for x, y in zip(a, b))
        lhs = shift(shift(F_EX4, a), b)
        rhs = shift(F_EX4, ab)
        for pt in disc_points(9, 20, 3):
            assert rel_err(evaluate(lhs, pt), evaluate(rhs, pt)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            shift(F_EX4, (1.0,))


class TestFdPartial:
    def test_square(self):
        assert abs(fd_partial(parse("z1^2", 1), 1, (1.0,)) - 2.0) < 1e-9

    def test_exp_at_zero(self):
        assert abs(fd_partial(parse("exp(z1)", 1), 1, (0.0,)) - 1.0) < 1e-9

    def test_step_validation(self):
        with pytest.raises(EvalError):
            fd_partial(Var(1), 1, (0.0,), step=0.0)

    def test_index_validation(self):
        with pytest.raises(DimensionError):
            fd_partial(Var(1), 3, (0.0,))


class TestFoldConstants:
    """The node constructors fold; so does `parse`, which builds through them."""

    def test_drop_zero_term(self):
        assert Add((Mul((Const(0.0), Var(1))), Var(2))) is Var(2)
        assert Add((Var(1), Const(0.0))) is Var(1)
        assert parse("0*z1 + z2", 2) is Var(2)

    def test_pow_one(self):
        assert Pow(Var(1), 1) is Var(1)
        assert Pow(Var(1), 0) is Const(1.0)

    def test_const_product(self):
        assert Mul((Const(2.0), Const(3.0))) is Const(6.0)
        assert parse("2*3", 1) is Const(6.0)

    def test_unit_factor_dropped(self):
        assert Mul((Const(1.0), Var(1))) is Var(1)
        assert parse("1*z1", 1) is Var(1)

    def test_idempotent(self):
        # rebuilding a node of a folded expression from its fields gives it back
        stack, seen = [F_EX1], set()
        while stack:
            e = stack.pop()
            if e in seen:
                continue
            seen.add(e)
            stack.extend(e._kids)
            fields = [getattr(e, f) for f in e.__dataclass_fields__]
            assert type(e)(*fields) is e

    def test_product_is_a_fixed_point_of_its_constructor(self):
        # the constant factor 6-0j keeps its signed zero when the product
        # is rebuilt: the fold starts from it, not from 1+0j
        e = parse("(0-2)*(0-3)*z1", 1)
        assert math.copysign(1.0, e.factors[0].value.imag) == -1.0
        assert Mul(e.factors) is e

    def test_overflowing_constant_power_left_unfolded(self):
        # 1/denormal exceeds the float range; folding must not raise
        tiny = Pow(Const(2.225073858507e-311), -1)
        assert tiny is ex._make(Pow, Const(2.225073858507e-311), -1)
        huge = Pow(Const(1e200), 3)
        assert huge is ex._make(Pow, Const(1e200), 3)
        # the intermediate square underflows to zero before the reciprocal
        underflow = Pow(Const(5.636223382533671e-202), -2)
        assert underflow is ex._make(Pow, Const(5.636223382533671e-202), -2)
        # the cube of a finite constant is NaN without an OverflowError
        nan = Pow(Const(1e200 + 1e200j), 3)
        assert nan is ex._make(Pow, Const(1e200 + 1e200j), 3)

    def test_overflowing_fold_left_unfolded(self):
        big, tiny, z1 = Const(1e300), Const(5e-324), Var(1)
        assert Mul((big, big, z1)) is ex._make(Mul, (big, big, z1))
        assert Mul((Mul((big, z1)), big)) is ex._make(Mul, (big, z1, big))
        assert Div(Const(3.0), tiny) is ex._make(Div, Const(3.0), tiny)
        assert Exp(Const(1000.0)) is ex._make(Exp, Const(1000.0))
        assert Add((Const(1.7e308), Const(1.7e308), z1)) is ex._make(
            Add, (Const(1.7e308), Const(1.7e308), z1))
        # a constant that is not finite already still folds
        inf = Const(math.inf)
        assert Add((inf, Const(1.0))) is inf
        for e in (Mul((inf, Const(2.0))), Div(inf, Const(2.0)), Exp(inf)):
            assert isinstance(e, Const) and not cmath.isfinite(e.value)

    def test_preserves_eval_on_corpus(self):
        # each folded parse against the text evaluated in Python arithmetic
        corpus = [
            ("1 - z1^2/4 + z1*exp(z2+z3) - exp(2*z2+2*z3)", F_EX4),
            (F_EX1_TEXT, F_EX1),
            ("cos(z1)^2 + sin(z1)^2 - 1/(2+z2)", parse("cos(z1)^2 + sin(z1)^2 - 1/(2+z2)", 3)),
        ]
        names = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos, "pi": PI, "i": 1j}
        pts = disc_points(10, 100, 5)
        for text, folded in corpus:
            code = compile(text.replace("^", "**"), "<corpus>", "eval")
            for pt in pts:
                env = {**names, **{f"z{j}": complex(x) for j, x in enumerate(pt, start=1)}}
                assert rel_err(evaluate(folded, pt), eval(code, env)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(recipes())
    def test_preserves_eval_random(self, recipe):
        raw, folded = build(recipe, raw=True), build(recipe)
        for pt in disc_points(11, 4, 3, radius=0.8):
            a, b = eval_ok(raw, pt), eval_ok(folded, pt)
            if a is None or b is None:
                continue
            assert rel_err(b, a) < 1e-12
