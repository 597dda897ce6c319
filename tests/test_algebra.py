"""Expression trees: lifting, pointwise arithmetic, composition, laziness."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcalg import (
    Apply,
    Arg,
    ArithOp,
    Arity,
    ArityMismatchError,
    BinOp,
    Const,
    Def,
    Leaf,
    Neg,
    POLYMORPHIC,
    Quaternion,
    Scalar,
    apply,
    apply_expr,
    arity_of,
    builtin,
    combine,
    const_expr,
    evaluate,
    evaluate_constant,
    lift_function,
    negate,
    params,
    same_value,
    value_binop,
)

import treegen

ADD, SUB, MUL, DIV = ArithOp.ADD, ArithOp.SUB, ArithOp.MUL, ArithOp.DIV


def _sq():
    x, = params(1)
    return x * x


def _recip_one_minus():
    x, = params(1)
    return 1 / (1 - x)


def test_lift_and_evaluate():
    f = lift_function("f", 1, lambda x: value_binop(MUL, x, x))
    assert evaluate(f, (Scalar(3.0),)) == Scalar(9.0)
    g = _recip_one_minus()
    assert evaluate(g, (Scalar(1.0),)) == Scalar(math.inf)


def test_lift_trivariate():
    x, y, z = params(3)
    f = x + x * y - x / z
    want = 1.2 + 1.2 * 1.7 - 1.2 / 4.3  # = 2.9609302325581397
    assert evaluate(f, (Scalar(1.2), Scalar(1.7), Scalar(4.3))) == Scalar(want)


def test_const_ignores_arguments():
    four = const_expr(Scalar(4.0))
    assert arity_of(four) is POLYMORPHIC
    assert evaluate(four, (Scalar(99.0),)) == Scalar(4.0)
    assert evaluate(four, (Scalar(1.0), Scalar(2.0))) == Scalar(4.0)


def test_const_times_function():
    g = _recip_one_minus()
    tree = combine(MUL, const_expr(Scalar(4.0)), g)
    assert evaluate(tree, (Scalar(2.0),)) == Scalar(-4.0)  # 4 * (1/(1-2))


def test_combine_golden_sum():
    f, g = _sq(), _recip_one_minus()
    assert evaluate(combine(ADD, f, g), (Scalar(2.0),)) == Scalar(3.0)


def test_combine_full_trivariate_expression():
    x, y, z = params(3)
    f = x + x * y - x / z
    g = x**2 - z
    tree = (f + g) * (f + 4 - 2 * f * g)
    got = evaluate(tree, (Scalar(1.2), Scalar(1.7), Scalar(4.3))).x
    fv = 1.2 + 1.2 * 1.7 - 1.2 / 4.3
    gv = 1.2**2 - 4.3
    assert got == (fv + gv) * (fv + 4 - 2 * fv * gv)
    assert math.isclose(got, 2.411975, rel_tol=1e-6)


def test_combine_arity_mismatch():
    f1 = _sq()
    h2 = lift_function("h", 2, lambda a, b: value_binop(ADD, a, b))
    with pytest.raises(ArityMismatchError):
        combine(ADD, f1, h2)


def test_negate():
    f = _sq()
    assert negate(const_expr(Scalar(3.0))) == const_expr(Scalar(-3.0))  # const folds
    assert evaluate(negate(f), (Scalar(2.0),)) == Scalar(-4.0)
    assert isinstance(negate(f), Neg)
    assert arity_of(negate(f)) == arity_of(f)
    rng = random.Random(3)
    for _ in range(50):
        v = Scalar(rng.uniform(-5, 5))
        assert evaluate(negate(negate(f)), (v,)) == evaluate(f, (v,))


def test_arity_of():
    assert arity_of(const_expr(Scalar(4.0))) is POLYMORPHIC
    sin_plus_log = combine(ADD, builtin("sin"), builtin("log"))
    assert arity_of(sin_plus_log).n == 1
    x, y = params(2)
    j = x + y
    composed = apply(j, [sin_plus_log, combine(ADD, builtin("cos"), builtin("exp"))])
    assert arity_of(composed).n == 1
    all_const = apply(j, [const_expr(Scalar(1.0)), const_expr(Scalar(2.0))])
    assert arity_of(all_const) is POLYMORPHIC


def test_nested_argument_trees():
    x, y, z = params(3)
    f = x + x * y - x / z
    g = x**2 - z
    xv, yv, zv = 1.2, 1.7, 4.3
    inner = (f - g)(Scalar(xv), Scalar(xv), Scalar(yv))
    got = (f + g)(Scalar(xv + zv), Scalar(yv + zv), inner)

    def fo(a, b, c):
        return a + a * b - a / c

    def go(a, b, c):
        return a**2 - c

    io = fo(xv, xv, yv) - go(xv, xv, yv)
    want = fo(xv + zv, yv + zv, io) + go(xv + zv, yv + zv, io)
    assert got == Scalar(want)
    assert math.isclose(got.x, 64.04918, rel_tol=1e-6)


def test_builtin_composition_example():
    x, = params(1)
    fun = x * x + 2
    sin = builtin("sin")
    tree = fun(sin) + sin(fun) - 3 * sin * fun
    got = evaluate(tree, (Scalar(0.32),)).x
    want = (math.sin(0.32) ** 2 + 2) + math.sin(0.32**2 + 2) - 3 * math.sin(0.32) * (0.32**2 + 2)
    assert got == want
    assert math.isclose(got, 0.9769132, rel_tol=1e-6)


def test_quaternion_evaluation():
    x, y = params(2)
    f = x + x * y
    g = x**2 + y
    got = (f + g - f * g)(Quaternion(1, 0, 1, 0), Quaternion(0, 0, 0, 1))
    assert got == Quaternion(4.0, 2.0, 2.0, -1.0)


def test_apply_dispatches_on_argument_kind():
    x, = params(1)
    fun = x * x + 2
    # all values -> evaluated result
    assert isinstance(fun(Scalar(3.0)), Scalar)
    assert fun(3) == Scalar(11.0)
    # any function argument -> composition node
    composed = fun(builtin("sin"))
    assert isinstance(composed, Apply)
    assert composed(0.32) == Scalar(math.sin(0.32) ** 2 + 2)
    # values among function arguments are promoted to constants
    y2, z2 = params(2)
    mixed = (y2 + z2)(builtin("sin"), 2)
    assert isinstance(mixed.args[1], Const)
    assert mixed(0.5) == Scalar(math.sin(0.5) + 2.0)


def test_apply_chain():
    x, y = params(2)
    sin, log, cos, exp, tan = (builtin(n) for n in ("sin", "log", "cos", "exp", "tan"))
    j = cos(x) + sin(x - y)
    k = tan(x) + log(x + y)
    l = sin(x / 2) + x**2
    chain = (j + k + l)(sin + log, cos + exp)(sin + tan)
    got = chain(0.4).x

    def A(p, q):
        return (
            (math.cos(p) + math.sin(p - q))
            + (math.tan(p) + math.log(p + q))
            + (math.sin(p / 2) + p**2)
        )

    d = math.sin(0.4) + math.tan(0.4)
    want = A(math.sin(d) + math.log(d), math.cos(d) + math.exp(d))
    assert got == want
    assert math.isclose(got, 2.545235, rel_tol=1e-6)


def test_apply_arity_errors():
    x, y = params(2)
    f = x + y
    with pytest.raises(ArityMismatchError):
        f(Scalar(1.0))
    with pytest.raises(ArityMismatchError):
        f()
    with pytest.raises(ArityMismatchError):
        # function arguments of different fixed arity cannot share a call
        f(builtin("sin"), x + y)


def _check_substitution(callee, args, ys):
    composed = apply(callee, args)
    try:
        direct = evaluate(callee, tuple(evaluate(a, ys) for a in args))
    except Exception as err:
        with pytest.raises(type(err)):
            evaluate(composed, ys)
        return
    assert same_value(evaluate(composed, ys), direct)


def _check_homomorphism(op, e1, e2, args):
    try:
        want = value_binop(op, evaluate(e1, args), evaluate(e2, args))
    except Exception as err:
        with pytest.raises(type(err)):
            evaluate(combine(op, e1, e2), args)
        return
    assert same_value(evaluate(combine(op, e1, e2), args), want)


def test_substitution_law():
    rng = random.Random(77)
    for _ in range(200):
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        callee = treegen.gen_tree(rng, m, 3, vec_len=2)
        args = [treegen.gen_tree(rng, k, 2, vec_len=2) for _ in range(m)]
        _check_substitution(callee, args, treegen.gen_args(rng, k, vec_len=2))


def test_homomorphism():
    rng = random.Random(88)
    for _ in range(500):
        n = rng.randint(1, 3)
        op = rng.choice(list(ArithOp))
        e1 = treegen.gen_tree(rng, n, 3, vec_len=3)
        e2 = treegen.gen_tree(rng, n, 3, vec_len=3)
        _check_homomorphism(op, e1, e2, treegen.gen_args(rng, n, vec_len=3))


# the same laws at complex and quaternion points
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_substitution_law_over_the_tower(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    k = rng.randint(1, 3)
    callee = treegen.gen_tower_tree(rng, m, 3)
    args = [treegen.gen_tower_tree(rng, k, 2) for _ in range(m)]
    _check_substitution(callee, args, treegen.gen_tower_args(rng, k))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_homomorphism_over_the_tower(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    op = rng.choice(list(ArithOp))
    e1 = treegen.gen_tower_tree(rng, n, 3)
    e2 = treegen.gen_tower_tree(rng, n, 3)
    _check_homomorphism(op, e1, e2, treegen.gen_tower_args(rng, n))


def test_deep_trees_evaluate_at_the_default_recursion_limit():
    # a one-argument composition costs one frame per level, as `+` does;
    # a call with more arguments adds its comprehension's frame
    x, = params(1)
    u, v = params(2)
    chain, flat, pair = x, x, x
    want = 0.5
    for _ in range(700):
        chain = apply_expr(builtin("sin"), [chain])
        want = math.sin(want)
    for _ in range(900):
        flat = flat + 1
    for _ in range(400):
        pair = apply_expr(u + v, [pair, x])
    at = (Scalar(0.5),)
    assert evaluate(chain, at) == Scalar(want)
    assert evaluate(flat, at) == Scalar(900.5)
    assert evaluate(pair, at) == Scalar(200.5)


class _CountingLeaf:
    def __init__(self):
        self.calls = 0
        self.seen_args = []

    def body(self, *vals):
        self.calls += 1
        self.seen_args.append(vals)
        return vals[0]


def test_laziness_construction_never_calls_bodies():
    counter = _CountingLeaf()
    leaf = lift_function("counted", 1, counter.body)
    trees = [leaf] * 64
    while len(trees) > 1:
        trees = [combine(ADD, a, b) for a, b in zip(trees[::2], trees[1::2])]
    tree = negate(apply(trees[0], [leaf]))
    assert counter.calls == 0
    evaluate(tree, (Scalar(2.0),))
    # 64 occurrences inside the sum, one as the composition argument
    assert counter.calls == 65


def test_operands_receive_the_identical_argument_list():
    counter = _CountingLeaf()
    leaf = lift_function("counted", 1, counter.body)
    tree = combine(MUL, combine(ADD, leaf, leaf), leaf)
    args = (Scalar(1.5),)
    evaluate(tree, args)
    assert counter.seen_args == [args, args, args]
    # calling conventions repack the tuple, but every operand saw the very
    # same argument objects
    assert all(seen[0] is args[0] for seen in counter.seen_args)


def test_evaluation_is_repeatable():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 3)
        tree = treegen.gen_tree(rng, n, 4, vec_len=2)
        args = treegen.gen_args(rng, n, vec_len=2)
        try:
            first = evaluate(tree, args)
        except Exception:
            continue
        assert same_value(first, evaluate(tree, args))


def test_evaluate_checks_arity():
    x, y = params(2)
    with pytest.raises(ArityMismatchError):
        evaluate(x + y, (Scalar(1.0),))
    with pytest.raises(ArityMismatchError):
        evaluate(x + y, ())
    with pytest.raises(ArityMismatchError):
        evaluate_constant(x + y)


def test_operator_sugar_coercions():
    x, = params(1)
    assert (4 * x)(2) == Scalar(8.0)
    assert (x / 2)(5) == Scalar(2.5)
    assert (2 / x)(4) == Scalar(0.5)
    assert (2 - x)(1) == Scalar(1.0)
    assert (2 ** x)(3) == Scalar(8.0)
    assert (-x)(3) == Scalar(-3.0)
    got = (x + 1j)(1)
    assert got.re == 1.0 and got.im == 1.0
    with pytest.raises(TypeError):
        x + "nope"


def test_leaf_requires_fixed_arity():
    with pytest.raises(ValueError):
        Leaf("bad", POLYMORPHIC, lambda *v: v[0])
    with pytest.raises(ValueError):
        lift_function("bad", 0, lambda: Scalar(1.0))


def test_parameters_and_definitions_check_their_arity():
    for i, arity in ((2, Arity(2)), (-1, Arity(2)), (0, POLYMORPHIC)):
        with pytest.raises(ValueError):
            Arg(i, arity, "bad")
    x, y = params(2)
    assert Def("c", Arity(1), Const(Scalar(3.0))).arity == Arity(1)
    with pytest.raises(ArityMismatchError):
        Def("f", Arity(1), x * y)


def test_trees_are_immutable():
    x, = params(1)
    tree = x + 1
    with pytest.raises(AttributeError):
        tree.op = ArithOp.SUB


def test_lift_function_rejects_a_float_arity():
    with pytest.raises(TypeError):
        lift_function("f", 2.9, lambda x, y: x)  # not truncated to a 2-argument leaf


def test_lift_function_rejects_a_str_or_bool_arity():
    for arity in ("1", True):
        with pytest.raises(TypeError):
            lift_function("g", arity, lambda x: x)


def test_arity_is_an_int_or_none():
    for n in (2.5, True, False, "2"):
        with pytest.raises(TypeError):
            Arity(n)
    assert Arity(2).n == 2 and Arity(None) == POLYMORPHIC


def test_a_number_on_the_left_of_an_operator_is_a_constant():
    x, = params(1)
    assert 3 + x == BinOp(ADD, Const(Scalar(3.0)), x)


def test_a_boolean_operand_is_not_a_value():
    x, = params(1)
    with pytest.raises(TypeError, match="booleans are not values"):
        x + True
