"""Numeric tower: IEEE conformance, promotion, Hamilton products, rendering.

numpy float64 serves as the independent IEEE-754 oracle for the scalar
division/power wrappers, and a 4x4 matrix representation cross-checks the
Hamilton product.
"""

import cmath
import dataclasses
import math
import random

import numpy as np
import pytest

from funcalg import (
    ArithOp,
    Complex,
    KindMismatchError,
    LengthMismatchError,
    Quaternion,
    Scalar,
    UnknownPrimitiveError,
    UnsupportedKindError,
    UnsupportedPowError,
    Vector,
    apply_builtin,
    format_value,
    same_value,
    value_binop,
    value_neg,
)

ADD, SUB, MUL, DIV, POW = (
    ArithOp.ADD,
    ArithOp.SUB,
    ArithOp.MUL,
    ArithOp.DIV,
    ArithOp.POW,
)

_EDGE_REALS = [
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 3.0, -3.0, 8.0, -8.0,
    1 / 3, -1 / 3, 401.0, -401.0, 1e300, -1e300, 1e-300, -1e-300,
    math.inf, -math.inf, math.nan,
]


def _bits_equal(x: float, y: float) -> bool:
    if math.isnan(x) and math.isnan(y):
        return True  # NaN payloads may differ
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def test_scalar_ops_bit_for_bit_against_numpy():
    # +, -, *, / are correctly rounded under IEEE-754, so the two
    # implementations must agree on every bit, non-finite payloads included.
    rng = random.Random(101)
    pairs = [(a, b) for a in _EDGE_REALS for b in _EDGE_REALS]
    pairs += [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(500)]
    np_ops = {ADD: np.add, SUB: np.subtract, MUL: np.multiply, DIV: np.divide}
    for a, b in pairs:
        for op, np_op in np_ops.items():
            got = value_binop(op, Scalar(a), Scalar(b)).x
            with np.errstate(all="ignore"):
                want = float(np_op(np.float64(a), np.float64(b)))
            assert _bits_equal(got, want), f"{a!r} {op.value} {b!r}: {got!r} != {want!r}"


def test_scalar_pow_against_oracles():
    # IEEE leaves pow's rounding to the libm, so numpy (its own kernel) and
    # CPython may differ in the last ulp on ordinary finite inputs.  The
    # special-value behaviour is pinned down, though: wherever CPython's
    # float pow raises or goes complex, the wrapper must restore the answer
    # numpy float64 gives bit-for-bit.  Elsewhere it must equal host pow.
    pairs = [(a, b) for a in _EDGE_REALS for b in _EDGE_REALS]
    for a, b in pairs:
        got = value_binop(POW, Scalar(a), Scalar(b)).x
        try:
            host = a**b
        except (OverflowError, ZeroDivisionError):
            host = None
        if host is None or isinstance(host, complex):
            with np.errstate(all="ignore"):
                want = float(np.power(np.float64(a), np.float64(b)))
            assert _bits_equal(got, want), f"{a!r} ^ {b!r}: {got!r} != {want!r}"
        else:
            assert _bits_equal(got, host), f"{a!r} ^ {b!r}: {got!r} != {host!r}"


def test_division_by_zero_produces_inf_and_nan():
    inf = value_binop(DIV, Scalar(1.0), Scalar(0.0))
    assert inf == Scalar(math.inf)
    assert value_binop(DIV, Scalar(-1.0), Scalar(0.0)) == Scalar(-math.inf)
    assert math.isnan(value_binop(DIV, Scalar(0.0), Scalar(0.0)).x)
    # Inf - Inf -> NaN, the pattern behind (f + 4*g - f*g) at x=1
    assert math.isnan(value_binop(SUB, inf, inf).x)


def test_scalar_pow_conventions():
    assert math.isnan(value_binop(POW, Scalar(-8.0), Scalar(0.5)).x)
    assert value_binop(POW, Scalar(-8.0), Scalar(2.0)) == Scalar(64.0)
    assert value_binop(POW, Scalar(10.0), Scalar(400.0)) == Scalar(math.inf)
    assert value_binop(POW, Scalar(-10.0), Scalar(401.0)) == Scalar(-math.inf)
    assert value_binop(POW, Scalar(0.0), Scalar(-2.0)) == Scalar(math.inf)
    assert value_binop(POW, Scalar(0.0), Scalar(0.0)) == Scalar(1.0)


def test_broadcast_law():
    rng = random.Random(7)
    for _ in range(300):
        s = rng.uniform(-5, 5)
        xs = tuple(rng.uniform(-5, 5) for _ in range(rng.randint(1, 6)))
        op = rng.choice(list(ArithOp))
        left = value_binop(op, Scalar(s), Vector(xs))
        right = value_binop(op, Vector(xs), Scalar(s))
        for i, x in enumerate(xs):
            assert _bits_equal(left.xs[i], value_binop(op, Scalar(s), Scalar(x)).x)
            assert _bits_equal(right.xs[i], value_binop(op, Scalar(x), Scalar(s)).x)


def test_vector_elementwise_and_length_preserved():
    got = value_binop(ADD, Vector((1.0, 2.0, 3.0)), Vector((10.0, 20.0, 30.0)))
    assert got == Vector((11.0, 22.0, 33.0))
    assert len(got.xs) == 3


def test_vector_length_mismatch():
    with pytest.raises(LengthMismatchError):
        value_binop(ADD, Vector((1.0, 2.0)), Vector((1.0, 2.0, 3.0)))


def test_vector_never_mixes_with_complex_or_quaternion():
    for other in (Complex(1, 2), Quaternion(1, 0, 0, 0)):
        with pytest.raises(KindMismatchError):
            value_binop(ADD, Vector((1.0,)), other)
        with pytest.raises(KindMismatchError):
            value_binop(MUL, other, Vector((1.0, 2.0)))


def test_vector_needs_an_element():
    with pytest.raises(ValueError):
        Vector(())


def test_kernel_results_equal_public_construction():
    # results built without re-coercion must be indistinguishable from
    # values built through the public constructors
    s2, s3 = Scalar(2), Scalar(3)
    v = Vector((1.0, 2.0, 3.0))
    cases = [
        (value_binop(POW, s2, s3), Scalar(8)),
        (value_binop(ADD, s2, s3), Scalar(5)),
        (value_binop(DIV, s3, Scalar(0)), Scalar(math.inf)),
        (value_binop(ADD, v, v), Vector((2, 4, 6))),
        (value_binop(MUL, v, s2), Vector((2, 4, 6))),
        (value_binop(SUB, s3, v), Vector((2, 1, 0))),
        (value_binop(POW, v, s2), Vector((1, 4, 9))),
        (value_neg(s3), Scalar(-3)),
        (value_neg(v), Vector((-1, -2, -3))),
        (apply_builtin("floor", Scalar(2.7)), Scalar(2)),
        (apply_builtin("abs", Scalar(-4)), Scalar(4)),
        (apply_builtin("floor", Vector((1.5, -0.5))), Vector((1, -1))),
        (apply_builtin("cumsum", v), Vector((1, 3, 6))),
        (apply_builtin("cumprod", v), Vector((1, 2, 6))),
    ]
    for got, want in cases:
        assert type(got) is type(want)
        payload = (got.x,) if isinstance(got, Scalar) else got.xs
        assert type(payload) is tuple and payload
        assert all(type(c) is float for c in payload), got
        assert got == want and hash(got) == hash(want)
        assert same_value(got, want)


def _components(v):
    return tuple(getattr(v, f.name) for f in dataclasses.fields(v))


def test_tower_results_equal_public_construction():
    # complex and quaternion results built without re-coercion must be
    # indistinguishable from values built through the public constructors
    s, c, c2 = Scalar(2), Complex(1, -2), Complex(0.5, 3)
    q, q2 = Quaternion(1, 2, -3, 0.5), Quaternion(-2, 0, 1, 4)
    zero = Complex(0, 0)
    got = [value_binop(op, a, b) for op in ArithOp for a, b in ((s, c), (c, s), (c, c2))]
    got += [
        value_binop(op, a, b)
        for op in (ADD, SUB, MUL, DIV)
        for a, b in ((s, q), (c, q), (q, s), (q, c), (q, q2))
    ]
    got += [value_binop(POW, q, Scalar(n)) for n in (0, 1, 5)]
    got += [value_neg(c), value_neg(q)]
    got += [apply_builtin(name, c) for name in ("exp", "log", "sqrt", "sin", "cos")]
    got += [apply_builtin("abs", q)]
    cases = [(v, type(v)(*_components(v))) for v in got]
    cases += [
        (value_binop(POW, zero, zero), Complex(1, 0)),
        (value_binop(POW, zero, Scalar(2)), Complex(0, 0)),
        (value_binop(POW, zero, Complex(-1, 0)), Complex(math.nan, math.nan)),
        (value_binop(POW, q, Scalar(0)), Quaternion(1, 0, 0, 0)),
        (value_binop(POW, q, Scalar(1)), q),
        (value_binop(ADD, s, c), Complex(3, -2)),
        (value_binop(MUL, s, q), Quaternion(2, 4, -6, 1)),
        (value_neg(c), Complex(-1, 2)),
        (value_neg(q), Quaternion(-1, -2, 3, -0.5)),
        (apply_builtin("abs", Quaternion(1, 2, 2, 4)), Scalar(5)),
    ]
    for got, want in cases:
        assert type(got) is type(want)
        assert all(type(x) is float for x in _components(got)), got
        assert same_value(got, want)
        if not any(math.isnan(x) for x in _components(got)):
            assert got == want and hash(got) == hash(want)


def test_unknown_builtin_is_a_funcalg_error():
    for v in (Scalar(1), Vector((1.0, 2.0)), Complex(1, 1), Quaternion(1, 0, 0, 0)):
        with pytest.raises(UnknownPrimitiveError, match="^unknown primitive 'nope'$"):
            apply_builtin("nope", v)


def test_values_are_frozen_and_coerce_their_fields():
    built = [
        (Scalar(1), "x"),
        (Vector((1, 2)), "xs"),
        (Complex(1, 2), "re"),
        (Quaternion(1, 2, 3, 4), "w"),
        (value_binop(ADD, Scalar(1), Scalar(2)), "x"),
        (value_neg(Vector((1.0,))), "xs"),
    ]
    for value, name in built:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0.0)
    one = Scalar(1).x
    assert type(one) is float and one == 1.0
    assert Vector((1, 2)).xs == (1.0, 2.0)
    assert all(type(c) is float for c in Vector((1, 2)).xs)
    q = Quaternion(1, 2, 3, 4)
    assert all(type(c) is float for c in (q.w, q.x, q.y, q.z))


# ---------------------------------------------------------------------------
# Quaternions.

QI = Quaternion(0, 1, 0, 0)
QJ = Quaternion(0, 0, 1, 0)
QK = Quaternion(0, 0, 0, 1)
QONE = Quaternion(1, 0, 0, 0)


def _q(v):
    return Quaternion(*v)


def test_hamilton_unit_table():
    minus = lambda q: value_neg(q)
    table = {
        (QI, QI): minus(QONE), (QJ, QJ): minus(QONE), (QK, QK): minus(QONE),
        (QI, QJ): QK, (QJ, QK): QI, (QK, QI): QJ,
        (QJ, QI): minus(QK), (QK, QJ): minus(QI), (QI, QK): minus(QJ),
    }
    for (a, b), want in table.items():
        assert value_binop(MUL, a, b) == want


def _as_matrix(q: Quaternion) -> np.ndarray:
    # left-multiplication matrix: mat(a) @ vec(b) == vec(a * b)
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def test_hamilton_product_against_matrix_representation():
    rng = random.Random(23)
    cases = [
        (Quaternion(1, 1, 1, 1), Quaternion(0, 0, 2, 1)),
    ]
    for _ in range(200):
        cases.append(
            (
                _q([rng.uniform(-3, 3) for _ in range(4)]),
                _q([rng.uniform(-3, 3) for _ in range(4)]),
            )
        )
    for a, b in cases:
        got = value_binop(MUL, a, b)
        want = _as_matrix(a) @ np.array([b.w, b.x, b.y, b.z])
        assert np.allclose([got.w, got.x, got.y, got.z], want, rtol=1e-12, atol=1e-12)


def test_hamilton_worked_example():
    # expand (1+i+j+k)(2j+k) by hand: -3 - i + j + 3k
    got = value_binop(MUL, Quaternion(1, 1, 1, 1), Quaternion(0, 0, 2, 1))
    assert got == Quaternion(-3, -1, 1, 3)


def test_quaternion_division_inverts_multiplication():
    rng = random.Random(31)
    for _ in range(100):
        a = _q([rng.uniform(-3, 3) for _ in range(4)])
        b = _q([rng.uniform(1, 3) for _ in range(4)])
        prod = value_binop(MUL, a, b)
        back = value_binop(DIV, prod, b)
        assert np.allclose([back.w, back.x, back.y, back.z], [a.w, a.x, a.y, a.z])


def test_quaternion_pow_is_repeated_product():
    q = Quaternion(1.0, 0.0, 1.0, 0.0)
    assert value_binop(POW, q, Scalar(0.0)) == QONE
    assert value_binop(POW, q, Scalar(1.0)) == q
    assert value_binop(POW, q, Scalar(2.0)) == value_binop(MUL, q, q)
    assert value_binop(POW, q, Scalar(3.0)) == value_binop(
        MUL, value_binop(MUL, q, q), q
    )


def test_quaternion_pow_rejects_everything_else():
    q = Quaternion(1, 2, 3, 4)
    for bad in (Scalar(0.5), Scalar(-1.0), Scalar(math.nan), Complex(2, 0)):
        with pytest.raises(UnsupportedPowError):
            value_binop(POW, q, bad)
    with pytest.raises(UnsupportedPowError):
        value_binop(POW, Scalar(2.0), q)


def test_promotion_coherence():
    rng = random.Random(47)
    for _ in range(200):
        s = rng.uniform(-3, 3)
        c = Complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        q = _q([rng.uniform(-3, 3) for _ in range(4)])
        op = rng.choice([ADD, SUB, MUL, DIV])
        assert same_value(
            value_binop(op, Scalar(s), c), value_binop(op, Complex(s, 0.0), c)
        )
        assert same_value(
            value_binop(op, c, q),
            value_binop(op, Quaternion(c.re, c.im, 0.0, 0.0), q),
        )
        assert same_value(
            value_binop(op, Scalar(s), q),
            value_binop(op, Quaternion(s, 0.0, 0.0, 0.0), q),
        )


def test_complex_arithmetic_matches_host_complex():
    rng = random.Random(53)
    for _ in range(200):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(1, 3), rng.uniform(-3, 3))
        for op, host in ((ADD, a + b), (SUB, a - b), (MUL, a * b), (DIV, a / b)):
            got = value_binop(op, Complex(a.real, a.imag), Complex(b.real, b.imag))
            assert math.isclose(got.re, host.real, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(got.im, host.imag, rel_tol=1e-12, abs_tol=1e-12)


def test_complex_pow_principal_branch():
    a, b = complex(1.5, -0.5), complex(0.75, 0.25)
    got = value_binop(POW, Complex(a.real, a.imag), Complex(b.real, b.imag))
    want = cmath.exp(b * cmath.log(a))
    assert math.isclose(got.re, want.real, rel_tol=1e-12)
    assert math.isclose(got.im, want.imag, rel_tol=1e-12)


def test_value_neg():
    assert value_neg(Scalar(3.0)) == Scalar(-3.0)
    assert value_neg(Vector((1.0, 2.0))) == Vector((-1.0, -2.0))
    assert value_neg(Complex(1.0, -2.0)) == Complex(-1.0, 2.0)
    assert value_neg(Quaternion(4, 2, 2, -1)) == Quaternion(-4, -2, -2, 1)


# ---------------------------------------------------------------------------
# Builtin kernels.

def test_scalar_kernels_match_math_library():
    samples = [-2.5, -1.0, -0.3, 0.0, 0.32, 0.5, 1.0, 2.0, 5.5]
    host = {
        "sin": math.sin, "cos": math.cos, "tan": math.tan, "atan": math.atan,
        "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh, "exp": math.exp,
        "abs": abs,
    }
    for name, fn in host.items():
        for x in samples:
            assert apply_builtin(name, Scalar(x)) == Scalar(fn(x))
    assert apply_builtin("sin", Scalar(0.0)) == Scalar(0.0)
    assert apply_builtin("sin", Scalar(0.32)) == Scalar(math.sin(0.32))
    assert apply_builtin("floor", Scalar(2.7)) == Scalar(2.0)
    assert apply_builtin("ceiling", Scalar(2.2)) == Scalar(3.0)
    assert apply_builtin("log", Scalar(2.0)) == Scalar(math.log(2.0))
    assert apply_builtin("sqrt", Scalar(2.0)) == Scalar(math.sqrt(2.0))
    assert apply_builtin("asin", Scalar(0.5)) == Scalar(math.asin(0.5))
    assert apply_builtin("acos", Scalar(0.5)) == Scalar(math.acos(0.5))


def test_scalar_kernel_domain_edges():
    assert math.isnan(apply_builtin("log", Scalar(-1.0)).x)
    assert apply_builtin("log", Scalar(0.0)) == Scalar(-math.inf)
    assert apply_builtin("log", Scalar(math.inf)) == Scalar(math.inf)
    assert math.isnan(apply_builtin("sqrt", Scalar(-4.0)).x)
    assert math.isnan(apply_builtin("asin", Scalar(2.0)).x)
    assert apply_builtin("exp", Scalar(1000.0)) == Scalar(math.inf)
    assert apply_builtin("sinh", Scalar(-1000.0)) == Scalar(-math.inf)
    assert apply_builtin("cosh", Scalar(-1000.0)) == Scalar(math.inf)
    assert apply_builtin("floor", Scalar(math.inf)) == Scalar(math.inf)
    assert math.isnan(apply_builtin("ceiling", Scalar(math.nan)).x)


def test_prefix_scans():
    assert apply_builtin("cumsum", Vector((1.0, 2.0, 3.0))) == Vector((1.0, 3.0, 6.0))
    assert apply_builtin("cumprod", Vector((1.0, 2.0, 3.0, 4.0))) == Vector(
        (1.0, 2.0, 6.0, 24.0)
    )


def test_vector_kernels_are_elementwise():
    xs = (0.1, 0.2, 0.3)
    got = apply_builtin("sin", Vector(xs))
    assert got == Vector(tuple(math.sin(x) for x in xs))


def test_complex_kernels_match_cmath():
    zs = [complex(0.5, 0.25), complex(-1.5, 2.0), complex(2.0, -0.75)]
    host = {
        "exp": cmath.exp, "log": cmath.log, "sqrt": cmath.sqrt,
        "sin": cmath.sin, "cos": cmath.cos,
    }
    for name, fn in host.items():
        for z in zs:
            got = apply_builtin(name, Complex(z.real, z.imag))
            want = fn(z)
            assert math.isclose(got.re, want.real, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(got.im, want.imag, rel_tol=1e-12, abs_tol=1e-12)


def test_quaternion_abs_is_the_norm():
    got = apply_builtin("abs", Quaternion(1.0, 2.0, 2.0, 4.0))
    assert got == Scalar(5.0)


def test_unsupported_kinds():
    with pytest.raises(UnsupportedKindError):
        apply_builtin("sin", Quaternion(1, 0, 0, 0))
    with pytest.raises(UnsupportedKindError):
        apply_builtin("cumsum", Scalar(1.0))
    with pytest.raises(UnsupportedKindError):
        apply_builtin("cumprod", Complex(1, 1))
    with pytest.raises(UnsupportedKindError):
        apply_builtin("abs", Complex(3, 4))
    with pytest.raises(UnsupportedKindError):
        apply_builtin("tan", Complex(1, 1))


# ---------------------------------------------------------------------------
# Rendering.

def test_format_scalar():
    assert format_value(Scalar(2.4119753034072535)) == "2.411975"
    assert format_value(Scalar(math.inf)) == "Inf"
    assert format_value(Scalar(-math.inf)) == "-Inf"
    assert format_value(Scalar(math.nan)) == "NaN"
    assert format_value(Scalar(1.0)) == "1"
    assert format_value(Scalar(8.5)) == "8.5"
    assert format_value(Scalar(1.0), digits=3) == "1"
    assert format_value(Scalar(2.4119753034072535), digits=3) == "2.41"


def test_format_vector():
    v = Vector((math.inf, 3.0, 8.5, 15.666666666666666))
    assert format_value(v) == "[Inf 3 8.5 15.66667]"


def test_format_complex_and_quaternion():
    assert format_value(Complex(1.0, 2.0)) == "1+2i"
    assert format_value(Complex(1.0, -2.0)) == "1-2i"
    assert format_value(Complex(0.0, 1.0)) == "0+1i"
    assert format_value(Quaternion(4, 2, 2, -1)) == "4+2i+2j-1k"
    assert format_value(Quaternion(-1, 0, 0.5, 0)) == "-1+0i+0.5j+0k"


def test_format_rejects_bad_digits():
    with pytest.raises(ValueError):
        format_value(Scalar(1.0), digits=0)


def test_format_17_digits_round_trips_doubles():
    rng = random.Random(61)
    for _ in range(500):
        x = rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-12, 12)
        assert float(format_value(Scalar(x), digits=17)) == x


def test_same_value_nan_class():
    assert same_value(Scalar(math.nan), Scalar(math.nan))
    assert not same_value(Scalar(math.nan), Scalar(1.0))
    assert same_value(Vector((math.nan, 1.0)), Vector((math.nan, 1.0)))
    assert not same_value(Scalar(1.0), Vector((1.0,)))
    assert same_value(
        Quaternion(math.nan, 0, 0, 0), Quaternion(math.nan, 0, 0, 0)
    )
    assert not same_value(Vector((1.0, 2.0)), Vector((1.0,)))
