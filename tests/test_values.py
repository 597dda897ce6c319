"""Numeric tower: IEEE conformance, promotion, Hamilton products, rendering.

numpy float64 serves as the independent IEEE-754 oracle for the scalar
division/power wrappers, and a 4x4 matrix representation cross-checks the
Hamilton product.
"""

import cmath
import collections
import dataclasses
import itertools
import math
import operator
import random
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import funcalg.values
from funcalg import (
    PRIMITIVES,
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


def _pow_reference(a: float, b: float) -> float:
    """IEEE 754 pow from host `**`, the domain checked before overflow."""
    if a < 0 and math.isfinite(a) and math.isfinite(b) and not b.is_integer():
        return math.nan  # invalid operation, even where |a|^b overflows
    odd = math.isfinite(b) and b.is_integer() and int(b) % 2 == 1
    try:
        return a**b
    except ZeroDivisionError:  # 0 ** negative
        return -math.inf if odd and math.copysign(1.0, a) < 0 else math.inf
    except OverflowError:
        return -math.inf if odd and a < 0 else math.inf


def test_pow_equals_a_reference_that_checks_the_domain_before_overflow():
    grid = [0.0, -0.0, 1e308, -1e308, 1e-308, -1e-308, 5e-324, -5e-324,
            math.inf, -math.inf, math.nan, 0.5, -0.5, 2.5, -2.5, 7.5, -7.5]
    grid += [float(s * k) for s in (1, -1) for k in range(1020, 1029)]
    rng = random.Random(2019)
    pairs = [(a, b) for a in grid for b in grid]
    for _ in range(4000):
        a = rng.choice((rng.uniform(-1e3, 1e3), -(10 ** rng.uniform(-308, 308)), rng.choice(grid)))
        b = rng.choice((rng.uniform(-400, 400), float(rng.randint(-1100, 1100)), rng.choice(grid)))
        pairs.append((a, b))
    bases, exponents = zip(*pairs)
    vector = value_binop(POW, Vector(bases), Vector(exponents)).xs
    invalid_overflows = 0
    for a, b, v in zip(bases, exponents, vector):
        want = _pow_reference(a, b)
        for got in (value_binop(POW, Scalar(a), Scalar(b)).x, v):
            assert got.hex() == want.hex() or (got != got and want != want), (a, b, got, want)
        if want != want and a == a and b == b and math.isinf(_pow_reference(-a, b)):
            invalid_overflows += 1
    assert invalid_overflows >= 20  # the corpus reaches the case where order matters


def test_vector_pow_is_pinned_to_the_per_element_repair(monkeypatch):
    # a negative finite base with a non-integer exponent raises once per vector,
    # then passes as NaN; the result is the per-element repair's, bit for bit
    grid = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308,
            0.5, -0.5, 2.0, -2.0, 3.0, -3.0, 1e-300, -1e-300]
    exponents = [0.5, -0.5, 2.5, -2.5, 1.5, 1e-300, 2.0, 3.0, -1.0, -2.0, 0.0, -0.0,
                 1025.0, -1025.0, 1e308, math.inf, -math.inf, math.nan]
    reference = funcalg.values._map_ieee
    rng = random.Random(1616)
    raw, repair = funcalg.values._REAL_OPS[POW]
    raises = []
    monkeypatch.setitem(funcalg.values._REAL_OPS, POW, (raw, lambda a, b: raises.append(a) or repair(a, b)))
    hexes = lambda xs: [x.hex() for x in xs]
    for _ in range(200):
        bases = tuple(rng.choice(grid) for _ in range(rng.randint(1, 40)))
        exps = tuple(rng.choice(exponents) for _ in bases)
        e, a = rng.choice(exponents), rng.choice(grid)
        for x, y, got in ((bases, repeat(e), value_binop(POW, Vector(bases), Scalar(e))),
                          (repeat(a), exps, value_binop(POW, Scalar(a), Vector(exps))),
                          (bases, exps, value_binop(POW, Vector(bases), Vector(exps)))):
            assert hexes(got.xs) == hexes(reference(raw, repair, x, y))
    raises.clear()
    assert math.isnan(value_binop(POW, Vector(tuple(map(float, range(-1000, 1000)))), Scalar(0.5)).xs[0])
    assert raises == [-1000.0]


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


# The tower's + - * / on component tuples, written out in the IEEE operation
# order and association that the tree walker's kernels have always had:
# division is by the squared norm, quaternion division a Hamilton product
# with the divisor's inverse.
def _ref_div(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _ref_cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_cdiv(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return (_ref_div(a[0] * b[0] + a[1] * b[1], den), _ref_div(a[1] * b[0] - a[0] * b[1], den))


def _ref_qmul(a, b):
    return (
        a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
        a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
        a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
    )


def _ref_qdiv(a, b):
    n2 = b[0] * b[0] + b[1] * b[1] + b[2] * b[2] + b[3] * b[3]
    return _ref_qmul(a, (_ref_div(b[0], n2), _ref_div(-b[1], n2), _ref_div(-b[2], n2), _ref_div(-b[3], n2)))


_REF_TOWER = {
    (ADD, 2): lambda a, b: (a[0] + b[0], a[1] + b[1]),
    (SUB, 2): lambda a, b: (a[0] - b[0], a[1] - b[1]),
    (MUL, 2): _ref_cmul,
    (DIV, 2): _ref_cdiv,
    (ADD, 4): lambda a, b: tuple(x + y for x, y in zip(a, b)),
    (SUB, 4): lambda a, b: tuple(x - y for x, y in zip(a, b)),
    (MUL, 4): _ref_qmul,
    (DIV, 4): _ref_qdiv,
}

_PIN_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308, 1.0, -2.5]


def test_tower_arithmetic_is_pinned_bit_for_bit():
    # every Complex/Quaternion operand pair (a Scalar against either too),
    # components drawn from the edges and from floats across the exponent
    # range, compared per component by float.hex
    rng = random.Random(1515)
    kinds = {Scalar: 1, Complex: 2, Quaternion: 4}

    def component():
        if rng.random() < 0.6:
            return rng.choice(_PIN_EDGES)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308)

    checked = 0
    for ka, wa in kinds.items():
        for kb, wb in kinds.items():
            w = max(wa, wb)
            if w == 1:
                continue
            for _ in range(600):
                a = tuple(component() for _ in range(wa))
                b = tuple(component() for _ in range(wb))
                pad = lambda c: c + (0.0,) * (w - len(c))  # promotion
                for op in (ADD, SUB, MUL, DIV):
                    got = value_binop(op, ka(*a), kb(*b))
                    want = _REF_TOWER[op, w](pad(a), pad(b))
                    assert type(got) is (Complex if w == 2 else Quaternion)
                    assert [x.hex() for x in _components(got)] == [x.hex() for x in want], (op, a, b)
                    checked += 1
    assert checked == 8 * 600 * 4


def test_complex_pow_principal_branch():
    a, b = complex(1.5, -0.5), complex(0.75, 0.25)
    got = value_binop(POW, Complex(a.real, a.imag), Complex(b.real, b.imag))
    want = cmath.exp(b * cmath.log(a))
    assert math.isclose(got.re, want.real, rel_tol=1e-12)
    assert math.isclose(got.im, want.imag, rel_tol=1e-12)


def _cexp_reference(re: float, im: float) -> tuple[float, float]:
    try:
        m = math.exp(re)
    except OverflowError:
        m = math.inf
    if im == 0.0:
        return m, 0.0
    try:
        c, s = math.cos(im), math.sin(im)
    except ValueError:
        c = s = math.nan
    return m * c, m * s


def _clog_reference(re: float, im: float) -> tuple[float, float]:
    mod = math.hypot(re, im)
    return (math.log(mod) if mod > 0.0 else -math.inf), math.atan2(im, re)


def _cpow_reference(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Complex pow composed as exp(b * log(a)) on (re, im) pairs,
    after the three zero-base branches."""
    if a == (0.0, 0.0):  # -0.0 == 0.0
        if b == (0.0, 0.0):
            return 1.0, 0.0
        if b[1] == 0.0 and b[0] > 0.0:
            return 0.0, 0.0
        return math.nan, math.nan
    log = _clog_reference(*a)
    return _cexp_reference(b[0] * log[0] - b[1] * log[1], b[0] * log[1] + b[1] * log[0])


def test_complex_pow_exp_log_sqrt_equal_the_composed_reference():
    grid = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308, 1.0, -0.5)
    rng = random.Random(1221)
    points = [(a, b) for a in grid for b in grid]
    points += [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(200)]
    points += [(rng.choice(grid), rng.uniform(-1e3, 1e3)) for _ in range(100)]
    hexes = lambda v: (v.re.hex(), v.im.hex())
    want = lambda a, b: tuple(x.hex() for x in _cpow_reference(a, b))
    for a in points:
        c = Complex(*a)
        assert hexes(apply_builtin("exp", c)) == tuple(x.hex() for x in _cexp_reference(*a))
        assert hexes(apply_builtin("log", c)) == tuple(x.hex() for x in _clog_reference(*a))
        assert hexes(apply_builtin("sqrt", c)) == want(a, (0.5, 0.0))
    exponents = rng.sample(points, 60) + [(0.0, 0.0), (2.0, 0.0), (-1.0, 0.0), (0.0, 1.0)]
    for a in points:
        for b in exponents:
            assert hexes(value_binop(POW, Complex(*a), Complex(*b))) == want(a, b), (a, b)
        # a Scalar operand x promotes to (x, 0.0)
        for x in grid:
            assert hexes(value_binop(POW, Complex(*a), Scalar(x))) == want(a, (x, 0.0)), (a, x)
            assert hexes(value_binop(POW, Scalar(x), Complex(*a))) == want((x, 0.0), a), (x, a)


class _SubScalar(Scalar):
    __slots__ = ()


class _SubComplex(Complex):
    __slots__ = ()


class _SubQuaternion(Quaternion):
    __slots__ = ()


def _qpow_reference(a, n: int):
    """a^n as the repeated Hamilton product, multiplied in square-and-multiply order."""
    acc = (1.0, 0.0, 0.0, 0.0)
    while n:
        if n & 1:
            acc = _ref_qmul(acc, a)
        n >>= 1
        if n:
            a = _ref_qmul(a, a)
    return acc


_QPOW_DOMAIN = "quaternion power is defined only for non-negative integer exponents"
_QPOW_ERRORS = {  # (op, kind_a, kind_b) -> the message of the UnsupportedPowError it raises
    (POW, Scalar, Quaternion): "quaternion exponents are not supported",
    (POW, Complex, Quaternion): "quaternion exponents are not supported",
    (POW, Quaternion, Complex): "quaternion power needs a scalar exponent",
    (POW, Quaternion, Quaternion): "quaternion power needs a scalar exponent",
}


def _kind_pair_reference(op, a, b):
    """`a op b` on component tuples: (result kind, components), or the message
    of the UnsupportedPowError it raises."""
    w = max(len(a), len(b))
    kind = {1: Scalar, 2: Complex, 4: Quaternion}[w]
    pad = lambda c: c + (0.0,) * (w - len(c))  # promotion
    if w == 1:
        real = {ADD: operator.add, SUB: operator.sub, MUL: operator.mul, DIV: _ref_div, POW: _pow_reference}
        return kind, (real[op](a[0], b[0]),)
    if op is not POW:
        return kind, _REF_TOWER[op, w](pad(a), pad(b))
    if w == 2:
        return kind, _cpow_reference(pad(a), pad(b))
    e = b[0]
    if not (math.isfinite(e) and e.is_integer() and e >= 0):
        return _QPOW_DOMAIN
    return kind, _qpow_reference(a, int(e))


def test_every_kind_pair_is_pinned_bit_for_bit():
    # every (op, kind_a, kind_b) over the three kinds, with exact-type and with
    # subclass operands: float.hex-equal to the reference, or the exact error
    rng = random.Random(1717)
    kinds = {Scalar: _SubScalar, Complex: _SubComplex, Quaternion: _SubQuaternion}
    exponents = [0.0, -0.0, 1.0, 2.0, 3.0, 7.0, 64.0, 1025.0, 0.5, -1.0, -2.5, math.inf, math.nan]

    def component():
        if rng.random() < 0.6:
            return rng.choice(_PIN_EDGES)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308)

    seen = collections.Counter()
    for op in (ADD, SUB, MUL, DIV, POW):
        for ka, kb in itertools.product(kinds, repeat=2):
            for _ in range(150):
                a = tuple(component() for _ in dataclasses.fields(ka))
                b = tuple(component() for _ in dataclasses.fields(kb))
                if op is POW and ka is Quaternion and kb is Scalar and rng.random() < 0.7:
                    b = (rng.choice(exponents),)
                    a = tuple(rng.uniform(-1.5, 1.5) if rng.random() < 0.7 else x for x in a)
                want = _QPOW_ERRORS.get((op, ka, kb)) or _kind_pair_reference(op, a, b)
                for x, y in ((ka(*a), kb(*b)), (kinds[ka](*a), kb(*b)), (ka(*a), kinds[kb](*b)),
                             (kinds[ka](*a), kinds[kb](*b))):
                    if isinstance(want, str):
                        with pytest.raises(UnsupportedPowError) as info:
                            value_binop(op, x, y)
                        assert type(info.value) is UnsupportedPowError and str(info.value) == want
                        seen["error"] += 1
                        continue
                    got = value_binop(op, x, y)
                    assert type(got) is want[0], (op, x, y)
                    assert [c.hex() for c in _components(got)] == [c.hex() for c in want[1]], (op, x, y)
                    seen[want[0].__name__] += 1
    assert seen["error"] >= 2000 and min(seen.values()) >= 2000, seen


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


def test_complex_kernels_give_nan_where_real_sin_cos_raise():
    im = Complex(0.0, 1.0)
    inf = Scalar(math.inf)  # the parser reads 1e999 as Inf
    cases = [
        apply_builtin("exp", value_binop(MUL, inf, im)),  # Exp(1e999*im)
        apply_builtin("sin", value_binop(ADD, inf, value_binop(MUL, Scalar(0.0), im))),
        apply_builtin("cos", value_binop(ADD, inf, value_binop(MUL, Scalar(0.0), im))),
        value_binop(POW, Complex(0.0, 1e308), Complex(1e308, 1e308)),  # through _cpow_parts
    ]
    for got in cases:
        assert type(got) is Complex and math.isnan(got.re) and math.isnan(got.im)
    # finite inputs keep the plain math-library formulas, bit for bit
    for a, b in [(0.5, 0.25), (-1.5, 2.0), (3.0, -700.0)]:
        assert apply_builtin("sin", Complex(a, b)) == Complex(
            math.sin(a) * math.cosh(b), math.cos(a) * math.sinh(b)
        )
        assert apply_builtin("cos", Complex(a, b)) == Complex(
            math.cos(a) * math.cosh(b), -math.sin(a) * math.sinh(b)
        )
        m = math.exp(a)
        assert apply_builtin("exp", Complex(a, b)) == Complex(
            m * math.cos(b), m * math.sin(b)
        )


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
# Vector kernels against their scalar elements.  Vector kernels run the C
# function over the whole vector and repair only the elements where it
# raises; every element must still equal the scalar kernel's result.

_KERNEL_EDGES = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308,
    1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.5, -0.5, 1.5, -2.5, 1e-300,
    710.0, -710.0, 1000.0, -1000.0,
)
_reals = st.sampled_from(_KERNEL_EDGES) | st.floats()


@st.composite
def _vectors(draw, n=None):
    """A vector of 1 to 1000 elements with edge values planted at the first,
    a middle, the last or any position, several at once."""
    if n is None:
        n = draw(st.integers(1, 1000))
    fill = draw(st.lists(_reals, min_size=1, max_size=8))
    xs = [fill[i % len(fill)] for i in range(n)]
    spots = st.sampled_from((0, n // 2, n - 1)) | st.integers(0, n - 1)
    for i in draw(st.lists(spots, max_size=6)):
        xs[i] = draw(st.sampled_from(_KERNEL_EDGES))
    return tuple(xs)


@st.composite
def _vector_cases(draw):
    xs = draw(_vectors())
    return xs, draw(_vectors(len(xs))), draw(_reals)


def _outcome(call):
    try:
        return call()
    except Exception as err:  # the error type is what gets compared
        return type(err)


def _assert_elementwise(vector_call, element_calls):
    got = _outcome(vector_call)
    want = [_outcome(call) for call in element_calls]
    errors = [w for w in want if isinstance(w, type)]
    if errors:
        assert got is errors[0]
        return
    assert type(got) is Vector and len(got.xs) == len(want)
    for g, w in zip(got.xs, want):
        assert g.hex() == w.x.hex() or (g != g and w.x != w.x), (g, w.x)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=_vector_cases())
@example(case=((0.0, 1.0, 2.0, 1.0, 3.0, 1.0), (1.0, 0.0, -2.0, 0.0, 5e-324, -0.0), 1.0))
@example(case=(
    (math.inf, 0.5, -1.0, 1000.0, -math.inf, -1000.0, 2.0, 0.0, -0.0, math.nan),
    (-2.0, 0.5, -0.5, 1e308, 0.0, -1e308, 1.5, -3.0, 2.0, 0.0),
    -1.0,
))
@example(case=((-2.0, 1e308, -1e308, 0.0, -0.0), (0.5, -1.0, 2.0, 3.0, -1.0), 1e308))
def test_vector_kernels_equal_scalar_kernels_per_element(case):
    xs, ys, s = case
    a, b, sc = Vector(xs), Vector(ys), Scalar(s)
    for op in ArithOp:
        _assert_elementwise(
            lambda: value_binop(op, a, b),
            [
                lambda x=x, y=y: value_binop(op, Scalar(x), Scalar(y))
                for x, y in zip(xs, ys)
            ],
        )
        _assert_elementwise(
            lambda: value_binop(op, a, sc),
            [lambda x=x: value_binop(op, Scalar(x), sc) for x in xs],
        )
        _assert_elementwise(
            lambda: value_binop(op, sc, a),
            [lambda x=x: value_binop(op, sc, Scalar(x)) for x in xs],
        )
    # x^0.5 (x^y is in the loop above): on a negative base ** goes complex,
    # where the C-level vector kernel raises and the element is repaired
    _assert_elementwise(
        lambda: value_binop(POW, a, Scalar(0.5)),
        [lambda x=x: value_binop(POW, Scalar(x), Scalar(0.5)) for x in xs],
    )
    for name in PRIMITIVES:
        if name in ("cumsum", "cumprod"):
            # a prefix scan is the scalar fold from the identity
            op, acc = (ADD, Scalar(0.0)) if name == "cumsum" else (MUL, Scalar(1.0))
            folds = []
            for x in xs:
                acc = value_binop(op, acc, Scalar(x))
                folds.append(lambda acc=acc: acc)
            _assert_elementwise(lambda: apply_builtin(name, a), folds)
        else:
            _assert_elementwise(
                lambda: apply_builtin(name, a),
                [lambda x=x: apply_builtin(name, Scalar(x)) for x in xs],
            )


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


def test_a_host_float_is_not_a_tower_value():
    with pytest.raises(TypeError, match="not numeric tower values"):
        value_binop(ADD, Scalar(1.0), 1.0)


def test_same_value_reads_every_field_of_each_kind():
    class Sub(Scalar):
        pass

    assert same_value(Complex(1.0, math.nan), Complex(1.0, math.nan))
    assert not same_value(Complex(1.0, 2.0), Complex(1.0, -2.0))
    assert not same_value(Quaternion(1, 2, 3, 4), Quaternion(1, 2, 3, -4))
    assert same_value(Sub(math.nan), Sub(math.nan)) and not same_value(Sub(1.0), Sub(2.0))
