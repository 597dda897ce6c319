"""The numeric tower and its arithmetic.

Evaluation of lifted function expressions bottoms out here.  Four value
kinds exist: real scalars, real vectors, complex numbers and quaternions.
Scalar arithmetic follows IEEE-754 double semantics throughout: division
by zero yields signed infinities, 0/0 yields NaN, and neither is an error.
Vectors combine elementwise, with scalars broadcast across them; scalars
promote to complex numbers and complex numbers to quaternions.  Vectors
never mix with complex or quaternion operands, and two vectors must have
equal length (no recycling).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat

from .errors import (
    KindMismatchError,
    LengthMismatchError,
    UnknownPrimitiveError,
    UnsupportedKindError,
    UnsupportedPowError,
)


class ArithOp(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    POW = "^"

    # members are singletons: identity hashing skips the Python-level Enum.__hash__
    __hash__ = object.__hash__


class Value:
    """Base of the numeric tower; concrete kinds are the subclasses below.

    Values are immutable after construction and safe to share between
    threads.  Non-finite payloads (Inf, -Inf, NaN) are legal and propagate
    per IEEE-754.
    """

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Scalar(Value):
    x: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))


@dataclass(frozen=True, slots=True)
class Vector(Value):
    xs: tuple[float, ...]

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        if not xs:
            raise ValueError("a vector needs at least one element")
        object.__setattr__(self, "xs", xs)


@dataclass(frozen=True, slots=True)
class Complex(Value):
    re: float
    im: float

    def __post_init__(self):
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))


@dataclass(frozen=True, slots=True)
class Quaternion(Value):
    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))


# Kernel results of all four kinds are already floats (vectors: non-empty tuples
# of floats): store them as is.  Host inputs go through the coercing constructors.
_set_scalar_x, _set_vector_xs = Scalar.x.__set__, Vector.xs.__set__
_set_re, _set_im = Complex.re.__set__, Complex.im.__set__
_set_w, _set_qx, _set_qy, _set_qz = (getattr(Quaternion, n).__set__ for n in "wxyz")


def _scalar(x: float) -> Scalar:
    s = object.__new__(Scalar)
    _set_scalar_x(s, x)
    return s


def _vector(xs: tuple[float, ...]) -> Vector:
    v = object.__new__(Vector)
    _set_vector_xs(v, xs)
    return v


def _complex(re: float, im: float) -> Complex:
    c = object.__new__(Complex)
    _set_re(c, re)
    _set_im(c, im)
    return c


def _quat(w: float, x: float, y: float, z: float) -> Quaternion:
    q = object.__new__(Quaternion)
    _set_w(q, w)
    _set_qx(q, x)
    _set_qy(q, y)
    _set_qz(q, z)
    return q


# ---------------------------------------------------------------------------
# Real arithmetic.  Python floats are IEEE-754 doubles, but CPython raises
# where IEEE defines a result; the wrappers below restore the IEEE answer.

def _ieee_div(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        # sign of the infinity is the XOR of the operand signs
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _is_odd_int(b: float) -> bool:
    return math.isfinite(b) and b == int(b) and int(b) % 2 != 0


def _ieee_pow(a: float, b: float) -> float:
    try:
        r = a**b
    except OverflowError:
        return -math.inf if (a < 0 and _is_odd_int(b)) else math.inf
    except ZeroDivisionError:
        # 0 ** negative; the zero's sign survives only for odd exponents
        neg = math.copysign(1.0, a) < 0 and _is_odd_int(b)
        return -math.inf if neg else math.inf
    if isinstance(r, complex):
        # CPython picks the complex branch for a finite negative base with a
        # non-integer exponent; IEEE pow says NaN.
        return math.nan
    return float(r)


_REAL_OPS = {
    ArithOp.ADD: operator.add,
    ArithOp.SUB: operator.sub,
    ArithOp.MUL: operator.mul,
    ArithOp.DIV: _ieee_div,
    ArithOp.POW: _ieee_pow,
}


# ---------------------------------------------------------------------------
# Complex arithmetic, built on the real helpers so that zero denominators
# produce Inf/NaN components instead of raising.

def _cadd(a: Complex, b: Complex) -> Complex:
    return _complex(a.re + b.re, a.im + b.im)


def _csub(a: Complex, b: Complex) -> Complex:
    return _complex(a.re - b.re, a.im - b.im)


def _cmul(a: Complex, b: Complex) -> Complex:
    return _complex(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def _cdiv(a: Complex, b: Complex) -> Complex:
    den = b.re * b.re + b.im * b.im
    return _complex(
        _ieee_div(a.re * b.re + a.im * b.im, den),
        _ieee_div(a.im * b.re - a.re * b.im, den),
    )


def _cexp(a: Complex) -> Complex:
    try:
        m = math.exp(a.re)
    except OverflowError:
        m = math.inf
    if a.im == 0.0:
        return _complex(m, 0.0)
    return _complex(m * math.cos(a.im), m * math.sin(a.im))


def _clog(a: Complex) -> Complex:
    mod = math.hypot(a.re, a.im)
    return _complex(math.log(mod) if mod > 0.0 else -math.inf, math.atan2(a.im, a.re))


def _cpow(a: Complex, b: Complex) -> Complex:
    # principal branch: a^b = exp(b * log a)
    if a.re == 0.0 and a.im == 0.0:
        if b.re == 0.0 and b.im == 0.0:
            return _complex(1.0, 0.0)
        if b.im == 0.0 and b.re > 0.0:
            return _complex(0.0, 0.0)
        return _complex(math.nan, math.nan)
    return _cexp(_cmul(b, _clog(a)))


_COMPLEX_OPS = {
    ArithOp.ADD: _cadd,
    ArithOp.SUB: _csub,
    ArithOp.MUL: _cmul,
    ArithOp.DIV: _cdiv,
    ArithOp.POW: _cpow,
}


# ---------------------------------------------------------------------------
# Quaternion arithmetic.  Multiplication is the Hamilton product and is not
# commutative; division multiplies by the right operand's inverse.

def _qmul(a: Quaternion, b: Quaternion) -> Quaternion:
    return _quat(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def _qdiv(a: Quaternion, b: Quaternion) -> Quaternion:
    n2 = b.w * b.w + b.x * b.x + b.y * b.y + b.z * b.z
    inv = _quat(
        _ieee_div(b.w, n2), _ieee_div(-b.x, n2), _ieee_div(-b.y, n2), _ieee_div(-b.z, n2)
    )
    return _qmul(a, inv)


_QUAT_OPS = {
    ArithOp.ADD: lambda a, b: _quat(a.w + b.w, a.x + b.x, a.y + b.y, a.z + b.z),
    ArithOp.SUB: lambda a, b: _quat(a.w - b.w, a.x - b.x, a.y - b.y, a.z - b.z),
    ArithOp.MUL: _qmul,
    ArithOp.DIV: _qdiv,
}


def _qpow(a: Quaternion, b: Value) -> Quaternion:
    if not isinstance(b, Scalar):
        raise UnsupportedPowError("quaternion power needs a scalar exponent")
    if not (math.isfinite(b.x) and b.x == int(b.x) and b.x >= 0):
        raise UnsupportedPowError(
            "quaternion power is defined only for non-negative integer exponents"
        )
    n = int(b.x)
    acc = _quat(1.0, 0.0, 0.0, 0.0)
    base = a
    while n:  # square-and-multiply; associativity makes this the repeated product
        if n & 1:
            acc = _qmul(acc, base)
        base = _qmul(base, base)
        n >>= 1
    return acc


# ---------------------------------------------------------------------------
# Promotion: Scalar -> Complex -> Quaternion.

def _as_complex(v: Value) -> Complex:
    if isinstance(v, Complex):
        return v
    return _complex(v.x, 0.0)  # type: ignore[union-attr]


def _as_quaternion(v: Value) -> Quaternion:
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, Complex):
        return _quat(v.re, v.im, 0.0, 0.0)
    return _quat(v.x, 0.0, 0.0, 0.0)  # type: ignore[union-attr]


def value_binop(op: ArithOp, a: Value, b: Value) -> Value:
    """Combine two values under `op`, promoting along the numeric tower."""
    if isinstance(a, Scalar) and isinstance(b, Scalar):
        return _scalar(_REAL_OPS[op](a.x, b.x))
    if isinstance(a, Vector) or isinstance(b, Vector):
        if isinstance(a, (Complex, Quaternion)) or isinstance(b, (Complex, Quaternion)):
            raise KindMismatchError(
                "vectors combine only with scalars or equal-length vectors"
            )
        real = _REAL_OPS[op]
        if isinstance(a, Vector) and isinstance(b, Vector):
            if len(a.xs) != len(b.xs):
                raise LengthMismatchError(
                    f"vector lengths differ: {len(a.xs)} vs {len(b.xs)}"
                )
            return _vector(tuple(map(real, a.xs, b.xs)))
        if isinstance(a, Vector):
            return _vector(tuple(map(real, a.xs, repeat(b.x))))
        return _vector(tuple(map(real, repeat(a.x), b.xs)))

    if isinstance(a, Quaternion) or isinstance(b, Quaternion):
        if op is ArithOp.POW:
            if not isinstance(a, Quaternion):
                raise UnsupportedPowError("quaternion exponents are not supported")
            return _qpow(a, b)
        return _QUAT_OPS[op](_as_quaternion(a), _as_quaternion(b))

    # at least one operand is complex and the other a scalar or complex
    return _COMPLEX_OPS[op](_as_complex(a), _as_complex(b))


def value_neg(a: Value) -> Value:
    """Componentwise negation; the value kind is preserved."""
    if isinstance(a, Scalar):
        return _scalar(-a.x)
    if isinstance(a, Vector):
        return _vector(tuple(map(operator.neg, a.xs)))
    if isinstance(a, Complex):
        return _complex(-a.re, -a.im)
    return _quat(-a.w, -a.x, -a.y, -a.z)


# ---------------------------------------------------------------------------
# Builtin kernels.  Real kernels are total: domain errors surface as NaN and
# range overflow as the appropriately signed infinity, matching IEEE and the
# behaviour numeric users expect from log(-1) or exp(1000).

def _k_log(x: float) -> float:
    if x > 0.0 or x != x:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def _k_sqrt(x: float) -> float:
    if x < 0.0:
        return math.nan
    return math.sqrt(x)


def _k_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _k_sinh(x: float) -> float:
    try:
        return math.sinh(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _k_cosh(x: float) -> float:
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _guard_nan(fn):
    def kernel(x: float) -> float:
        try:
            return fn(x)
        except ValueError:
            return math.nan

    return kernel


def _k_floor(x: float) -> float:
    return float(math.floor(x)) if math.isfinite(x) else x


def _k_ceiling(x: float) -> float:
    return float(math.ceil(x)) if math.isfinite(x) else x


_SCALAR_KERNELS = {
    "sin": _guard_nan(math.sin),
    "cos": _guard_nan(math.cos),
    "tan": _guard_nan(math.tan),
    "asin": _guard_nan(math.asin),
    "acos": _guard_nan(math.acos),
    "atan": math.atan,
    "sinh": _k_sinh,
    "cosh": _k_cosh,
    "tanh": math.tanh,
    "exp": _k_exp,
    "log": _k_log,
    "sqrt": _k_sqrt,
    "abs": math.fabs,
    "floor": _k_floor,
    "ceiling": _k_ceiling,
}

_SCAN_KERNELS = ("cumsum", "cumprod")

# principal-branch complex extensions, only where the surface language needs them
_COMPLEX_KERNELS = {
    "exp": _cexp,
    "log": _clog,
    "sqrt": lambda a: _cpow(a, _complex(0.5, 0.0)),
    "sin": lambda a: _complex(
        math.sin(a.re) * _k_cosh(a.im), math.cos(a.re) * _k_sinh(a.im)
    ),
    "cos": lambda a: _complex(
        math.cos(a.re) * _k_cosh(a.im), -math.sin(a.re) * _k_sinh(a.im)
    ),
}

# kernel-table order, which seeded draws over `primitives.PRIMITIVES` depend on
BUILTIN_ORDER = tuple(_SCALAR_KERNELS) + _SCAN_KERNELS
BUILTIN_NAMES = frozenset(BUILTIN_ORDER)


def apply_builtin(name: str, a: Value) -> Value:
    """Apply the named builtin kernel to a value.

    Scalars use the scalar kernel, vectors map it elementwise (except the
    prefix scans cumsum/cumprod, which are vector-to-vector), complex values
    support the principal-branch subset, and quaternions support only abs
    (the norm).
    """
    if name in _SCAN_KERNELS:
        if not isinstance(a, Vector):
            raise UnsupportedKindError(f"{name} needs a vector")
        # starting from the identity keeps the first element 0.0 + x or 1.0 * x
        step, start = (operator.add, 0.0) if name == "cumsum" else (operator.mul, 1.0)
        return _vector(tuple(accumulate(a.xs, step, initial=start))[1:])

    kernel = _SCALAR_KERNELS.get(name)
    if kernel is None:
        raise UnknownPrimitiveError(f"unknown primitive '{name}'")
    if isinstance(a, Scalar):
        return _scalar(kernel(a.x))
    if isinstance(a, Vector):
        return _vector(tuple(map(kernel, a.xs)))
    if isinstance(a, Complex):
        ck = _COMPLEX_KERNELS.get(name)
        if ck is None:
            raise UnsupportedKindError(f"{name} is not defined for complex values")
        return ck(a)
    if name == "abs":
        return _scalar(math.hypot(a.w, a.x, a.y, a.z))
    raise UnsupportedKindError(f"{name} is not defined for quaternions")


# ---------------------------------------------------------------------------
# Rendering.

def _fmt_real(x: float, digits: int) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Inf" if x > 0 else "-Inf"
    return f"{x:.{digits}g}"


def format_value(v: Value, digits: int = 7) -> str:
    """Render a value with `digits` significant digits per component.

    Scalars render bare, vectors as space-separated scalars in brackets,
    complex values as `a+bi` and quaternions as `w+xi+yj+zk` with explicit
    signs and zero components retained.
    """
    if digits < 1:
        raise ValueError("digits must be at least 1")
    if isinstance(v, Scalar):
        return _fmt_real(v.x, digits)
    if isinstance(v, Vector):
        return "[" + " ".join(_fmt_real(x, digits) for x in v.xs) + "]"
    if isinstance(v, Complex):
        sign = "-" if v.im < 0 else "+"
        return f"{_fmt_real(v.re, digits)}{sign}{_fmt_real(abs(v.im), digits)}i"
    parts = [_fmt_real(v.w, digits)]
    for comp, axis in ((v.x, "i"), (v.y, "j"), (v.z, "k")):
        sign = "-" if comp < 0 else "+"
        parts.append(f"{sign}{_fmt_real(abs(comp), digits)}{axis}")
    return "".join(parts)


def _same_real(x: float, y: float) -> bool:
    return x == y or (x != x and y != y)


def same_value(a: Value, b: Value) -> bool:
    """Equality with NaN components treated as equal (NaN-class equality)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Scalar):
        return _same_real(a.x, b.x)
    if isinstance(a, Vector):
        return len(a.xs) == len(b.xs) and all(
            _same_real(x, y) for x, y in zip(a.xs, b.xs)
        )
    if isinstance(a, Complex):
        return _same_real(a.re, b.re) and _same_real(a.im, b.im)
    return (
        _same_real(a.w, b.w)
        and _same_real(a.x, b.x)
        and _same_real(a.y, b.y)
        and _same_real(a.z, b.z)
    )
