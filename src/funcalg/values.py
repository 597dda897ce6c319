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
from itertools import accumulate, product, repeat

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
        xs = tuple(map(float, self.xs))
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


# A vector's elements from a kernel are already a non-empty tuple of floats:
# `_vector` stores them as is, as the generated `_scalar`, `_complex` and
# `_quat` below store kernel floats.  Host inputs go through the constructors.
_set_vector_xs = Vector.xs.__set__


def _vector(xs: tuple[float, ...]) -> Vector:
    v = object.__new__(Vector)
    _set_vector_xs(v, xs)
    return v


# ---------------------------------------------------------------------------
# Real arithmetic.  Python floats are IEEE-754 doubles, but CPython raises
# where IEEE defines a result.  The kernel contract, for every real operator
# here and every real builtin below: a kernel is a C function plus the IEEE
# answer for the inputs where that function raises (None where it never
# raises).  Callers run the C function first and the repair only where it
# raises, so a vector kernel is one C-level map and only a repaired element
# pays for a Python frame (`_map_ieee`).

def _ieee_div(a: float, b: float) -> float:
    """Total IEEE division: `/`'s repair, and the tower kernels' division."""
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        # sign of the infinity is the XOR of the operand signs
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _pow_raised(a: float, b: float) -> float:
    """IEEE pow where `math.pow` raises: a zero base with a negative exponent,
    a negative base with a non-integer exponent, or an overflow."""
    if a < 0 and not b.is_integer():  # invalid, even where |a|^b overflows
        return math.nan
    # an infinity (-0.0 < 0 is false, so a zero base lands here too),
    # negative only for a negative sign and an odd integer exponent
    return -math.inf if math.copysign(1.0, a) < 0 and b % 2.0 == 1.0 else math.inf


# op -> (C function, IEEE answer where it raises); add, sub and mul never
# raise on floats
_REAL_OPS = {
    ArithOp.ADD: (operator.add, None),
    ArithOp.SUB: (operator.sub, None),
    ArithOp.MUL: (operator.mul, None),
    ArithOp.DIV: (operator.truediv, _ieee_div),
    ArithOp.POW: (math.pow, _pow_raised),
}


def _map_ieee(raw, repair, *cols, screen=None) -> tuple[float, ...]:
    """`tuple(map(raw, *cols))`, with `repair` giving each element where `raw`
    raises.  `cols` are equal-length tuples, or `repeat(x)` to broadcast x.
    From the first repair that gives NaN on, `screen(*cols)`, if given, gives
    the columns of the remaining elements, rewritten so that they raise less."""
    out: list[float] = []
    results = map(raw, *cols)
    while True:
        try:
            out.extend(results)  # keeps what came before a raise; map resumes after it
            return tuple(out)
        except (ArithmeticError, ValueError):
            i = len(out)  # the element that raised
            out.append(r := repair(*[c[i] if type(c) is tuple else next(c) for c in cols]))
            if screen and r != r:  # the rest, screened, with no further screen
                return tuple(out) + _map_ieee(raw, repair, *screen(*[c[i + 1:] if type(c) is tuple else c for c in cols]))


def _nan_bases(x, y) -> tuple:
    """`^`'s columns with NaN for each negative finite base whose exponent is
    finite and not an integer, where math.pow raises: IEEE's answer, NaN too."""
    inf = math.inf
    return tuple([math.nan if -inf < a < 0.0 and -inf < b < inf and not b.is_integer() else a
                  for a, b in zip(x, y)]), y


# ---------------------------------------------------------------------------
# Complex exp, log and ^ on floats, total as the real kernels are: Inf and
# NaN components instead of raising.  The pair kernels, complex sqrt and the
# complex lanes of `vm` all call _cpow_parts, so complex ^ has one
# implementation.

def _cexp_parts(re: float, im: float) -> tuple[float, float]:
    try:
        m = math.exp(re)
    except OverflowError:
        m = math.inf
    if im == 0.0:
        return m, 0.0
    try:
        c, s = math.cos(im), math.sin(im)
    except ValueError:  # both raise only on an infinite angle, where both are NaN
        c = s = math.nan
    return m * c, m * s


def _clog_parts(re: float, im: float) -> tuple[float, float]:
    mod = math.hypot(re, im)
    return math.log(mod) if mod > 0.0 else -math.inf, math.atan2(im, re)


def _cpow_parts(a0: float, a1: float, b0: float, b1: float) -> tuple[float, float]:
    """(a0 + a1 i)^(b0 + b1 i) on the principal branch, exp(b * log a), as
    floats."""
    if a0 == 0.0 and a1 == 0.0:
        if b0 == 0.0 and b1 == 0.0:
            return 1.0, 0.0
        if b1 == 0.0 and b0 > 0.0:
            return 0.0, 0.0
        return math.nan, math.nan
    l0, l1 = _clog_parts(a0, a1)
    return _cexp_parts(b0 * l0 - b1 * l1, b0 * l1 + b1 * l0)  # b * log a, as complex *


# ---------------------------------------------------------------------------
# Tower arithmetic, written once.  Generated code holds a value of width w
# (its number of float fields) as the locals x_0 .. x_{w-1}: `_read_code`
# reads a boxed value into them, `_build_code` builds one from them, and
# `_tower_code` writes each complex and quaternion + - * / component formula
# of `_TOWER_OPS` as statements on them, padding the narrower operand with
# 0.0 (promotion: Scalar -> Complex -> Quaternion).  The builders `_scalar`,
# `_complex` and `_quat`, the pair kernels below and the lanes of `vm` are
# all generated from these, in the namespace `_CODE_NS`, so they do the same
# IEEE operations in the same order.

# The value types held as float fields, and their fields; `_WIDTH_KINDS[w]`
# is the type of width w.
_FIELDS = {t: t.__slots__ for t in (Scalar, Complex, Quaternion)}
_WIDTH_KINDS = {len(f): t for t, f in _FIELDS.items()}

# The names that generated code calls: `new(kind{w})` makes a bare value of
# width w, and `set{w}_{j}` stores its field j as is (kernel results are
# already floats); `_tower_code` calls `ieee_div` and `cpow`.
_CODE_NS = {"new": object.__new__, "ieee_div": _ieee_div, "cpow": _cpow_parts,
            **{f"kind{len(fs)}": t for t, fs in _FIELDS.items()},
            **{f"set{len(fs)}_{j}": getattr(t, f).__set__ for t, fs in _FIELDS.items() for j, f in enumerate(fs)}}


def _comps(x: str, w: int) -> list[str]:
    """The locals x_0 .. x_{w-1} that hold a value x of width w."""
    return [f"{x}_{j}" for j in range(w)]


def _read_code(x: str, w: int) -> list[str]:
    """Statements that bind x's locals to the fields of the boxed value x,
    reading each field once: one statement per field, which builds no tuple."""
    return [f"{x}_{j} = {x}.{f}" for j, f in enumerate(_FIELDS[_WIDTH_KINDS[w]])]


def _build_code(x: str, w: int) -> list[str]:
    """Statements that bind x to a new value of width w built from its locals."""
    return [f"{x} = new(kind{w})", *(f"set{w}_{j}({x}, {x}_{j})" for j in range(w))]


def _builder(name: str, w: int):
    ns = dict(_CODE_NS)
    exec(f"def {name}({', '.join(_comps('v', w))}):\n    " + "\n    ".join(_build_code("v", w) + ["return v"]), ns)
    return ns[name]


_scalar, _complex, _quat = (_builder(f"_{n}", w) for n, w in (("scalar", 1), ("complex", 2), ("quat", 4)))

# The Hamilton product, which is not commutative.
_HAMILTON = (
    "{a[0]} * {b[0]} - {a[1]} * {b[1]} - {a[2]} * {b[2]} - {a[3]} * {b[3]}",
    "{a[0]} * {b[1]} + {a[1]} * {b[0]} + {a[2]} * {b[3]} - {a[3]} * {b[2]}",
    "{a[0]} * {b[2]} - {a[1]} * {b[3]} + {a[2]} * {b[0]} + {a[3]} * {b[1]}",
    "{a[0]} * {b[3]} + {a[1]} * {b[2]} - {a[2]} * {b[1]} + {a[3]} * {b[0]}",
)

# component templates per (operator, width) on the operands' components a
# and b, each of that width; a complex / gives the numerators over the
# divisor's squared norm, and a quaternion / is written by `_tower_code` as
# the Hamilton product with the divisor's inverse.  Real / and ^ are
# `_REAL_OPS` kernels, complex ^ is `cpow` and quaternion ^ is `_qpow` below.
_TOWER_OPS = {
    **{(op, w): tuple(f"{{a[{j}]}} {op.value} {{b[{j}]}}" for j in range(w))
       for op in (ArithOp.ADD, ArithOp.SUB) for w in (1, 2, 4)},
    (ArithOp.MUL, 1): ("{a[0]} * {b[0]}",),
    (ArithOp.MUL, 2): ("{a[0]} * {b[0]} - {a[1]} * {b[1]}", "{a[0]} * {b[1]} + {a[1]} * {b[0]}"),
    (ArithOp.DIV, 2): ("{a[0]} * {b[0]} + {a[1]} * {b[1]}", "{a[1]} * {b[0]} - {a[0]} * {b[1]}"),
    (ArithOp.MUL, 4): _HAMILTON,
}


def _tower_code(t: str, op: ArithOp, xs: list[str], ys: list[str]) -> list[str]:
    """Statements that bind t_0 .. t_{w-1} to `xs op ys` on the component
    expressions xs and ys, the narrower padded with 0.0 to the width w of the
    wider, by `_TOWER_OPS`; a complex `^` calls `cpow`.  A complex or
    quaternion `/` binds the divisor's squared norm tn and divides by it: a
    complex one's numerators, a quaternion one's divisor to its inverse
    ti0 .. ti3, testing tn once: plain `/` where tn is nonzero (NaN and
    infinity too), `ieee_div` where it is zero."""
    w = max(len(xs), len(ys))
    xs, ys = (list(v) + ["0.0"] * (w - len(v)) for v in (xs, ys))
    if op is ArithOp.POW:
        return [f"{t}_0, {t}_1 = cpow({', '.join(xs + ys)})"]
    if op is not ArithOp.DIV:
        return [f"{t}_{j} = " + s.format(a=xs, b=ys) for j, s in enumerate(_TOWER_OPS[op, w])]
    if w == 2:
        names, nums = [f"{t}_0", f"{t}_1"], [s.format(a=xs, b=ys) for s in _TOWER_OPS[op, w]]
    else:
        names, nums = [f"{t}i{j}" for j in range(4)], [f"{'-' * (j > 0)}{c}" for j, c in enumerate(ys)]
    code = [f"{t}n = " + " + ".join(f"{c} * {c}" for c in ys),
            f"if {t}n: " + "; ".join(f"{x} = ({e}) / {t}n" for x, e in zip(names, nums)),
            "else: " + "; ".join(f"{x} = ieee_div({e}, {t}n)" for x, e in zip(names, nums))]
    return code if w == 2 else code + _tower_code(t, ArithOp.MUL, xs, names)


# ---------------------------------------------------------------------------
# The tower's kernels by kind pair: `_PAIR_KERNELS[op, kind_a, kind_b]` for
# every pair of Scalar, Complex and Quaternion with a Complex or Quaternion
# side.  Each + - * / (and complex ^, by _cpow_parts) is one generated
# function that reads each operand field once (`_read_code`), runs
# `_tower_code` and builds its result (`_build_code`).  Quaternion
# multiplication is the Hamilton product, and division multiplies by the
# right operand's inverse.  A quaternion ^ takes only a Scalar exponent
# (_qpow); lanes unroll its loop for a constant exponent into the same
# `_tower_code` products.

def _pair_kernels() -> dict:
    ns, table = dict(_CODE_NS), {}
    for (ka, fa), (kb, fb), op in product(_FIELDS.items(), _FIELDS.items(), ArithOp):
        wa, wb = len(fa), len(fb)
        w = max(wa, wb)
        if w == 1 or (w == 4 and op is ArithOp.POW):
            continue  # the scalar branch of `value_binop`, and _qpow below
        code = _read_code("a", wa) + _read_code("b", wb) + _tower_code("t", op, _comps("a", wa), _comps("b", wb))
        code += _build_code("t", w) + ["return t"]
        name = f"{op.name.lower()}_{ka.__name__.lower()}_{kb.__name__.lower()}"
        exec(f"def {name}(a, b):\n    " + "\n    ".join(code), ns)
        table[op, ka, kb] = ns[name]
    return table


_PAIR_KERNELS = _pair_kernels()
_hamilton = _PAIR_KERNELS[ArithOp.MUL, Quaternion, Quaternion]


def _qpow(a: Quaternion, b: Scalar) -> Quaternion:
    if not (math.isfinite(b.x) and b.x == int(b.x) and b.x >= 0):
        raise UnsupportedPowError(
            "quaternion power is defined only for non-negative integer exponents"
        )
    n = int(b.x)
    acc = _quat(1.0, 0.0, 0.0, 0.0)
    base = a
    while n:  # square-and-multiply; associativity makes this the repeated product
        if n & 1:
            acc = _hamilton(acc, base)
        n >>= 1
        if n:  # the last bit needs no further square
            base = _hamilton(base, base)
    return acc


_PAIR_KERNELS[ArithOp.POW, Quaternion, Scalar] = _qpow


def _kind(v: object) -> type | None:
    """The tower kind (Scalar, Complex or Quaternion) that v's type derives from."""
    return next((t for t in type(v).__mro__ if t in _FIELDS), None)


def value_binop(op: ArithOp, a: Value, b: Value) -> Value:
    """Combine two values under `op`, promoting along the numeric tower."""
    if isinstance(a, Scalar) and isinstance(b, Scalar):
        raw, repair = _REAL_OPS[op]
        try:
            return _scalar(raw(a.x, b.x))
        except (ArithmeticError, ValueError):
            return _scalar(repair(a.x, b.x))
    kernel = _PAIR_KERNELS.get((op, type(a), type(b)))
    if kernel is not None:
        return kernel(a, b)
    if isinstance(a, Vector) or isinstance(b, Vector):
        if isinstance(a, (Complex, Quaternion)) or isinstance(b, (Complex, Quaternion)):
            raise KindMismatchError(
                "vectors combine only with scalars or equal-length vectors"
            )
        x = a.xs if isinstance(a, Vector) else repeat(a.x)
        y = b.xs if isinstance(b, Vector) else repeat(b.x)
        if isinstance(a, Vector) and isinstance(b, Vector) and len(x) != len(y):
            raise LengthMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
        return _vector(_map_ieee(*_REAL_OPS[op], x, y, screen=_nan_bases if op is ArithOp.POW else None))
    kernel = _PAIR_KERNELS.get((op, _kind(a), _kind(b)))  # subclasses of the tower kinds
    if kernel is not None:
        return kernel(a, b)
    if op is ArithOp.POW and isinstance(a, Quaternion):
        raise UnsupportedPowError("quaternion power needs a scalar exponent")
    if op is ArithOp.POW and isinstance(b, Quaternion):
        raise UnsupportedPowError("quaternion exponents are not supported")
    raise TypeError(f"not numeric tower values: {type(a).__name__} {op.value} {type(b).__name__}")


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
# behaviour numeric users expect from log(-1) or exp(1000).  Each is stored
# by the kernel contract above: the C function and the answer where it raises.

def _nan(x: float) -> float:
    return math.nan


def _inf(x: float) -> float:
    return math.inf


def _signed_inf(x: float) -> float:
    return math.copysign(math.inf, x)


def _log_raised(x: float) -> float:
    return -math.inf if x == 0.0 else math.nan


def _k_floor(x: float) -> float:
    return float(math.floor(x)) if math.isfinite(x) else x


def _k_ceiling(x: float) -> float:
    return float(math.ceil(x)) if math.isfinite(x) else x


# name -> (C function, IEEE answer where it raises); None where it never raises
_SCALAR_KERNELS = {
    "sin": (math.sin, _nan),
    "cos": (math.cos, _nan),
    "tan": (math.tan, _nan),
    "asin": (math.asin, _nan),
    "acos": (math.acos, _nan),
    "atan": (math.atan, None),
    "sinh": (math.sinh, _signed_inf),
    "cosh": (math.cosh, _inf),
    "tanh": (math.tanh, None),
    "exp": (math.exp, _inf),
    "log": (math.log, _log_raised),
    "sqrt": (math.sqrt, _nan),
    "abs": (math.fabs, None),
    "floor": (_k_floor, None),  # no C form: a Python frame per element
    "ceiling": (_k_ceiling, None),
}


def _total(name: str, x: float) -> float:
    """The real builtin `name` at x, repaired where its C function raises."""
    raw, repair = _SCALAR_KERNELS[name]
    try:
        return raw(x)
    except (ArithmeticError, ValueError):
        return repair(x)


# scan -> (operator, its identity): starting from the identity keeps the first
# element 0.0 + x or 1.0 * x
_SCAN_KERNELS = {"cumsum": (ArithOp.ADD, 0.0), "cumprod": (ArithOp.MUL, 1.0)}

# principal-branch complex extensions, only where the surface language needs them
_COMPLEX_KERNELS = {
    "exp": lambda a: _complex(*_cexp_parts(a.re, a.im)),
    "log": lambda a: _complex(*_clog_parts(a.re, a.im)),
    "sqrt": lambda a: _complex(*_cpow_parts(a.re, a.im, 0.5, 0.0)),
    "sin": lambda a: _complex(
        _total("sin", a.re) * _total("cosh", a.im),
        _total("cos", a.re) * _total("sinh", a.im),
    ),
    "cos": lambda a: _complex(
        _total("cos", a.re) * _total("cosh", a.im),
        -_total("sin", a.re) * _total("sinh", a.im),
    ),
}

# kernel-table order, which seeded draws over `algebra.PRIMITIVES` depend on
BUILTIN_ORDER = tuple(_SCALAR_KERNELS) + tuple(_SCAN_KERNELS)
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
        op, start = _SCAN_KERNELS[name]
        return _vector(tuple(accumulate(a.xs, _REAL_OPS[op][0], initial=start))[1:])

    kernel = _SCALAR_KERNELS.get(name)
    if kernel is None:
        raise UnknownPrimitiveError(f"unknown primitive '{name}'")
    raw, repair = kernel
    if isinstance(a, Scalar):
        try:
            x = raw(a.x)
        except (ArithmeticError, ValueError):
            x = repair(a.x)
        return _scalar(x)
    if isinstance(a, Vector):
        return _vector(_map_ieee(raw, repair, a.xs))
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
    if isinstance(a, Vector):
        return len(a.xs) == len(b.xs) and all(map(_same_real, a.xs, b.xs))
    return all(_same_real(getattr(a, f), getattr(b, f)) for f in _FIELDS[_kind(a)])
