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

import linecache
import math
import operator
import zlib
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

__all__ = [
    "ArithOp", "Complex", "Quaternion", "Scalar", "Value", "Vector",
    "apply_builtin", "format_value", "same_value", "value_binop", "value_neg",
]


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
# `_vector` stores them as is, as the generated kernels below store their
# floats (`_build_code`).  Host inputs go through the constructors.
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
# NaN components instead of raising.  The `^` and `sqrt` kernels and the
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
# `_tower_code` and `_prim_code` write each operator at each pair of widths and
# each builtin and negation at each width as statements on them (a raise where
# it is not defined), promoting by padding the narrower operand with 0.0.  The
# kernels `_BINOPS` and `_BUILTINS` and the lanes of `vm` are all generated
# from these, in the namespace `_CODE_NS` with the real kernels,
# so they do the same IEEE operations in the same order and raise the same
# errors; `_define` compiles each and keeps its source: a kernel on its first
# call (`_Lazy`), a lane when `vm` builds it.

# The value types held as float fields, and their fields; `_WIDTH_KINDS[w]`
# is the type of width w.
_FIELDS = {t: t.__slots__ for t in (Scalar, Complex, Quaternion)}
_WIDTH_KINDS = {len(f): t for t, f in _FIELDS.items()}

# The names that generated code calls, other than the real kernels (`_real_kernels`):
# `new(kind{w})` makes a bare value of width w, and `set{w}_{j}` stores its
# field j as is (kernel results are already floats).
_CODE_NS = {"new": object.__new__, "cpow": _cpow_parts, "cexp": _cexp_parts, "clog": _clog_parts,
            "hypot": math.hypot, "UnsupportedPowError": UnsupportedPowError, "UnsupportedKindError": UnsupportedKindError,
            **{f"kind{len(fs)}": t for t, fs in _FIELDS.items()},
            **{f"set{len(fs)}_{j}": getattr(t, f).__set__ for t, fs in _FIELDS.items() for j, f in enumerate(fs)}}


def _define(name: str, head: str, body: list[str], ns: dict):
    """Compile `def name(head):` with the statements body in the namespace
    ns and return the function.  Its source stays in `linecache` as
    `<funcalg NAME 1a2b3c4d>` (a CRC-32 of it), for tracebacks and inspect."""
    source = f"def {name}({head}):\n" + "".join(f"    {s}\n" for s in body)
    file = f"<funcalg {name} {zlib.crc32(source.encode()):08x}>"
    linecache.cache[file] = (len(source), None, source.splitlines(True), file)
    exec(compile(source, file, "exec"), ns)
    return ns[name]


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


# component templates per (operator, width) on the operands' components a
# and b, each of that width; a complex / gives the numerators over the
# divisor's squared norm, and a quaternion / is written by `_tower_code` as
# the Hamilton product with the divisor's inverse.  Real / and ^ are
# `_REAL_OPS` kernels, complex ^ is `cpow` and quaternion ^ is `_qpow_code`.
_TOWER_OPS = {
    **{(op, w): tuple(f"{{a[{j}]}} {op.value} {{b[{j}]}}" for j in range(w))
       for op in (ArithOp.ADD, ArithOp.SUB) for w in (1, 2, 4)},
    (ArithOp.MUL, 1): ("{a[0]} * {b[0]}",),
    (ArithOp.MUL, 2): ("{a[0]} * {b[0]} - {a[1]} * {b[1]}", "{a[0]} * {b[1]} + {a[1]} * {b[0]}"),
    (ArithOp.DIV, 2): ("{a[0]} * {b[0]} + {a[1]} * {b[1]}", "{a[1]} * {b[0]} - {a[0]} * {b[1]}"),
    (ArithOp.MUL, 4): (  # the Hamilton product, which is not commutative
        "{a[0]} * {b[0]} - {a[1]} * {b[1]} - {a[2]} * {b[2]} - {a[3]} * {b[3]}",
        "{a[0]} * {b[1]} + {a[1]} * {b[0]} + {a[2]} * {b[3]} - {a[3]} * {b[2]}",
        "{a[0]} * {b[2]} - {a[1]} * {b[3]} + {a[2]} * {b[0]} + {a[3]} * {b[1]}",
        "{a[0]} * {b[3]} + {a[1]} * {b[2]} - {a[2]} * {b[1]} + {a[3]} * {b[0]}",
    ),
}


def _tower_code(t: str, op: ArithOp, xs: list[str], ys: list[str], const: Value | None = None) -> list[str]:
    """Statements that bind t_0 .. t_{w-1} to `xs op ys` on the component
    expressions xs and ys, the narrower padded with 0.0 to the width w of the
    wider, by `_TOWER_OPS`; a real `/` or `^` is `_real_code`, a complex `^`
    calls `cpow`, and a quaternion one is `_qpow_code` by ys[0], a Scalar's
    name, or a raise for a wider exponent.  A complex or quaternion `/` binds
    the divisor's squared norm tn and divides by it: a complex one's
    numerators, a quaternion one's divisor to its inverse ti0 .. ti3, testing
    tn once: plain `/` where tn is nonzero (NaN and infinity too), `/`'s
    repair r_DIV where it is zero.  const is ys's value where the caller
    knows it (a lane's constant), and two constant Scalar exponents differ:
    a quaternion `^` by one is `_qpow_code` by its value, and a real `^` by a
    finite non-integer maps a negative finite base to NaN, the repair's
    answer, without a raise."""
    w = max(len(xs), len(ys))
    if op is ArithOp.POW and w == 4 and len(ys) > 1:
        why = "quaternion power needs a scalar exponent" if len(xs) == 4 else "quaternion exponents are not supported"
        return [f"raise UnsupportedPowError({why!r})"]
    xs, ys = (list(v) + ["0.0"] * (w - len(v)) for v in (xs, ys))
    e = const.x if op is ArithOp.POW and type(const) is Scalar else None
    if w == 1 and (op, w) not in _TOWER_OPS:  # real / and ^
        raw = f"nan if -inf < {xs[0]} < 0.0 else k_POW({xs[0]}, {ys[0]})" if e and math.isfinite(e) and not e.is_integer() else ""
        return _real_code(t, op.name, _REAL_OPS[op], xs + ys, raw)
    if op is ArithOp.POW:
        return [f"{t}_0, {t}_1 = cpow({', '.join(xs + ys)})"] if w == 2 else _qpow_code(t, xs, ys[0], e)
    if op is not ArithOp.DIV:
        return [f"{t}_{j} = " + s.format(a=xs, b=ys) for j, s in enumerate(_TOWER_OPS[op, w])]
    if w == 2:
        names, nums = [f"{t}_0", f"{t}_1"], [s.format(a=xs, b=ys) for s in _TOWER_OPS[op, w]]
    else:
        names, nums = [f"{t}i{j}" for j in range(4)], [f"{'-' * (j > 0)}{c}" for j, c in enumerate(ys)]
    code = [f"{t}n = " + " + ".join(f"{c} * {c}" for c in ys),
            f"if {t}n: " + "; ".join(f"{x} = ({e}) / {t}n" for x, e in zip(names, nums)),
            "else: " + "; ".join(f"{x} = r_DIV({e}, {t}n)" for x, e in zip(names, nums))]
    return code if w == 2 else code + _tower_code(t, ArithOp.MUL, xs, names)


def _real_code(t: str, name: str, pair, xs: list[str], raw: str = "") -> list[str]:
    """Statements that bind t_0 to the real kernel `name`, whose `pair` is (C
    function, repair or None), on the scalars xs by the kernel contract: k_name
    (or raw, or `/` for truediv), and r_name only where that raises."""
    call = f"({', '.join(xs)})"
    raw = raw or (" / ".join(xs) if pair[0] is operator.truediv else f"k_{name}{call}")
    if pair[1] is None:
        return [f"{t}_0 = {raw}"]
    return [f"try: {t}_0 = {raw}", f"except (ArithmeticError, ValueError): {t}_0 = r_{name}{call}"]


# The largest constant exponent of a quaternion ^ that `_qpow_code` unrolls; up
# to it the unrolled code is at most 11 Hamilton products (for 63).
_POW_UNROLL = 64


def _qpow_code(t: str, xs: list[str], n: str, e: float | None = None) -> list[str]:
    """Statements that bind t_0 .. t_3 to the quaternion xs to the power n, a
    float's name, by square-and-multiply over `_tower_code`'s Hamilton product
    (associativity makes it the repeated product): where n's value e is known,
    unrolled up to `_POW_UNROLL` and a raise outside the domain; else a loop
    over n's bits, once n is checked to be a non-negative integer (else it
    raises), that squares a copy tb_0 .. tb_3 of xs (whose names a lane may
    share; one statement per component builds no tuple) until it is all NaN,
    as every later product then is: one more multiply ends it."""
    domain = "raise UnsupportedPowError('quaternion power is defined only for non-negative integer exponents')"
    if e is not None and not (e.is_integer() and e >= 0):
        return [domain]
    acc, code, k = ["1.0", "0.0", "0.0", "0.0"], [], 0
    if e is None or e > _POW_UNROLL:
        b = _comps(f"{t}b", 4)
        ts, ms, ss, bs = (", ".join(_comps(v, 4)) for v in (t, f"{t}m", f"{t}s", f"{t}b"))
        step = lambda u, x, y: ["        " + s for s in _tower_code(u, ArithOp.MUL, x, y)]
        return [f"if not ({n}.is_integer() and {n} >= 0):", f"    {domain}",
                f"{t}e = int({n})", f"{ts} = {', '.join(acc)}", *map("{} = {}".format, b, xs), f"while {t}e:",
                f"    if {t}e & 1:", *step(f"{t}m", _comps(t, 4), b), f"        {ts} = {ms}", f"    {t}e >>= 1",
                f"    if {t}e:", *step(f"{t}s", b, b), f"        {bs} = {ss}",
                f"        if {' and '.join(f'{x} != {x}' for x in b)}: {t}e = 1"]
    n = int(e)
    while n:
        if n & 1:
            code += _tower_code(f"{t}m{k}", ArithOp.MUL, acc, xs)
            acc = _comps(f"{t}m{k}", 4)
        n >>= 1
        if n:  # the last bit needs no further square
            code += _tower_code(f"{t}s{k}", ArithOp.MUL, xs, xs)
            xs = _comps(f"{t}s{k}", 4)
        k += 1
    return code + [f"{', '.join(_comps(t, 4))} = {', '.join(acc)}"]


# ---------------------------------------------------------------------------
# The operands that the generated kernels below have no branch for: vectors,
# subclasses of the tower kinds, and other values.

def _kind(v: object) -> type | None:
    """The tower kind (Scalar, Complex or Quaternion) that v's type derives from."""
    return next((t for t in type(v).__mro__ if t in _FIELDS), None)


def _outside(v: object) -> TypeError:  # for a value that is not a Vector and has no tower kind
    return TypeError(f"not a numeric tower value: {type(v).__name__}")


def _plain(v: Value, kind: type) -> Value:
    """v, of a subclass of the tower kind `kind`, as a `kind` of the same fields."""
    return kind(*[getattr(v, f) for f in _FIELDS[kind]])


def _binop_rest(op: ArithOp, a: Value, b: Value) -> Value:
    """`a op b` where `_BINOPS[op]` has no branch: vectors combine elementwise
    with scalars broadcast, and subclasses of the tower kinds as their kind."""
    if isinstance(a, Vector) or isinstance(b, Vector):
        if isinstance(a, (Complex, Quaternion)) or isinstance(b, (Complex, Quaternion)):
            raise KindMismatchError("vectors combine only with scalars or equal-length vectors")
        x = a.xs if isinstance(a, Vector) else repeat(a.x)
        y = b.xs if isinstance(b, Vector) else repeat(b.x)
        if isinstance(a, Vector) and isinstance(b, Vector) and len(x) != len(y):
            raise LengthMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
        return _vector(_map_ieee(*_REAL_OPS[op], x, y, screen=_nan_bases if op is ArithOp.POW else None))
    ka, kb = _kind(a), _kind(b)
    if ka and kb:
        return _BINOPS[op](_plain(a, ka), _plain(b, kb))
    raise TypeError(f"not numeric tower values: {type(a).__name__} {op.value} {type(b).__name__}")


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


# scan -> (operator, its identity): starting from the identity keeps the first
# element 0.0 + x or 1.0 * x
_SCAN_KERNELS = {"cumsum": (ArithOp.ADD, 0.0), "cumprod": (ArithOp.MUL, 1.0)}

# complex builtin -> its templates on the result t and the operand's components
# a, on the principal branch; sin and cos bind the real sin, cos, cosh and sinh
# by their contract to s_0, c_0, h_0 and g_0 and read them at once
_COMPLEX_OPS = {
    "exp": ("{t}_0, {t}_1 = cexp({a[0]}, {a[1]})",),
    "log": ("{t}_0, {t}_1 = clog({a[0]}, {a[1]})",),
    "sqrt": ("{t}_0, {t}_1 = cpow({a[0]}, {a[1]}, 0.5, 0.0)",),
    **{name: (*(s for v, k, j in (("s", "sin", 0), ("c", "cos", 0), ("h", "cosh", 1), ("g", "sinh", 1))
                for s in _real_code(v, k, _SCALAR_KERNELS[k], [f"{{a[{j}]}}"])), *parts)
       for name, parts in (("sin", ("{t}_0 = s_0 * h_0", "{t}_1 = c_0 * g_0")),
                           ("cos", ("{t}_0 = c_0 * h_0", "{t}_1 = -s_0 * g_0")))},
}

# kernel-table order, which seeded draws over `algebra.PRIMITIVES` depend on
BUILTIN_ORDER = tuple(_SCALAR_KERNELS) + tuple(_SCAN_KERNELS)
BUILTIN_NAMES = frozenset(BUILTIN_ORDER)


def _prim_code(t: str, name: str, xs: list[str]) -> tuple[list[str], int]:
    """Statements that bind t_0 .. to the builtin `name`, or to negation
    (`neg`), at the components xs of a Scalar, Complex or Quaternion, and
    the result's width: negation componentwise, a real kernel by its
    contract (`_real_code`), a complex one by `_COMPLEX_OPS`, a quaternion's
    norm by `hypot`, and a raise for every other kind."""
    w = len(xs)
    if name == "neg":
        return [f"{t}_{j} = -{x}" for j, x in enumerate(xs)], w
    if w == 1 and name in _SCALAR_KERNELS:
        return _real_code(t, name, _SCALAR_KERNELS[name], xs), 1
    if w == 2 and name in _COMPLEX_OPS:
        return [s.format(t=t, a=xs) for s in _COMPLEX_OPS[name]], 2
    if w == 4 and name == "abs":
        return [f"{t}_0 = hypot({', '.join(xs)})"], 1
    why = f"{name} needs a vector" if name in _SCAN_KERNELS else \
        f"{name} is not defined for {'complex values' if w == 2 else 'quaternions'}"
    return [f"raise UnsupportedKindError({why!r})"], w


def _builtin_rest(name: str, a: Value) -> Value:
    """The builtin `name` (or negation) at a, where `_BUILTINS[name]` has no
    branch: a vector's elements (a scan's running sums or products), and a
    subclass of a tower kind as its kind."""
    if isinstance(a, Vector):
        if name in _SCAN_KERNELS:
            op, start = _SCAN_KERNELS[name]
            return _vector(tuple(accumulate(a.xs, _REAL_OPS[op][0], initial=start))[1:])
        if name == "neg":  # never raises: no repair
            return _vector(tuple(map(operator.neg, a.xs)))
        return _vector(_map_ieee(*_SCALAR_KERNELS[name], a.xs))
    if kind := _kind(a):
        return _BUILTINS[name](_plain(a, kind))
    raise _outside(a)


# ---------------------------------------------------------------------------
# The kernels the tree walker calls, one generated function each: a branch per
# exact kind (pair) computes by `_tower_code` or `_prim_code`; unless that
# raises, it reads each field once first and builds its result after.  Other
# operands go to the rests above.

def _branch(reads: list[str], code: list[str], w: int) -> list[str]:
    """A kernel's branch: code alone if it raises, else the operands' reads,
    code, and the result t of width w built and returned."""
    return code if code[0].startswith("raise ") else reads + code + _build_code("t", w) + ["return t"]


def _binop_code(op: ArithOp) -> list[str]:
    code = ["ka = type(a)", "kb = type(b)"]
    for wa, wb in product(_WIDTH_KINDS, repeat=2):
        body = _branch(_read_code("a", wa) + _read_code("b", wb),
                       _tower_code("t", op, _comps("a", wa), _comps("b", wb)), max(wa, wb))
        code += [f"if ka is kind{wa}:"] * (wb == 1) + [f"    if kb is kind{wb}:", *("        " + s for s in body)]
    return code + [f"return binop_rest({op.name}, a, b)"]


def _builtin_code(name: str) -> list[str]:
    code = []
    for w in _WIDTH_KINDS:
        body = _branch(_read_code("a", w), *_prim_code("t", name, _comps("a", w)))
        code += [f"if type(a) is kind{w}:", *("    " + s for s in body)]
    return code + [f"return builtin_rest({name!r}, a)"]


def _real_kernels() -> dict:
    """Each real kernel's C function k_NAME and repair r_NAME, as the tables hold them now, and nan and inf."""
    pairs = [*((op.name, k) for op, k in _REAL_OPS.items()), *_SCALAR_KERNELS.items()]
    return {"nan": math.nan, "inf": math.inf, **{f"{p}_{name}": f for name, pair in pairs for p, f in zip("kr", pair)}}


class _Lazy:
    """A kernel table's entry until the kernel is first used: the first call
    (or read of `__wrapped__`, which `inspect` follows) compiles `make(key)`
    and stores it in the entry's slot, if the slot still holds the entry (a
    replacement, such as a test's spy, stays).  The tables stay exact dicts,
    whose lookups CPython specializes.  Two threads that first call one
    kernel together each compile it; either one is correct."""

    __slots__ = ("table", "key", "make", "kernel")

    def __init__(self, table: dict, key, make):
        self.table, self.key, self.make, self.kernel = table, key, make, None

    @property
    def __wrapped__(self):
        if self.kernel is None:
            self.kernel = self.make(self.key)
        if self.table.get(self.key) is self:
            self.table[self.key] = self.kernel
        return self.kernel

    def __call__(self, *args):
        return self.__wrapped__(*args)


def _lazy_table(keys, make) -> dict:
    """A dict of every key, each entry a `_Lazy` that compiles `make(key)`."""
    table = {}
    for key in keys:
        table[key] = _Lazy(table, key, make)
    return table


_KERNEL_NS = {**_CODE_NS, "binop_rest": _binop_rest, "builtin_rest": _builtin_rest,
              **{op.name: op for op in ArithOp}, **_real_kernels()}
_BINOPS = _lazy_table(ArithOp, lambda op: _define(op.name.lower(), "a, b", _binop_code(op), _KERNEL_NS))
# negation's kernel is "neg", which names no builtin: it is not in BUILTIN_NAMES
_BUILTINS = _lazy_table((*BUILTIN_ORDER, "neg"), lambda name: _define(name, "a", _builtin_code(name), _KERNEL_NS))


def value_binop(op: ArithOp, a: Value, b: Value) -> Value:
    """Combine two values under `op`, promoting along the numeric tower."""
    return _BINOPS[op](a, b)


def value_neg(a: Value) -> Value:
    """Componentwise negation; the value kind is preserved."""
    return _BUILTINS["neg"](a)


def apply_builtin(name: str, a: Value) -> Value:
    """Apply the named builtin kernel to a value.

    Scalars use the scalar kernel, vectors map it elementwise (except the
    prefix scans cumsum/cumprod, which are vector-to-vector), complex values
    support exp, log, sqrt, sin and cos, and quaternions support only abs
    (the norm).
    """
    if name not in BUILTIN_NAMES:
        raise UnknownPrimitiveError(f"unknown primitive '{name}'")
    return _BUILTINS[name](a)


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
    if not isinstance(v, Quaternion):
        raise _outside(v)
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
    kind = _kind(a)
    if kind is None:
        raise _outside(a)
    return all(_same_real(getattr(a, f), getattr(b, f)) for f in _FIELDS[kind])
