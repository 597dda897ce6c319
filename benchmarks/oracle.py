"""Independent host-arithmetic oracle for the workload expressions.

Nothing here imports funcalg.  Workload expressions are written once as
small tuples (the "spec" form below); `evaluate` computes their value with
Python floats, complex numbers, 4-tuples for quaternions and lists for
vectors.  Where the oracle performs the same IEEE operations in the same
order as the engine (real arithmetic, vectors, the Hamilton product,
quaternion division by the inverse) results are compared exactly;
complex division, every power of a complex or quaternion value and every
builtin are compared at `REL_TOL`, as tests/test_acceptance.py does.

Spec nodes:

    ("arg", i)                   i-th argument of the enclosing function
    ("const", v)                 a host value
    ("bin", op, a, b)            op in + - * / ^, applied pointwise
    ("prim", name)               unary builtin, applied to argument 0
    ("call", callee, (a1, ..))   composition: callee at the values of a1..
"""

from __future__ import annotations

import math
from typing import NamedTuple

REL_TOL = 1e-9  # relative error allowed where the oracle's arithmetic differs
ABS_TOL = 1e-12


class Quat(NamedTuple):
    w: float
    x: float
    y: float
    z: float


# ---------------------------------------------------------------------------
# Real arithmetic with IEEE results where Python would raise.

def _div(a: float, b: float) -> float:
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _pow(a: float, b: float) -> float:
    try:
        r = a**b
    except (OverflowError, ZeroDivisionError):
        odd = math.isfinite(b) and b == int(b) and int(b) % 2 == 1
        return -math.inf if (math.copysign(1.0, a) < 0 and odd) else math.inf
    return math.nan if isinstance(r, complex) else float(r)


_REAL = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
    "^": _pow,
}


def _hamilton(a: Quat, b: Quat) -> Quat:
    return Quat(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def _as_quat(v) -> Quat:
    if isinstance(v, Quat):
        return v
    if isinstance(v, complex):
        return Quat(v.real, v.imag, 0.0, 0.0)
    return Quat(v, 0.0, 0.0, 0.0)


def _quat_op(op: str, a, b, flags: list) -> Quat:
    if op == "^":
        flags[0] = False
        if not isinstance(a, Quat) or isinstance(b, (Quat, complex)) or b != int(b) or b < 0:
            raise ValueError("quaternion powers need a non-negative integer exponent")
        acc = Quat(1.0, 0.0, 0.0, 0.0)
        for _ in range(int(b)):
            acc = _hamilton(acc, a)
        return acc
    a, b = _as_quat(a), _as_quat(b)
    if op == "+":
        return Quat(a.w + b.w, a.x + b.x, a.y + b.y, a.z + b.z)
    if op == "-":
        return Quat(a.w - b.w, a.x - b.x, a.y - b.y, a.z - b.z)
    if op == "*":
        return _hamilton(a, b)
    n2 = b.w * b.w + b.x * b.x + b.y * b.y + b.z * b.z
    return _hamilton(a, Quat(b.w / n2, -b.x / n2, -b.y / n2, -b.z / n2))


_COMPLEX_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,  # Smith's algorithm: not the engine's formula
    "^": lambda a, b: a**b,
}


def binop(op: str, a, b, flags: list):
    """Pointwise `a op b` on host values; clears flags[0] if inexact."""
    if isinstance(a, list) or isinstance(b, list):
        real = _REAL[op]
        if isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                raise ValueError("vector lengths differ")
            return [real(x, y) for x, y in zip(a, b)]
        if isinstance(a, list):
            return [real(x, b) for x in a]
        return [real(a, y) for y in b]
    if isinstance(a, Quat) or isinstance(b, Quat):
        return _quat_op(op, a, b, flags)
    if isinstance(a, complex) or isinstance(b, complex):
        if op in "/^":
            flags[0] = False
        return _COMPLEX_OPS[op](complex(a), complex(b))
    return _REAL[op](a, b)


def _total(fn):
    def kernel(x: float) -> float:
        try:
            return fn(x)
        except ValueError:  # outside the domain
            return math.nan
        except OverflowError:  # exp only, among the kernels below
            return math.inf

    return kernel


_total_log = _total(math.log)


def _log(x: float) -> float:
    return -math.inf if x == 0.0 else _total_log(x)


# the builtins the workloads use, as the engine's real kernels define them
_SCALAR = {name: _total(getattr(math, name)) for name in ("sin", "cos", "tan", "atan", "tanh", "exp")}
_SCALAR.update(log=_log, abs=math.fabs)


def builtin(name: str, v, flags: list):
    """A builtin of a real scalar, or elementwise of a vector; cumsum scans."""
    flags[0] = False
    if name == "cumsum":
        out, acc = [], 0.0
        for x in v:
            acc = acc + x
            out.append(acc)
        return out
    if isinstance(v, list):
        return [_SCALAR[name](x) for x in v]
    return _SCALAR[name](v)


def evaluate(node, args: tuple, flags: list):
    """Value of spec `node` at host `args`; flags[0] stays True while every
    operation performed is one the engine performs identically."""
    kind = node[0]
    if kind == "arg":
        return args[node[1]]
    if kind == "const":
        return node[1]
    if kind == "bin":
        return binop(node[1], evaluate(node[2], args, flags), evaluate(node[3], args, flags), flags)
    if kind == "prim":
        return builtin(node[1], args[0], flags)
    if kind == "call":
        vals = tuple(evaluate(a, args, flags) for a in node[2])
        return evaluate(node[1], vals, flags)
    raise ValueError(f"unknown spec node {kind!r}")


def expect(node, args: tuple):
    """(value, exact) for spec `node` at `args`."""
    flags = [True]
    value = evaluate(node, args, flags)
    return value, flags[0]


# ---------------------------------------------------------------------------
# Comparison against engine results given as host components.

def _same(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


def _close(got: float, want: float) -> bool:
    if not (math.isfinite(got) and math.isfinite(want)):
        return _same(got, want)
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _parts(v) -> tuple:
    if isinstance(v, complex):
        return (v.real, v.imag)
    return tuple(v) if isinstance(v, Quat) else (v,)


def matches(got, want, exact: bool) -> bool:
    """Does host value `got` (converted from the engine) equal `want`?

    Exact comparison is NaN-class equality per component, as the engine's
    same_value.  Otherwise vectors compare per element at REL_TOL, and
    scalars, complex and quaternion values by the relative Euclidean error
    of the whole value."""
    if type(got) is not type(want):
        return False
    if isinstance(want, list):
        same = _same if exact else _close
        return len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    g, w = _parts(got), _parts(want)
    if exact or not all(math.isfinite(p) for p in g + w):
        return all(_same(a, b) for a, b in zip(g, w))
    err = math.sqrt(sum((a - b) ** 2 for a, b in zip(g, w)))
    return err <= REL_TOL * math.sqrt(sum(b * b for b in w)) + ABS_TOL
