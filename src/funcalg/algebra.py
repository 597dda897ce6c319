"""Function expressions: immutable trees with pointwise arithmetic.

A FuncExpr represents a function of n arguments (or of any number of
arguments, for constants).  Arithmetic between function expressions is
lifted pointwise, so `f + g` is the function mapping args to
`f(args) + g(args)`; the argument list is written once and both operands
receive it.  Calling a function expression with value arguments evaluates
it; calling it with function arguments builds a composition node instead,
which is itself a function expression.

Trees are lazy: construction never invokes a leaf body.  They are also
immutable, may share subtrees, and are safe to share across threads as
long as leaf bodies are pure.  Parameters are `Arg` nodes, user
definitions are `Def` nodes holding their body, host callables are `Leaf`s.
Each node class evaluates itself: its `_eval(args)` method calls its children's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

from .errors import ArityMismatchError, UnknownPrimitiveError
from .values import (
    ArithOp,
    BUILTIN_NAMES,
    BUILTIN_ORDER,
    Complex,
    Scalar,
    Value,
    apply_builtin,
    value_binop,
    value_neg,
)


@dataclass(frozen=True)
class Arity:
    """Number of arguments an expression expects; n=None matches any count."""

    n: int | None

    def __post_init__(self):
        if self.n is not None and (type(self.n) is bool or not isinstance(self.n, int)):
            raise TypeError(f"an arity is an int or None, not {type(self.n).__name__}")
        if self.n is not None and self.n < 1:
            raise ValueError("fixed arity must be at least 1")

    @property
    def is_fixed(self) -> bool:
        return self.n is not None

    def accepts(self, count: int) -> bool:
        return count >= 1 and (self.n is None or self.n == count)

    def __str__(self) -> str:
        return "any" if self.n is None else str(self.n)


POLYMORPHIC = Arity(None)


def _join(a: Arity, b: Arity) -> Arity:
    if a.n is None:
        return b
    if b.n is None or b.n == a.n:
        return a
    raise ArityMismatchError(
        f"cannot combine a {a.n}-argument function with a {b.n}-argument function"
    )


ArgLike = Union["FuncExpr", Value, int, float, complex]


def _as_expr(obj: ArgLike) -> "FuncExpr":
    if isinstance(obj, FuncExpr):
        return obj
    return Const(_as_value(obj))


def _as_value(obj) -> Value:
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, bool):
        raise TypeError("booleans are not values")
    if isinstance(obj, (int, float)):
        return Scalar(float(obj))
    if isinstance(obj, complex):
        return Complex(obj.real, obj.imag)
    raise TypeError(f"cannot use {type(obj).__name__} as a value")


class FuncExpr:
    """Base class of expression nodes; provides the lifted operators.

    `f + g`, `f * 2`, `-f` etc. build new trees, and `f(...)` either
    evaluates (value arguments) or composes (function arguments).
    """

    arity: Arity

    def __add__(self, other):
        return combine(ArithOp.ADD, self, _as_expr(other))

    def __radd__(self, other):
        return combine(ArithOp.ADD, _as_expr(other), self)

    def __sub__(self, other):
        return combine(ArithOp.SUB, self, _as_expr(other))

    def __rsub__(self, other):
        return combine(ArithOp.SUB, _as_expr(other), self)

    def __mul__(self, other):
        return combine(ArithOp.MUL, self, _as_expr(other))

    def __rmul__(self, other):
        return combine(ArithOp.MUL, _as_expr(other), self)

    def __truediv__(self, other):
        return combine(ArithOp.DIV, self, _as_expr(other))

    def __rtruediv__(self, other):
        return combine(ArithOp.DIV, _as_expr(other), self)

    def __pow__(self, other):
        return combine(ArithOp.POW, self, _as_expr(other))

    def __rpow__(self, other):
        return combine(ArithOp.POW, _as_expr(other), self)

    def __neg__(self):
        return negate(self)

    def __call__(self, *args: ArgLike):
        return apply(self, args)

    def _eval(self, args: tuple[Value, ...]) -> Value:
        raise TypeError(f"not a function expression: {self!r}")


@dataclass(frozen=True)
class Leaf(FuncExpr):
    """A lifted host function of fixed arity; `body` maps Values to a Value."""

    name: str
    arity: Arity
    body: Callable[..., Value]

    def __post_init__(self):
        if not self.arity.is_fixed:
            raise ValueError("a leaf needs a fixed arity")

    def _eval(self, args):
        return self.body(*args)


@dataclass(frozen=True)
class Arg(FuncExpr):
    """Parameter i of an n-argument function; `name` is only for printing."""

    i: int
    arity: Arity
    name: str = field(compare=False)

    def __post_init__(self):
        if not 0 <= self.i < (self.arity.n or 0):
            raise ValueError("a parameter index must be below a fixed arity")

    def _eval(self, args):
        return args[self.i]


@dataclass(frozen=True, eq=False)
class Def(FuncExpr):
    """A named definition evaluating `body` on its arguments; equal only to itself.
    `call` is its VM instruction (CALL_DEF), set by the first `compile_expr`."""

    name: str
    arity: Arity
    body: FuncExpr
    call: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.body.arity.is_fixed and self.body.arity != self.arity:
            raise ArityMismatchError(
                f"body of '{self.name}' takes {self.body.arity} argument(s), "
                f"not {self.arity}"
            )

    def _eval(self, args):
        return self.body._eval(args)


@dataclass(frozen=True)
class Const(FuncExpr):
    """A constant function: evaluation ignores the arguments."""

    v: Value
    arity: Arity = field(init=False, default=POLYMORPHIC, repr=False, compare=False)

    def _eval(self, args):
        return self.v


@dataclass(frozen=True)
class Prim(FuncExpr):
    """A registry-backed builtin (sin, log, cumsum, ...); always unary."""

    name: str
    arity: Arity = field(init=False, default=Arity(1), repr=False, compare=False)

    def __post_init__(self):
        if self.name not in BUILTIN_NAMES:
            raise UnknownPrimitiveError(f"unknown primitive '{self.name}'")

    def _eval(self, args):
        return apply_builtin(self.name, args[0])


PRIMITIVES: tuple[str, ...] = BUILTIN_ORDER

_PRIM_NODES = {name: Prim(name) for name in PRIMITIVES}


def builtin(name: str) -> FuncExpr:
    """Look up a builtin by name (case-insensitive); returns its Prim node.

    Builtins combine and compose like any function expression:
    `builtin("sin") + builtin("log")` is a unary function expression.  The
    registry is fixed; user functions go through `lift_function`.
    """
    node = _PRIM_NODES.get(name.lower())
    if node is None:
        raise UnknownPrimitiveError(f"unknown primitive '{name}'")
    return node


@dataclass(frozen=True)
class BinOp(FuncExpr):
    """Pointwise arithmetic between two operand expressions."""

    op: ArithOp
    e1: FuncExpr
    e2: FuncExpr
    arity: Arity = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arity", _join(self.e1.arity, self.e2.arity))

    def _eval(self, args):
        # both operands get the identical args: the argument list is factored out
        return value_binop(self.op, self.e1._eval(args), self.e2._eval(args))


@dataclass(frozen=True)
class Neg(FuncExpr):
    """Pointwise negation of an operand expression."""

    e: FuncExpr
    arity: Arity = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arity", self.e.arity)

    def _eval(self, args):
        return value_neg(self.e._eval(args))


@dataclass(frozen=True)
class Apply(FuncExpr):
    """Composition: the callee applied to argument expressions.

    Evaluating at args first evaluates every argument expression at args,
    then evaluates the callee on those results.
    """

    callee: FuncExpr
    args: tuple[FuncExpr, ...]
    arity: Arity = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        args = tuple(self.args)
        object.__setattr__(self, "args", args)
        if not args:
            raise ArityMismatchError("a call needs at least one argument")
        if not self.callee.arity.accepts(len(args)):
            raise ArityMismatchError(
                f"callee expects {self.callee.arity} argument(s), got {len(args)}"
            )
        common = POLYMORPHIC
        for a in args:
            common = _join(common, a.arity)
        object.__setattr__(self, "arity", common)

    def _eval(self, args):
        # arguments left to right, then the callee; one argument, one frame
        a = self.args
        if len(a) == 1:
            return self.callee._eval((a[0]._eval(args),))
        return self.callee._eval(tuple([x._eval(args) for x in a]))


# ---------------------------------------------------------------------------
# Constructors.

def lift_function(name: str, arity: int, body: Callable[..., Value]) -> FuncExpr:
    """Wrap a host callable of `arity` Value parameters as a leaf expression.

    An exception from `body` that is not a `FuncalgError` propagates
    unchanged (the same object) through `evaluate` and `run`; the CLI
    reports it in one line with exit status 2."""
    return Leaf(name, Arity(arity), body)


def const_expr(v: Value) -> FuncExpr:
    """Wrap a value as a constant function (polymorphic arity)."""
    return Const(v)


def combine(op: ArithOp, e1: FuncExpr, e2: FuncExpr) -> FuncExpr:
    """Lift `op` pointwise over two expressions of compatible arity."""
    return BinOp(op, e1, e2)


def negate(e: FuncExpr) -> FuncExpr:
    """Pointwise negation; negating a constant folds into the constant."""
    if isinstance(e, Const):
        return Const(value_neg(e.v))
    return Neg(e)


def apply_expr(callee: FuncExpr, args: Sequence[FuncExpr]) -> FuncExpr:
    """Build a composition node applying `callee` to argument expressions."""
    return Apply(callee, tuple(args))


def params(n: int) -> tuple[FuncExpr, ...]:
    """Parameter nodes for building n-argument function bodies.

    `x, y = params(2)` gives expressions with x(a, b) = a and y(a, b) = b,
    so `x + x*y` is the function (a, b) -> a + a*b.
    """
    return tuple(Arg(i, Arity(n), f"x{i}") for i in range(n))


def arity_of(e: FuncExpr) -> Arity:
    return e.arity


# ---------------------------------------------------------------------------
# Evaluation.

def evaluate(e: FuncExpr, args: Sequence[Value]) -> Value:
    """Evaluate an expression tree on a concrete argument list.

    Pure: no side effects beyond whatever the leaf bodies do (they are pure
    by contract).  Shared subtrees are re-evaluated, not cached.
    """
    argtuple = tuple(args)
    if not e.arity.accepts(len(argtuple)):
        raise ArityMismatchError(
            f"expression expects {e.arity} argument(s), got {len(argtuple)}"
        )
    return e._eval(argtuple)


def evaluate_constant(e: FuncExpr) -> Value:
    """Evaluate a polymorphic-arity tree, whose result ignores the arguments."""
    if e.arity.is_fixed:
        raise ArityMismatchError(
            f"expression expects {e.arity} argument(s); it is not a constant"
        )
    return e._eval((Scalar(0.0),))


def apply(e: FuncExpr, args: Sequence[ArgLike]) -> Value | FuncExpr:
    """Call an expression: evaluate on values, compose on function arguments.

    With only value arguments this evaluates and returns a Value.  If any
    argument is a function expression, the values are promoted to constants
    and a composition node is returned, satisfying
    `evaluate(apply(e, a), ys) == evaluate(e, [evaluate(ai, ys) ...])`.
    """
    if not args:
        raise ArityMismatchError("a call needs at least one argument")
    if any(isinstance(a, FuncExpr) for a in args):
        return apply_expr(e, tuple(_as_expr(a) for a in args))
    return evaluate(e, tuple(_as_value(a) for a in args))
