"""funcalg: arithmetic and composition on functions as first-class values.

Function expressions combine pointwise — `(f + g)(x)` is `f(x) + g(x)` —
and calling one with function arguments composes instead of evaluating.
Evaluation runs over a numeric tower of scalars, vectors, complex numbers
and quaternions, either by walking the tree or through a compiled
stack-machine program, and a small expression language with a REPL sits
on top.

>>> from funcalg import params, builtin
>>> x, = params(1)
>>> f = x * x
>>> g = 1 / (1 - x)
>>> (f + g)(2)
Scalar(x=3.0)
>>> fun = x * x + 2
>>> fun(builtin("sin"))(0.32)          # composition: sin(t)^2 + 2 at 0.32
Scalar(x=2.0989521210578537)
"""

from .algebra import (
    Apply,
    Arg,
    Arity,
    BinOp,
    Const,
    Def,
    FuncExpr,
    Leaf,
    Neg,
    POLYMORPHIC,
    PRIMITIVES,
    Prim,
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
)
from .cli import Session, SessionConfig, eval_once, main, run_repl, run_script
from .errors import (
    ArityMismatchError,
    BackendMismatchError,
    FuncalgError,
    InvalidProgramError,
    KindMismatchError,
    LengthMismatchError,
    LexError,
    NestingError,
    ParseError,
    UnknownIdentifierError,
    UnknownPrimitiveError,
    UnsupportedKindError,
    UnsupportedPowError,
)
from .parser import (
    BareExpression,
    ConstDef,
    Env,
    FunctionDef,
    ReplCommand,
    Statement,
    Token,
    parse_command,
    parse_expression,
    parse_statement,
    parse_statements,
    print_expr,
    tokenize,
)
from .values import (
    ArithOp,
    Complex,
    Quaternion,
    Scalar,
    Value,
    Vector,
    apply_builtin,
    format_value,
    same_value,
    value_binop,
    value_neg,
)
from .vm import BenchReport, Instr, Op, Program, bench, compile_expr, run

__version__ = "0.1.0"

__all__ = [
    "Apply",
    "Arg",
    "ArithOp",
    "Arity",
    "ArityMismatchError",
    "BackendMismatchError",
    "BareExpression",
    "BenchReport",
    "BinOp",
    "Complex",
    "Const",
    "ConstDef",
    "Def",
    "Env",
    "FuncExpr",
    "FuncalgError",
    "FunctionDef",
    "Instr",
    "InvalidProgramError",
    "KindMismatchError",
    "Leaf",
    "LengthMismatchError",
    "LexError",
    "Neg",
    "Op",
    "POLYMORPHIC",
    "PRIMITIVES",
    "NestingError",
    "ParseError",
    "Prim",
    "Program",
    "Quaternion",
    "ReplCommand",
    "Scalar",
    "Session",
    "SessionConfig",
    "Statement",
    "Token",
    "UnknownIdentifierError",
    "UnknownPrimitiveError",
    "UnsupportedKindError",
    "UnsupportedPowError",
    "Value",
    "Vector",
    "apply",
    "apply_builtin",
    "apply_expr",
    "arity_of",
    "bench",
    "builtin",
    "combine",
    "compile_expr",
    "const_expr",
    "eval_once",
    "evaluate",
    "evaluate_constant",
    "format_value",
    "lift_function",
    "main",
    "negate",
    "params",
    "parse_command",
    "parse_expression",
    "parse_statement",
    "parse_statements",
    "print_expr",
    "run",
    "run_repl",
    "run_script",
    "same_value",
    "tokenize",
    "value_binop",
    "value_neg",
]
