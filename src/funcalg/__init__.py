"""funcalg: arithmetic and composition on functions as first-class values.

Function expressions combine pointwise — `(f + g)(x)` is `f(x) + g(x)` —
and calling one with function arguments composes instead of evaluating.
Evaluation runs over a numeric tower of scalars, vectors, complex numbers
and quaternions, either by walking the tree or through a compiled
stack-machine program, and a small expression language with a REPL sits
on top.

`import funcalg` loads only `errors`, `values` and `algebra`, and re-exports
the names each declares in its `__all__`.  `vm`, `parser` and `cli`, and the
names they export, load on first use (PEP 562), so code that only builds and
calls trees loads none of them; `_DEFERRED` is the one list of those names.

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

from importlib import import_module

from . import algebra, errors, values
from .algebra import *
from .errors import *
from .values import *

__version__ = "0.1.0"

# The submodules that load on first use, by their own names and those they export
_DEFERRED = {name: module for module, names in (
    ("cli", "Session SessionConfig eval_once main run_repl run_script"),
    ("parser", "BareExpression ConstDef Env FunctionDef ReplCommand Statement Token parse_command "
               "parse_expression parse_statement parse_statements print_expr tokenize"),
    ("vm", "BenchReport Instr Op Program bench compile_expr run"),
) for name in (module, *names.split())}

__all__ = [*algebra.__all__, *errors.__all__, *values.__all__,
           *(name for name, module in _DEFERRED.items() if name != module)]


def __getattr__(name: str):
    """Import a deferred name's submodule and keep the name here, so that
    every later lookup is a plain dict hit (PEP 562)."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_DEFERRED[name]}")
    globals()[name] = value = module if name == _DEFERRED[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
