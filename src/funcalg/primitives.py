"""Registry of lifted builtin functions.

Builtins participate in function arithmetic and composition exactly like
user-lifted functions: `builtin("sin") + builtin("log")` is a unary
function expression.  The surface language spells them capitalized (Sin,
Log, ..., Cumsum); lower-case spellings are accepted as aliases and
canonicalized.  The registry is fixed: user extension goes through
`lift_function`.
"""

from __future__ import annotations

from .algebra import FuncExpr, Prim
from .errors import UnknownPrimitiveError
from .values import BUILTIN_ORDER

PRIMITIVES: tuple[str, ...] = BUILTIN_ORDER

_NODES = {name: Prim(name) for name in PRIMITIVES}


def builtin(name: str) -> FuncExpr:
    """Look up a builtin by name (case-insensitive); returns its Prim node."""
    node = _NODES.get(name.lower())
    if node is None:
        raise UnknownPrimitiveError(f"unknown primitive '{name}'")
    return node


def surface_name(name: str) -> str:
    """Canonical capitalized spelling used by the surface language."""
    return name.capitalize()
