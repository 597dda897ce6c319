"""Exception hierarchy shared by all funcalg modules."""

__all__ = [
    "ArityMismatchError", "BackendMismatchError", "FuncalgError", "InvalidProgramError",
    "KindMismatchError", "LengthMismatchError", "LexError", "NestingError", "ParseError",
    "UnknownIdentifierError", "UnknownPrimitiveError", "UnsupportedKindError", "UnsupportedPowError",
]


class FuncalgError(Exception):
    """Base class for every error this package raises on purpose."""


class LengthMismatchError(FuncalgError):
    """Two vectors of different lengths were combined."""


class KindMismatchError(FuncalgError):
    """A vector met a complex or quaternion operand."""


class UnsupportedPowError(FuncalgError):
    """Power with a quaternion involved, outside non-negative integer scalar exponents."""


class UnsupportedKindError(FuncalgError):
    """A builtin kernel was applied to a value kind it does not support."""


class ArityMismatchError(FuncalgError):
    """Function expressions of incompatible arity were combined or misapplied."""


class UnknownPrimitiveError(FuncalgError):
    """A name was looked up in the primitive registry and is not there."""


class LexError(FuncalgError):
    """Illegal character or malformed number; message carries line and column."""


class ParseError(FuncalgError):
    """Token stream does not match the grammar; message carries line and column."""


class NestingError(ParseError):
    """Input nested deeper than the parser allows; the CLI exits 2, as for too-deep trees."""


class UnknownIdentifierError(ParseError):
    """An identifier could not be resolved against the environment."""


class InvalidProgramError(FuncalgError):
    """A compiled program failed the static stack-discipline check."""


class BackendMismatchError(FuncalgError):
    """Tree-walking and VM evaluation of the same expression disagreed."""
