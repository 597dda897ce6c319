"""Surface expression language: tokenizer, parser and canonical printer.

The language mirrors the engine's Python API in one-line form:

    f(x, y, z) = x + x*y - x/z     # function definition (arity = 3)
    v = 1.2                        # constant definition
    h = Sin + Log                  # alias for a function-valued expression
    ((f + g)*(f + 4 - 2*f*g))(x, y, z)

Grammar (EBNF):

    program   := { statement (";" | newline) }
    statement := IDENT "(" IDENT {"," IDENT} ")" "=" expr
               | IDENT "=" expr
               | expr
    expr      := factor {("+"|"-"|"*"|"/") factor}
    factor    := "-" factor | atom ["^" factor]
    atom      := (NUMBER | NUMBER ":" NUMBER | IDENT
                 | "(" expr ")" | "[" expr {"," expr} "]")
                 {"(" [expr {"," expr}] ")"}

`expr` climbs precedence by binding power:

    operator  "+" "-"  "*" "/"
    power       1        2

`expr(min_bp)` reads a factor, then each operator of power at least min_bp
with its right operand parsed by `expr(power + 1)`, so all four are
left-associative and "*" "/" bind tighter than "+" "-".

Comments run from "#" to end of line.  Postfix call binds tightest, then
unary minus, except that "^" (right-associative) binds tighter than unary
minus, so -x^2 parses as -(x^2).  Identifiers are resolved against the
environment when the text is parsed (early binding): redefining g later
does not change a function already defined in terms of g.

The lexer cuts each line at its first "#" and splits the rest with one
`re.split`; kinds, columns and the Token objects come from C-level maps over
the parts, so no Python statement runs per token.  The text between tokens
must be blank (space, tab or CR), and its first other character is the
line's first error: a malformed number or an illegal character.

The parser appends an "eof" sentinel token, placed just after the last
token, so its cursor reads the next token by plain indexing.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter
from typing import NamedTuple, Union

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
    Prim,
    apply_expr,
    builtin,
    combine,
    const_expr,
    evaluate,  # unused here; the traced benchmark run patches parser.evaluate
    evaluate_constant,
    negate,
)
from .errors import (
    ArityMismatchError,
    FuncalgError,
    LexError,
    NestingError,
    ParseError,
    UnknownIdentifierError,
)
from .values import ArithOp, BUILTIN_NAMES, Complex, Quaternion, Scalar, Value, Vector, _vector, format_value


# ---------------------------------------------------------------------------
# Tokens.

class Token(NamedTuple):
    kind: str  # number ident op lparen rparen lbracket rbracket comma semi colon assign eof
    lexeme: str
    line: int
    col: int


# re.split with this pattern gives [gap, token, number, gap, ..., gap], and
# the gaps must be blank.  A number is its pattern's first match, made atomic
# by the lookahead and backreference (Python 3.10's re has no atomic groups),
# and is a token only where no "e", "E" or "." follows it.
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_SPLIT = re.compile(
    rf"((?=({_NUMBER}))\2(?![eE.])|[A-Za-z_]\w*|[-+*/^()\[\],;:=])",
    re.ASCII,  # \d and \w must not match other scripts' digits and letters
).split
_NUMBER_START = re.compile(r"\.?\d", re.ASCII).match  # in a gap: a number that failed as a token

_KINDS = {  # token kind by the lexeme's first character
    **dict.fromkeys("0123456789.", "number"),
    **dict.fromkeys(string.ascii_letters + "_", "ident"),
    **dict.fromkeys("-+*/^", "op"),
    "(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket",
    ",": "comma", ";": "semi", ":": "colon", "=": "assign",
}
_first = itemgetter(0)  # a lexeme's first character, or a token's kind


def tokenize(text: str, start_line: int = 1) -> list[Token]:
    """Lex text into tokens; positions are 1-based line and column."""
    tokens: list[Token] = []
    for line, code in enumerate(text.split("\n"), start_line):
        parts = _TOKEN_SPLIT(code.partition("#")[0])
        del parts[2::3]  # the number group: [gap, token, gap, ..., gap]
        cols = list(accumulate(map(len, parts), initial=1))  # each part's column
        if "".join(parts[::2]).strip(" \t\r"):  # the first non-blank gap holds the first error
            gap, col = next((g, c) for g, c in zip(parts[::2], cols[::2]) if g.strip(" \t\r"))
            rest = gap.lstrip(" \t\r")
            col += len(gap) - len(rest)
            what = "malformed number" if _NUMBER_START(code, col - 1) else f"illegal character {rest[0]!r}"
            raise LexError(f"line {line}, column {col}: {what}")
        lexemes = parts[1::2]
        kinds = map(_KINDS.__getitem__, map(_first, lexemes))
        tokens += map(tuple.__new__, repeat(Token), zip(kinds, lexemes, repeat(line), cols[1::2]))
    return tokens


def statement_runs(tokens: list[Token]) -> list[list[Token]]:
    """Split a token stream into per-statement runs at ";" and line breaks."""
    if tokens and tokens[0].line == tokens[-1].line and "semi" not in map(_first, tokens):
        return [tokens]  # one statement on one line: no walk
    runs: list[list[Token]] = []
    run: list[Token] = []
    for tok in tokens:
        if tok.kind == "semi" or (run and tok.line != run[-1].line):
            if run:
                runs.append(run)
                run = []
            if tok.kind == "semi":
                continue
        run.append(tok)
    if run:
        runs.append(run)
    return runs


# ---------------------------------------------------------------------------
# Statements and the environment.

@dataclass(frozen=True)
class FunctionDef:
    """`f(x, y) = expr`, or an alias `h = expr` (empty params) whose arity
    comes from the function-valued body."""

    name: str
    params: tuple[str, ...]
    body: FuncExpr


@dataclass(frozen=True)
class ConstDef:
    name: str
    value: Value


@dataclass(frozen=True)
class BareExpression:
    expr: FuncExpr


@dataclass(frozen=True)
class ReplCommand:
    name: str
    args: str


Statement = Union[FunctionDef, ConstDef, BareExpression]


_SEED_CONSTANTS: dict[str, Value] = {
    "pi": Scalar(math.pi),
    "im": Complex(0.0, 1.0),
    "qi": Quaternion(0.0, 1.0, 0.0, 0.0),
    "qj": Quaternion(0.0, 0.0, 1.0, 0.0),
    "qk": Quaternion(0.0, 0.0, 0.0, 1.0),
}


class Env:
    """Named bindings for the parser and REPL.

    Pre-seeded with the builtins (Sin ... Cumsum, any capitalization) and
    the constants pi, im, qi, qj, qk; those names cannot be rebound.
    Rebinding a user name replaces the old binding, but expressions already
    built keep the binding they resolved (early binding).
    """

    def __init__(self):
        self._bindings: dict[str, FuncExpr | Value] = {}

    @staticmethod
    def is_reserved(name: str) -> bool:
        return name.lower() in BUILTIN_NAMES or name in _SEED_CONSTANTS

    def lookup(self, name: str) -> FuncExpr | Value:
        if name in self._bindings:
            return self._bindings[name]
        if name.lower() in BUILTIN_NAMES:
            return builtin(name)
        if name in _SEED_CONSTANTS:
            return _SEED_CONSTANTS[name]
        raise KeyError(name)

    def define(self, name: str, binding: FuncExpr | Value) -> None:
        if self.is_reserved(name):
            raise FuncalgError(f"cannot rebind built-in name '{name}'")
        if not isinstance(binding, (FuncExpr, Value)):
            raise TypeError("a binding must be a FuncExpr or a Value")
        self._bindings[name] = binding

    def bindings(self) -> dict[str, FuncExpr | Value]:
        return dict(self._bindings)


# ---------------------------------------------------------------------------
# Parsing.

MAX_RANGE_LENGTH = 1_000_000  # elements in an `a:b` literal, checked before building
MAX_NESTING = 100  # nested factors (parentheses, call arguments, unary -, ^ exponents)


_OPS = {op.value: op for op in ArithOp}
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}  # binary operators below "^", by binding power


class _Parser:
    def __init__(self, tokens: list[Token], env: Env, start_line: int = 1):
        if tokens:
            last = tokens[-1]
            eof = Token("eof", "", last.line, last.col + len(last.lexeme))
        else:
            eof = Token("eof", "", start_line, 1)
        self.tokens = [*tokens, eof]
        self.env = env
        self.pos = 0
        self.depth = 0  # factors entered and not yet left
        self.locals: dict[str, FuncExpr] = {}

    # -- cursor helpers

    def _check(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def _expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise self._expected(tok, what)
        self.pos += 1
        return tok

    def _expected(self, tok: Token, what: str) -> ParseError:
        found = "" if tok.kind == "eof" else f", found {tok.lexeme!r}"
        return self._err(tok, f"expected {what}{found}")

    def _err(self, tok: Token, msg: str, error: type = ParseError) -> FuncalgError:
        return error(f"line {tok.line}, column {tok.col}: {msg}")

    def _done(self) -> None:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            raise self._err(tok, f"unexpected {tok.lexeme!r} after statement")

    # -- statements

    def statement(self) -> Statement:
        params = self._def_params()
        if params is not None:
            stmt = self._function_def(params)
        elif self._check("ident") and self.tokens[1].kind == "assign":
            stmt = self._assignment()
        else:
            stmt = BareExpression(self.expr())
        self._done()
        return stmt

    def _def_params(self) -> list[Token] | None:
        # IDENT "(" IDENT {"," IDENT} ")" "=" ...: the parameter tokens, or None
        toks = self.tokens
        if toks[0].kind != "ident" or toks[1].kind != "lparen":
            return None
        i = 2
        while toks[i].kind == "ident":
            if toks[i + 1].kind != "comma":
                if toks[i + 1].kind == "rparen" and toks[i + 2].kind == "assign":
                    return toks[2 : i + 1 : 2]
                return None
            i += 2
        return None

    def _function_def(self, param_toks: list[Token]) -> FunctionDef:
        name_tok = self.tokens[0]
        self._reserved_guard(name_tok)
        names = [t.lexeme for t in param_toks]
        for t in param_toks:
            if Env.is_reserved(t.lexeme):
                raise self._err(t, f"parameter name '{t.lexeme}' is reserved")
            if names.count(t.lexeme) > 1:
                raise self._err(t, f"duplicate parameter name '{t.lexeme}'")
        n = len(names)
        self.locals = {p: Arg(i, Arity(n), p) for i, p in enumerate(names)}
        self.pos = 2 * n + 3  # past IDENT "(" params ")" "="
        body = self.expr()
        if body.arity.is_fixed and body.arity.n != n:
            raise self._err(
                name_tok,
                f"body of '{name_tok.lexeme}' takes {body.arity} argument(s) "
                f"but {n} parameter(s) were declared",
            )
        return FunctionDef(name_tok.lexeme, tuple(names), body)

    def _assignment(self) -> Statement:
        name_tok = self.tokens[0]
        self._reserved_guard(name_tok)
        self.pos = 2  # past IDENT "="
        tree = self.expr()
        if tree.arity.is_fixed:
            return FunctionDef(name_tok.lexeme, (), tree)
        return ConstDef(name_tok.lexeme, evaluate_constant(tree))

    def _reserved_guard(self, tok: Token) -> None:
        if Env.is_reserved(tok.lexeme):
            raise self._err(tok, f"cannot redefine built-in name '{tok.lexeme}'")

    # -- expressions

    def expr(self, min_bp: int = 1) -> FuncExpr:
        # precedence climbing: a right operand binds only tighter operators,
        # so every binary operator is left-associative
        left = self.factor()
        while (bp := _BINDING.get((tok := self.tokens[self.pos]).lexeme, 0)) >= min_bp:
            self.pos += 1
            left = self._at(tok, combine, _OPS[tok.lexeme], left, self.expr(bp + 1))
        return left

    def factor(self) -> FuncExpr:
        # every recursive path of the grammar enters here; at the end of input
        # `atom` reports the missing expression without recursing further
        tok = self.tokens[self.pos]
        if self.depth >= MAX_NESTING and tok.kind != "eof":
            raise self._err(tok, "expression nested too deeply", NestingError)
        self.depth += 1
        if tok.lexeme == "-":
            self.pos += 1
            node = negate(self.factor())
        else:
            node = self.atom()
            if (tok := self.tokens[self.pos]).lexeme == "^":
                self.pos += 1
                node = self._at(tok, combine, ArithOp.POW, node, self.factor())
        self.depth -= 1
        return node

    def atom(self) -> FuncExpr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind not in ("number", "ident", "lparen", "lbracket"):
            raise self._expected(tok, "expression")
        self.pos += 1
        if kind == "number":
            if self._check("colon"):
                self.pos += 1
                hi_tok = self._expect("number", "range endpoint")
                node = const_expr(self._range_vector(tok, hi_tok))
            else:
                node = const_expr(Scalar(float(tok.lexeme)))
        elif kind == "ident":
            node = self._resolve(tok)
        elif kind == "lparen":
            node = self.expr()
            self._expect("rparen", "')'")
        else:
            elems = self._comma_list(self._vector_element)
            self._expect("rbracket", "']'")
            node = const_expr(Vector(tuple(elems)))
        while (open_tok := self.tokens[self.pos]).kind == "lparen":
            self.pos += 1
            args = [] if self._check("rparen") else self._comma_list(self.expr)
            self._expect("rparen", "')'")
            node = self._at(open_tok, apply_expr, node, args)
        return node

    def _comma_list(self, item) -> list:
        items = [item()]
        while self._check("comma"):
            self.pos += 1
            items.append(item())
        return items

    def _vector_element(self) -> float:
        toks, pos = self.tokens, self.pos
        tok = toks[pos]
        # a literal, NUMBER or "-" NUMBER before "," or "]", is read straight
        # to its float; near the nesting limit the general path raises
        num = toks[pos + (neg := tok.lexeme == "-")]
        if num.kind == "number" and toks[pos + neg + 1].kind in ("comma", "rbracket") and self.depth + neg < MAX_NESTING:
            self.pos += neg + 1
            return -float(num.lexeme) if neg else float(num.lexeme)
        elem = self.expr()
        if elem.arity.is_fixed:
            raise self._err(tok, "vector elements must be constant expressions")
        v = evaluate_constant(elem)
        if not isinstance(v, Scalar):
            raise self._err(tok, "vector elements must be scalars")
        return v.x

    def _range_vector(self, lo_tok: Token, hi_tok: Token) -> Vector:
        lo = float(lo_tok.lexeme)
        hi = float(hi_tok.lexeme)
        if not (lo.is_integer() and hi.is_integer()):
            raise self._err(lo_tok, "range endpoints must be integers")
        a, b = int(lo), int(hi)
        if abs(b - a) + 1 > MAX_RANGE_LENGTH:
            raise self._err(lo_tok, f"range longer than {MAX_RANGE_LENGTH} elements")
        step = 1 if b >= a else -1
        return _vector(tuple(map(float, range(a, b + step, step))))

    def _resolve(self, tok: Token) -> FuncExpr:
        name = tok.lexeme
        if name in self.locals:
            return self.locals[name]
        try:
            binding = self.env.lookup(name)
        except KeyError:
            raise self._err(tok, f"unknown identifier '{name}'", UnknownIdentifierError) from None
        if isinstance(binding, Value):
            return const_expr(binding)
        return binding

    def _at(self, tok: Token, build, *args) -> FuncExpr:
        """`build(*args)`, with an arity mismatch reported at tok."""
        try:
            return build(*args)
        except ArityMismatchError as e:
            raise self._err(tok, str(e), ArityMismatchError) from None


def parse_statement(tokens: list[Token], env: Env) -> Statement:
    """Parse one statement from a token run, resolving names against env."""
    return _Parser(tokens, env).statement()


def parse_statements(text: str, env: Env, start_line: int = 1) -> list[Statement]:
    """Parse a chunk of program text into its statements."""
    return [
        parse_statement(run, env) for run in statement_runs(tokenize(text, start_line))
    ]


def parse_expression(text: str, env: Env, start_line: int = 1) -> FuncExpr:
    """Parse a single expression (no definitions)."""
    parser = _Parser(tokenize(text, start_line), env, start_line)
    tree = parser.expr()
    parser._done()
    return tree


def parse_command(text: str, line_no: int = 1) -> ReplCommand | None:
    """Recognize a ':'-prefixed REPL command line; None if not a command."""
    stripped = text.strip()
    if not stripped.startswith(":"):
        return None
    name, _, rest = stripped[1:].partition(" ")
    if not name:
        col = len(text) - len(text.lstrip()) + 1
        raise ParseError(f"line {line_no}, column {col}: missing command name after ':'")
    return ReplCommand(name, rest.strip())


# ---------------------------------------------------------------------------
# Printing.

def _render_scalar(x: float, parenthesize: bool) -> str:
    if math.isnan(x):
        return "NaN"
    body = "1e999" if math.isinf(x) else repr(abs(x))
    if math.copysign(1.0, x) < 0:
        return f"(-{body})" if parenthesize else f"-{body}"
    return body


def print_expr(e: FuncExpr) -> str:
    """Fully parenthesized canonical rendering.

    Parsing the result against the same environment rebuilds a structurally
    equal tree, provided every constant in the tree is a scalar or vector
    without NaN.  Infinities render as 1e999; NaN is the one scalar without
    a literal and renders as NaN, and complex and quaternion constants render
    in display form only.
    """
    if isinstance(e, (Arg, Def, Leaf)):
        return e.name
    if isinstance(e, Prim):
        return e.name.capitalize()
    if isinstance(e, Const):
        v = e.v
        if isinstance(v, Scalar):
            return _render_scalar(v.x, parenthesize=True)
        if isinstance(v, Vector):
            return "[" + ", ".join(_render_scalar(x, False) for x in v.xs) + "]"
        return format_value(v, 17)
    if isinstance(e, BinOp):
        return f"({print_expr(e.e1)} {e.op.value} {print_expr(e.e2)})"
    if isinstance(e, Neg):
        return f"(-{print_expr(e.e)})"
    if isinstance(e, Apply):
        # one argument, one frame per level: pre-3.12 comprehensions add one
        a = e.args
        args = print_expr(a[0]) if len(a) == 1 else ", ".join([print_expr(x) for x in a])
        return f"{print_expr(e.callee)}({args})"
    raise TypeError(f"not a function expression: {e!r}")
