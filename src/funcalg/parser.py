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
    expr      := term {("+"|"-") term}
    term      := factor {("*"|"/") factor}
    factor    := "-" factor | power
    power     := postfix ["^" factor]
    postfix   := atom {"(" [expr {"," expr}] ")"}
    atom      := NUMBER | NUMBER ":" NUMBER | IDENT
               | "(" expr ")" | "[" expr {"," expr} "]"

Comments run from "#" to end of line.  Postfix call binds tightest, then
unary minus, except that "^" (right-associative) binds tighter than unary
minus, so -x^2 parses as -(x^2).  Identifiers are resolved against the
environment when the text is parsed (early binding): redefining g later
does not change a function already defined in terms of g.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

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
    ParseError,
    UnknownIdentifierError,
)
from .primitives import builtin, surface_name
from .values import ArithOp, BUILTIN_NAMES, Complex, Quaternion, Scalar, Value, Vector, format_value


# ---------------------------------------------------------------------------
# Tokens.

@dataclass(frozen=True)
class Token:
    kind: str  # number ident op lparen rparen lbracket rbracket comma semi colon assign
    lexeme: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<space>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<newline>\n)
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*/^])
      | (?P<punct>[()\[\],;:=])
    """,
    re.VERBOSE,
)

_PUNCT_KINDS = {
    "(": "lparen",
    ")": "rparen",
    "[": "lbracket",
    "]": "rbracket",
    ",": "comma",
    ";": "semi",
    ":": "colon",
    "=": "assign",
}


def tokenize(text: str, start_line: int = 1) -> list[Token]:
    """Lex text into tokens; positions are 1-based line and column."""
    tokens: list[Token] = []
    line, col = start_line, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexError(
                f"line {line}, column {col}: illegal character {text[pos]!r}"
            )
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "newline":
            line += 1
            col = 1
            pos = m.end()
            continue
        if kind == "number":
            nxt = text[m.end() : m.end() + 1]
            if nxt in ("e", "E", "."):
                raise LexError(f"line {line}, column {col}: malformed number")
            tokens.append(Token("number", lexeme, line, col))
        elif kind == "ident":
            tokens.append(Token("ident", lexeme, line, col))
        elif kind == "op":
            tokens.append(Token("op", lexeme, line, col))
        elif kind == "punct":
            tokens.append(Token(_PUNCT_KINDS[lexeme], lexeme, line, col))
        col += len(lexeme)
        pos = m.end()
    return tokens


def statement_runs(tokens: list[Token]) -> list[list[Token]]:
    """Split a token stream into per-statement runs at ";" and line breaks."""
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


Statement = Union[FunctionDef, ConstDef, BareExpression, ReplCommand]


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


class _Parser:
    def __init__(self, tokens: list[Token], env: Env):
        self.tokens = tokens
        self.env = env
        self.pos = 0
        self.locals: dict[str, FuncExpr] = {}

    # -- cursor helpers

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _advance(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise self._err_eof("unexpected end of input")
        self.pos += 1
        return tok

    def _check(self, kind: str, lexeme: str | None = None) -> bool:
        tok = self._peek()
        return (
            tok is not None
            and tok.kind == kind
            and (lexeme is None or tok.lexeme == lexeme)
        )

    def _expect(self, kind: str, what: str) -> Token:
        tok = self._peek()
        if tok is None:
            raise self._err_eof(f"expected {what}")
        if tok.kind != kind:
            raise ParseError(
                f"line {tok.line}, column {tok.col}: expected {what}, "
                f"found {tok.lexeme!r}"
            )
        self.pos += 1
        return tok

    def _err(self, tok: Token, msg: str) -> ParseError:
        return ParseError(f"line {tok.line}, column {tok.col}: {msg}")

    def _err_eof(self, msg: str) -> ParseError:
        if self.tokens:
            last = self.tokens[-1]
            return ParseError(
                f"line {last.line}, column {last.col + len(last.lexeme)}: {msg}"
            )
        return ParseError(f"line 1, column 1: {msg}")

    def _done(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise self._err(tok, f"unexpected {tok.lexeme!r} after statement")

    # -- statements

    def statement(self) -> Statement:
        if self._is_function_def():
            stmt = self._function_def()
        elif self._check("ident") and self.pos + 1 < len(self.tokens) and (
            self.tokens[self.pos + 1].kind == "assign"
        ):
            stmt = self._assignment()
        else:
            stmt = BareExpression(self.expr())
        self._done()
        return stmt

    def _is_function_def(self) -> bool:
        # IDENT "(" IDENT {"," IDENT} ")" "=" ...
        toks = self.tokens
        i = self.pos
        if i + 1 >= len(toks) or toks[i].kind != "ident" or toks[i + 1].kind != "lparen":
            return False
        i += 2
        while True:
            if i >= len(toks) or toks[i].kind != "ident":
                return False
            i += 1
            if i < len(toks) and toks[i].kind == "comma":
                i += 1
                continue
            break
        return (
            i + 1 < len(toks)
            and toks[i].kind == "rparen"
            and toks[i + 1].kind == "assign"
        )

    def _function_def(self) -> FunctionDef:
        name_tok = self._advance()
        self._reserved_guard(name_tok)
        self._expect("lparen", "'('")
        param_toks = [self._expect("ident", "parameter name")]
        while self._check("comma"):
            self._advance()
            param_toks.append(self._expect("ident", "parameter name"))
        self._expect("rparen", "')'")
        self._expect("assign", "'='")

        names = [t.lexeme for t in param_toks]
        for t in param_toks:
            if Env.is_reserved(t.lexeme):
                raise self._err(t, f"parameter name '{t.lexeme}' is reserved")
            if names.count(t.lexeme) > 1:
                raise self._err(t, f"duplicate parameter name '{t.lexeme}'")
        n = len(names)
        self.locals = {p: Arg(i, Arity(n), p) for i, p in enumerate(names)}
        body = self.expr()
        if body.arity.is_fixed and body.arity.n != n:
            raise self._err(
                name_tok,
                f"body of '{name_tok.lexeme}' takes {body.arity} argument(s) "
                f"but {n} parameter(s) were declared",
            )
        return FunctionDef(name_tok.lexeme, tuple(names), body)

    def _assignment(self) -> Statement:
        name_tok = self._advance()
        self._reserved_guard(name_tok)
        self._advance()  # "="
        tree = self.expr()
        if tree.arity.is_fixed:
            return FunctionDef(name_tok.lexeme, (), tree)
        return ConstDef(name_tok.lexeme, evaluate_constant(tree))

    def _reserved_guard(self, tok: Token) -> None:
        if Env.is_reserved(tok.lexeme):
            raise self._err(tok, f"cannot redefine built-in name '{tok.lexeme}'")

    # -- expressions

    def expr(self) -> FuncExpr:
        left = self.term()
        while self._check("op", "+") or self._check("op", "-"):
            tok = self._advance()
            op = ArithOp.ADD if tok.lexeme == "+" else ArithOp.SUB
            left = self._combine_at(tok, op, left, self.term())
        return left

    def term(self) -> FuncExpr:
        left = self.factor()
        while self._check("op", "*") or self._check("op", "/"):
            tok = self._advance()
            op = ArithOp.MUL if tok.lexeme == "*" else ArithOp.DIV
            left = self._combine_at(tok, op, left, self.factor())
        return left

    def factor(self) -> FuncExpr:
        if self._check("op", "-"):
            self._advance()
            return negate(self.factor())
        return self.power()

    def power(self) -> FuncExpr:
        base = self.postfix()
        if self._check("op", "^"):
            tok = self._advance()
            return self._combine_at(tok, ArithOp.POW, base, self.factor())
        return base

    def postfix(self) -> FuncExpr:
        node = self.atom()
        while self._check("lparen"):
            open_tok = self._advance()
            args: list[FuncExpr] = []
            if not self._check("rparen"):
                args.append(self.expr())
                while self._check("comma"):
                    self._advance()
                    args.append(self.expr())
            self._expect("rparen", "')'")
            try:
                node = apply_expr(node, args)
            except ArityMismatchError as e:
                raise ArityMismatchError(
                    f"line {open_tok.line}, column {open_tok.col}: {e}"
                ) from None
        return node

    def atom(self) -> FuncExpr:
        tok = self._peek()
        if tok is None:
            raise self._err_eof("expected expression")

        if tok.kind == "number":
            self._advance()
            if self._check("colon"):
                self._advance()
                hi_tok = self._expect("number", "range endpoint")
                return const_expr(self._range_vector(tok, hi_tok))
            return const_expr(Scalar(self._number(tok)))

        if tok.kind == "ident":
            self._advance()
            return self._resolve(tok)

        if tok.kind == "lparen":
            self._advance()
            inner = self.expr()
            self._expect("rparen", "')'")
            return inner

        if tok.kind == "lbracket":
            self._advance()
            elems = [self._vector_element()]
            while self._check("comma"):
                self._advance()
                elems.append(self._vector_element())
            self._expect("rbracket", "']'")
            return const_expr(Vector(tuple(elems)))

        raise self._err(tok, f"expected expression, found {tok.lexeme!r}")

    def _vector_element(self) -> float:
        tok = self._peek()
        elem = self.expr()
        if elem.arity.is_fixed:
            raise self._err(tok, "vector elements must be constant expressions")
        v = evaluate_constant(elem)
        if not isinstance(v, Scalar):
            raise self._err(tok, "vector elements must be scalars")
        return v.x

    def _number(self, tok: Token) -> float:
        try:
            return float(tok.lexeme)
        except ValueError:  # pragma: no cover - the lexer rules this out
            raise self._err(tok, f"malformed number {tok.lexeme!r}") from None

    def _range_vector(self, lo_tok: Token, hi_tok: Token) -> Vector:
        lo = self._number(lo_tok)
        hi = self._number(hi_tok)
        if not (lo.is_integer() and hi.is_integer()):
            raise self._err(lo_tok, "range endpoints must be integers")
        a, b = int(lo), int(hi)
        if abs(b - a) + 1 > MAX_RANGE_LENGTH:
            raise self._err(lo_tok, f"range longer than {MAX_RANGE_LENGTH} elements")
        step = 1 if b >= a else -1
        return Vector(tuple(float(v) for v in range(a, b + step, step)))

    def _resolve(self, tok: Token) -> FuncExpr:
        name = tok.lexeme
        if name in self.locals:
            return self.locals[name]
        try:
            binding = self.env.lookup(name)
        except KeyError:
            raise UnknownIdentifierError(
                f"line {tok.line}, column {tok.col}: unknown identifier '{name}'"
            ) from None
        if isinstance(binding, Value):
            return const_expr(binding)
        return binding

    def _combine_at(
        self, tok: Token, op: ArithOp, left: FuncExpr, right: FuncExpr
    ) -> FuncExpr:
        try:
            return combine(op, left, right)
        except ArityMismatchError as e:
            raise ArityMismatchError(
                f"line {tok.line}, column {tok.col}: {e}"
            ) from None


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
    tokens = tokenize(text, start_line)
    parser = _Parser(tokens, env)
    tree = parser.expr()
    parser._done()
    return tree


def parse_command(text: str) -> ReplCommand | None:
    """Recognize a ':'-prefixed REPL command line; None if not a command."""
    stripped = text.strip()
    if not stripped.startswith(":"):
        return None
    name, _, rest = stripped[1:].partition(" ")
    if not name:
        raise ParseError("line 1, column 1: missing command name after ':'")
    return ReplCommand(name, rest.strip())


# ---------------------------------------------------------------------------
# Printing.

def _render_scalar(x: float, parenthesize: bool) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Inf" if x > 0 else ("(-Inf)" if parenthesize else "-Inf")
    if math.copysign(1.0, x) < 0:
        body = f"-{-x!r}"
        return f"({body})" if parenthesize else body
    return repr(x)


def print_expr(e: FuncExpr) -> str:
    """Fully parenthesized canonical rendering.

    Parsing the result against the same environment rebuilds a structurally
    equal tree, provided every constant in the tree is a scalar or vector
    (complex and quaternion constants have no literal syntax and render in
    display form only).
    """
    if isinstance(e, (Arg, Def, Leaf)):
        return e.name
    if isinstance(e, Prim):
        return surface_name(e.name)
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
        args = ", ".join(print_expr(a) for a in e.args)
        return f"{print_expr(e.callee)}({args})"
    raise TypeError(f"not a function expression: {e!r}")


def function_from_tree(name: str, nparams: int, body: FuncExpr) -> FuncExpr:
    """Bind a parsed definition body as a named definition of the given arity."""
    return Def(name, Arity(nparams), body)
