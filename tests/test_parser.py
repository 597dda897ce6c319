"""Tokenizer, grammar, environment and canonical printing."""

import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcalg import (
    Arity,
    ArityMismatchError,
    BareExpression,
    BinOp,
    Complex,
    Const,
    ConstDef,
    Def,
    Env,
    FuncalgError,
    FunctionDef,
    LexError,
    NestingError,
    ParseError,
    Quaternion,
    ReplCommand,
    Scalar,
    Session,
    UnknownIdentifierError,
    Vector,
    apply_expr,
    builtin,
    const_expr,
    evaluate,
    evaluate_constant,
    lift_function,
    parse_command,
    parse_expression,
    parse_statement,
    parse_statements,
    print_expr,
    tokenize,
    value_binop,
)
from funcalg.parser import MAX_NESTING, Token, statement_runs

import treegen


# ---------------------------------------------------------------------------
# Tokenizer.

def test_tokenize_call_over_range():
    toks = tokenize("(f+g)(1:10)")
    assert [(t.kind, t.lexeme) for t in toks] == [
        ("lparen", "("), ("ident", "f"), ("op", "+"), ("ident", "g"),
        ("rparen", ")"), ("lparen", "("), ("number", "1"), ("colon", ":"),
        ("number", "10"), ("rparen", ")"),
    ]


def test_tokenize_drops_comments():
    toks = tokenize("f(x,y) = x + x*y  # def")
    assert [t.lexeme for t in toks] == ["f", "(", "x", ",", "y", ")", "=", "x", "+", "x", "*", "y"]


def test_tokenize_positions_are_one_based_and_monotone():
    toks = tokenize("a + bb\n  c12")
    assert [(t.line, t.col) for t in toks] == [(1, 1), (1, 3), (1, 5), (2, 3)]


def test_tokenize_numbers():
    toks = tokenize("1 2.5 .5 1e3 1.2e-3 7E+2")
    assert all(t.kind == "number" for t in toks)
    assert [float(t.lexeme) for t in toks] == [1.0, 2.5, 0.5, 1000.0, 0.0012, 700.0]


def test_lex_error_illegal_character():
    with pytest.raises(LexError, match="line 1, column 7"):
        tokenize("1.2e-3@")


def test_lex_error_malformed_number():
    for bad in ("1..2", "1.2.3", "3e", "1e+", "2E-"):
        with pytest.raises(LexError, match="malformed number"):
            tokenize(bad)


def test_statement_runs_split_on_semicolons_and_newlines():
    runs = statement_runs(tokenize("a = 1; b = 2\nc = 3"))
    assert [" ".join(t.lexeme for t in r) for r in runs] == ["a = 1", "b = 2", "c = 3"]
    assert statement_runs([]) == []
    one = tokenize("f(x) = x + 1  # one statement")
    assert statement_runs(one) == [one]
    assert [len(r) for r in statement_runs(tokenize("a = 1;"))] == [3]
    assert [len(r) for r in statement_runs(tokenize("; a\n;b;"))] == [1, 1]


# The reference lexer that `tokenize` must equal: one regex match per token
# (or blank, newline or illegal character), scanned from the left.
_REF_TOKEN_RE = re.compile(
    r"""(?P<skip>[ \t\r]+|\#[^\n]*)
      | (?P<newline>\n)
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*/^])
      | (?P<punct>[()\[\],;:=])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL | re.ASCII,
)
_REF_PUNCT_KINDS = {
    "(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket",
    ",": "comma", ";": "semi", ":": "colon", "=": "assign",
}


def _ref_tokenize(text, start_line=1):
    tokens = []
    line, line_start = start_line, 0
    for m in _REF_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        lexeme = m.group()
        col = m.start() - line_start + 1
        if kind == "bad":
            raise LexError(f"line {line}, column {col}: illegal character {lexeme!r}")
        if kind == "number" and text[m.end() : m.end() + 1] in ("e", "E", "."):
            raise LexError(f"line {line}, column {col}: malformed number")
        tokens.append(Token(_REF_PUNCT_KINDS.get(lexeme, kind), lexeme, line, col))
    return tokens


def _lex_outcome(lex, text, start_line=1):
    """lex's tokens, or its LexError's message."""
    try:
        return lex(text, start_line)
    except LexError as err:
        return str(err)


_LEXEMES = [
    "f", "x1", "_a_2", "Sin", "e", "E", "e5", "0", "7", "42", "1.", "2.5", ".5", "1e3", "1.e5",
    "7E-2", "3e+4", "1e999", "+", "-", "*", "/", "^", "(", ")", "[", "]", ",", ";", ":", "=",
]
_BLANKS = [" ", "  ", "\t", "\r", "\n", "\r\n", "# comment", "#@.\u00e9 1e"]
_OTHERS = [
    "\u00e9", "\u00c5x", "\u0663", "\uff11", "\u00b2", ".", "@", "\f", "\v", "\u2028",
    "1..2", "3e", "1e+", "x1.5e", ".5.5", "1.5e3e", "2E-", "1.2.3",
]


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@given(parts=st.one_of(
    st.lists(st.sampled_from(_LEXEMES + _BLANKS), max_size=30),  # adjacent lexemes can still be malformed
    st.lists(st.sampled_from(_LEXEMES + _BLANKS + _OTHERS), max_size=30),
))
def test_tokenize_equals_the_one_match_per_token_lexer(parts):
    text = "".join(parts)
    for start_line in (1, 7):
        assert _lex_outcome(tokenize, text, start_line) == _lex_outcome(_ref_tokenize, text, start_line)


def test_tokenize_reports_the_first_error_on_a_line():
    # the malformed number's column, not the later "."; and a gap's first
    # character, even where a number follows it
    for text, message in [
        ("1.5.", "line 1, column 1: malformed number"),
        ("a .5.5", "line 1, column 3: malformed number"),
        ("x1.5e", "line 1, column 3: malformed number"),
        ("@1e", "line 1, column 1: illegal character '@'"),
        ("1e @", "line 1, column 1: malformed number"),
        ("ok\n .\u00e9", "line 2, column 2: illegal character '.'"),
        ("ok # \u00e9\n\u00e9", "line 2, column 1: illegal character '\u00e9'"),
    ]:
        with pytest.raises(LexError) as info:
            tokenize(text)
        assert str(info.value) == message
        assert _lex_outcome(_ref_tokenize, text) == message


# ---------------------------------------------------------------------------
# Expressions and precedence.

def _num(text, env=None):
    return evaluate_constant(parse_expression(text, env or Env())).x


def test_precedence_and_associativity():
    assert _num("2 + 3 * 4") == 14.0
    assert _num("2 * 3 + 4 * 5") == 26.0
    assert _num("2 ^ 3 ^ 2") == 512.0  # right-associative
    assert _num("8 / 4 / 2") == 1.0  # left-associative
    assert _num("8 - 4 - 2") == 2.0
    assert _num("-2 ^ 2") == -4.0  # ^ binds tighter than unary minus
    assert _num("(-2) ^ 2") == 4.0
    assert _num("2 ^ -1") == 0.5
    assert _num("--3") == 3.0
    assert _num("(2 + 3) * 4") == 20.0


def test_precedence_against_shunting_yard_oracle():
    rng = random.Random(1234)
    env = Env()
    for _ in range(2000):
        text, tokens = treegen.gen_arith_string(rng)
        got = _to_tuple(parse_expression(text, env))
        want = treegen.shunting_yard(tokens)
        assert got == want, text


def _to_tuple(e):
    if isinstance(e, Const):
        assert isinstance(e.v, Scalar)
        return e.v.x
    if isinstance(e, BinOp):
        return (e.op.value, _to_tuple(e.e1), _to_tuple(e.e2))
    from funcalg import Neg

    assert isinstance(e, Neg)
    return ("neg", _to_tuple(e.e))


def test_range_literals():
    assert evaluate_constant(parse_expression("1:10", Env())) == Vector(
        tuple(float(i) for i in range(1, 11))
    )
    assert evaluate_constant(parse_expression("10:6", Env())) == Vector(
        (10.0, 9.0, 8.0, 7.0, 6.0)
    )
    with pytest.raises(ParseError, match="integers"):
        parse_expression("1.5:3", Env())


def test_range_length_is_capped_before_allocating():
    assert len(evaluate_constant(parse_expression("1:1000", Env())).xs) == 1000
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^line 1, column 1: range longer"):
            parse_expression("1:100000000", Env())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # bytes: the 1e8-element vector was never built
    with pytest.raises(ParseError, match="integers"):
        parse_expression("1e999:2", Env())  # infinite endpoint


def test_nesting_is_capped_with_a_position():
    deep = [
        "(" * 400 + "1" + ")" * 400,  # parentheses
        "-" * 2000 + "1",  # unary minus
        "^".join(["2"] * 2000),  # right-associative powers
        "Sin(" * 400 + "1" + ")" * 400,  # call arguments
    ]
    for text in deep:
        with pytest.raises(ParseError, match=r"^line 1, column \d+: expression nested too deeply"):
            parse_expression(text, Env())
    with pytest.raises(ParseError, match=r"^line 2, column 101: expression nested too deeply"):
        parse_statements("1\n" + "(" * 400 + "1" + ")" * 400, Env())
    with pytest.raises(ParseError, match=r"^line 1, column 101: expression nested too deeply"):
        parse_expression("(" * 400, Env())
    with pytest.raises(ParseError, match="expected expression"):
        parse_expression("(" * MAX_NESTING, Env())  # input ends where the limit is reached
    # the limit counts open nesting, not nesting seen so far
    within = "(" * (MAX_NESTING - 1) + "1" + ")" * (MAX_NESTING - 1)
    assert evaluate_constant(parse_expression(within, Env())) == Scalar(1.0)
    assert evaluate_constant(parse_expression(" + ".join([within] * 5), Env())) == Scalar(5.0)


def test_vector_literals():
    assert evaluate_constant(parse_expression("[1, 2+1, 7]", Env())) == Vector(
        (1.0, 3.0, 7.0)
    )
    assert evaluate_constant(parse_expression("[-1.5]", Env())) == Vector((-1.5,))
    with pytest.raises(ParseError, match="constant"):
        parse_expression("[Sin, 2]", Env())


def _vector_outcome(text):
    """The float.hex of each element of text's vector, or its error."""
    try:
        return [x.hex() for x in evaluate_constant(parse_expression(text, Env())).xs]
    except FuncalgError as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("text, outcome", [
    ("[-0]", None),
    ("[1e999, -1e999]", None),
    ("[-.5]", None),
    ("[-2^2]", None),
    ("[0, -0.0, 1.e5, 7E-2, -3, 2.5]", None),
    ("[1:3]", ("ParseError", "line 1, column 2: vector elements must be scalars")),
    ("[1,]", ("ParseError", "line 1, column 4: expected expression, found ']'")),
    ("[-, 1]", ("ParseError", "line 1, column 3: expected expression, found ','")),
])
def test_literal_vector_elements_equal_the_general_path(text, outcome):
    # a literal element is read straight to its float; parsed on its own,
    # the same text goes through expr, factor and atom and is evaluated
    if outcome is None:
        elems = text[1:-1].split(", ")
        outcome = [evaluate_constant(parse_expression(e, Env())).x.hex() for e in elems]
    assert _vector_outcome(text) == outcome


def test_literal_vector_elements_reach_the_nesting_limit_where_the_general_path_does():
    # "*1" sends an element through expr, factor and atom at the same depth
    for elem in ("1", "-1"):
        for k in range(MAX_NESTING - 4, MAX_NESTING):
            def nested(e):
                return "(" * k + f"[{e}, 2]" + ")" * k
            assert _vector_outcome(nested(elem)) == _vector_outcome(nested(elem + "*1"))
    # the number, or the "-", is the factor that reaches the limit
    at = ("NestingError", f"line 1, column {MAX_NESTING + 1}: expression nested too deeply")
    for k, elem in [(MAX_NESTING - 1, "1"), (MAX_NESTING - 2, "-1"), (MAX_NESTING - 1, "-1")]:
        assert _vector_outcome("(" * k + f"[{elem}]" + ")" * k) == at
    assert _vector_outcome("(" * (MAX_NESTING - 3) + "[-1]" + ")" * (MAX_NESTING - 3)) == [(-1.0).hex()]


def test_seed_constants():
    env = Env()
    assert evaluate_constant(parse_expression("pi", env)) == Scalar(math.pi)
    got = evaluate_constant(parse_expression("1 + 2*im", env))
    assert got == Complex(1.0, 2.0)
    assert evaluate_constant(parse_expression("1 + qj", env)) == Quaternion(1, 0, 1, 0)
    assert evaluate_constant(parse_expression("qj*qk", env)) == Quaternion(0, 1, 0, 0)


def test_primitive_names_both_cases():
    env = Env()
    assert parse_expression("Sin", env) is builtin("sin")
    assert parse_expression("sin", env) is builtin("sin")
    assert parse_expression("Cumsum", env) is builtin("cumsum")


def test_unknown_identifier_carries_position():
    with pytest.raises(UnknownIdentifierError, match="line 1, column 5"):
        parse_expression("1 + nope", Env())


def test_parse_error_positions_point_into_the_lexeme():
    cases = ["1 +", "(1 + 2", "f(", "1 2", ") + 1"]
    env = Env()
    for text in cases:
        with pytest.raises(ParseError, match=r"line \d+, column \d+"):
            parse_expression(text, env)


# Every lexer and parser error branch, with its exact type and message.
# "expr" parses with parse_expression, "stmt" parses an empty token run, and
# "stmts"/"stmts5" parse with parse_statements starting at line 1/5; the
# environment defines g with arity 2.
_DIAGNOSTICS = [
    # lexer
    ("stmts", "1.2e-3@", LexError, "line 1, column 7: illegal character '@'"),
    ("stmts", "\u00e9", LexError, "line 1, column 1: illegal character '\u00e9'"),
    ("stmts", "\u0663 + 1", LexError, "line 1, column 1: illegal character '\u0663'"),
    ("stmts", "1:\u0663", LexError, "line 1, column 3: illegal character '\u0663'"),
    ("stmts", "a\n\t$", LexError, "line 2, column 2: illegal character '$'"),
    ("stmts", "1..2", LexError, "line 1, column 1: malformed number"),
    ("stmts", "x + 3e", LexError, "line 1, column 5: malformed number"),
    ("stmts", "1 # c\n  2.5.1", LexError, "line 2, column 3: malformed number"),
    # "expected ..." at the end of input
    ("stmts", "1 +", ParseError, "line 1, column 4: expected expression"),
    ("stmts", "Sin(", ParseError, "line 1, column 5: expected expression"),
    ("stmts", "f(x) =", ParseError, "line 1, column 7: expected expression"),
    ("stmts", "(1 + 2", ParseError, "line 1, column 7: expected ')'"),
    ("stmts", "[1, 2", ParseError, "line 1, column 6: expected ']'"),
    ("stmts", "1:", ParseError, "line 1, column 3: expected range endpoint"),
    # "expected ..." with the token found instead
    ("stmts", "1 + )", ParseError, "line 1, column 5: expected expression, found ')'"),
    ("stmts", ", 1", ParseError, "line 1, column 1: expected expression, found ','"),
    ("stmts", "(1 2)", ParseError, "line 1, column 4: expected ')', found '2'"),
    ("stmts", "Sin(1 2)", ParseError, "line 1, column 7: expected ')', found '2'"),
    ("stmts", "[1 2]", ParseError, "line 1, column 4: expected ']', found '2'"),
    ("stmts", "1:x", ParseError, "line 1, column 3: expected range endpoint, found 'x'"),
    # trailing tokens
    ("stmts", "1 + 2 3", ParseError, "line 1, column 7: unexpected '3' after statement"),
    ("stmts", "f(x) = x )", ParseError, "line 1, column 10: unexpected ')' after statement"),
    ("stmts", "a = 1 2", ParseError, "line 1, column 7: unexpected '2' after statement"),
    # definitions
    ("stmts", "Sin = 1", ParseError, "line 1, column 1: cannot redefine built-in name 'Sin'"),
    ("stmts", "sin(x) = x", ParseError, "line 1, column 1: cannot redefine built-in name 'sin'"),
    ("stmts", "pi = 3", ParseError, "line 1, column 1: cannot redefine built-in name 'pi'"),
    ("stmts", "f(x, pi) = x", ParseError, "line 1, column 6: parameter name 'pi' is reserved"),
    ("stmts", "f(x, y, x) = x", ParseError, "line 1, column 3: duplicate parameter name 'x'"),
    ("stmts", "f(x) = g", ParseError,
     "line 1, column 1: body of 'f' takes 2 argument(s) but 1 parameter(s) were declared"),
    ("stmts", "f(x, y) = Sin", ParseError,
     "line 1, column 1: body of 'f' takes 1 argument(s) but 2 parameter(s) were declared"),
    # literals, names and arities
    ("stmts", "[Sin, 2]", ParseError, "line 1, column 2: vector elements must be constant expressions"),
    ("stmts", "[1, im]", ParseError, "line 1, column 5: vector elements must be scalars"),
    ("stmts", "1.5:3", ParseError, "line 1, column 1: range endpoints must be integers"),
    ("stmts", "1:100000000", ParseError, "line 1, column 1: range longer than 1000000 elements"),
    ("stmts", "1 + nope", UnknownIdentifierError, "line 1, column 5: unknown identifier 'nope'"),
    ("expr", "f(x) = x", UnknownIdentifierError, "line 1, column 1: unknown identifier 'f'"),
    ("stmts", "Sin + g", ArityMismatchError,
     "line 1, column 5: cannot combine a 1-argument function with a 2-argument function"),
    ("stmts", "Sin(1, 2)", ArityMismatchError, "line 1, column 4: callee expects 1 argument(s), got 2"),
    ("stmts", "g(1)", ArityMismatchError, "line 1, column 2: callee expects 2 argument(s), got 1"),
    # nesting
    ("stmts", "1\n" + "(" * 400 + "1", NestingError, "line 2, column 101: expression nested too deeply"),
    ("stmts", "-" * 200 + "1", NestingError, "line 1, column 101: expression nested too deeply"),
    # empty input, later start lines, tabs and comments
    ("expr", "", ParseError, "line 1, column 1: expected expression"),
    ("expr", "   # only a comment", ParseError, "line 1, column 1: expected expression"),
    ("stmt", "", ParseError, "line 1, column 1: expected expression"),
    ("stmts5", "1 +", ParseError, "line 5, column 4: expected expression"),
    ("stmts5", "a = 1\n\t@", LexError, "line 6, column 2: illegal character '@'"),
    ("stmts5", "x = 1; 2 * (3", ParseError, "line 5, column 14: expected ')'"),
    ("stmts", "\t1 +\t)", ParseError, "line 1, column 6: expected expression, found ')'"),
    ("stmts", "1 # note\n2 +", ParseError, "line 2, column 4: expected expression"),
    ("stmts", "# note\n\t\tnope", UnknownIdentifierError, "line 2, column 3: unknown identifier 'nope'"),
]


@pytest.mark.parametrize("how, text, error, message", _DIAGNOSTICS)
def test_diagnostics_are_exact(how, text, error, message):
    env = Env()
    env.define("g", lift_function("g", 2, lambda a, b: a))
    with pytest.raises(FuncalgError) as info:
        if how == "expr":
            parse_expression(text, env)
        elif how == "stmt":
            parse_statement([], env)
        else:
            parse_statements(text, env, start_line=5 if how == "stmts5" else 1)
    assert type(info.value) is error
    assert str(info.value) == message


_FRAGMENTS = [
    "f", "g", "h", "c", "v", "x", "y", "Sin", "cumsum", "pi", "im", "qj", "nope",
    "0", "1", "2.5", ".5", "1e3", "1e999", "7E-2", "3:5", "1..", "e",
    "+", "-", "*", "/", "^", "(", ")", "[", "]", ",", ";", ":", "=",
    " ", "\t", "\n", "# c\n", "@",
]
_ALPHABET = "fghxySinpqjme0123456789._+-*/^()[],;:= \t\r\n#@$\u00e9\x00{"


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(text=st.one_of(
    st.text(alphabet=_ALPHABET, max_size=30),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=25).map("".join),
))
def test_front_end_raises_only_funcalg_errors(text):
    session = Session()
    for line in ("f(x) = x^2 + 1", "g(x, y) = f(x) + y", "h = Sin + Cos", "c = 2.5", "v = [1, 2, 3]"):
        session.execute_line(line)
    try:
        for run in statement_runs(tokenize(text)):
            parse_statement(run, session.env)
    except FuncalgError:
        pass


# ---------------------------------------------------------------------------
# Statements.

def test_function_definition():
    env = Env()
    stmt = parse_statement(tokenize("f(x, y, z) = x + x*y - x/z"), env)
    assert isinstance(stmt, FunctionDef)
    assert stmt.name == "f" and stmt.params == ("x", "y", "z")
    got = evaluate(stmt.body, (Scalar(1.2), Scalar(1.7), Scalar(4.3)))
    assert got == Scalar(1.2 + 1.2 * 1.7 - 1.2 / 4.3)


def test_constant_definition():
    stmt = parse_statement(tokenize("x = 1.2"), Env())
    assert stmt == ConstDef("x", Scalar(1.2))
    stmt = parse_statement(tokenize("v = 2 * pi"), Env())
    assert stmt.value == Scalar(2 * math.pi)


def test_alias_definition():
    stmt = parse_statement(tokenize("h = Sin + Cos"), Env())
    assert isinstance(stmt, FunctionDef)
    assert stmt.params == ()
    assert stmt.body.arity.n == 1


def test_bare_expression_statement():
    stmt = parse_statement(tokenize("1 + 2"), Env())
    assert isinstance(stmt, BareExpression)


def test_reserved_names_cannot_be_redefined():
    env = Env()
    for text in ("Sin = 1", "sin(x) = x", "pi = 3", "qj = 1"):
        with pytest.raises(ParseError, match="built-in"):
            parse_statement(tokenize(text), env)
    with pytest.raises(ParseError, match="reserved"):
        parse_statement(tokenize("f(pi) = pi"), env)
    with pytest.raises(FuncalgError):
        env.define("Sin", Scalar(1.0))


def test_duplicate_parameters_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_statement(tokenize("f(x, x) = x"), Env())


def test_body_arity_must_match_parameter_count():
    env = Env()
    env.define("g", lift_function("g", 2, lambda a, b: a))
    with pytest.raises(ParseError, match="argument"):
        parse_statement(tokenize("f(x) = g"), env)


def test_arity_mismatch_is_positioned():
    env = Env()
    env.define("g", lift_function("g", 2, lambda a, b: a))
    with pytest.raises(ArityMismatchError, match=r"line 1, column \d+"):
        parse_expression("Sin + g", env)
    with pytest.raises(ArityMismatchError, match=r"line 1, column \d+"):
        parse_expression("Sin(1, 2)", env)
    with pytest.raises(ArityMismatchError, match=r"line 1, column \d+"):
        parse_expression("Sin()", env)


def test_early_binding():
    env = Env()
    env.define("g", Def("g", Arity(1), parse_expression("Sin", env)))
    f_def = parse_statement(tokenize("f(x) = g(x) + 1"), env)
    f = Def("f", Arity(1), f_def.body)
    env.define("f", f)
    before = evaluate(parse_expression("f(0.5)", env), (Scalar(0.0),))
    env.define("g", Def("g", Arity(1), parse_expression("Cos", env)))
    after = evaluate(parse_expression("f(0.5)", env), (Scalar(0.0),))
    assert before == after == Scalar(math.sin(0.5) + 1)


def test_parse_statements_multi():
    env = Env()
    stmts = parse_statements("f(x) = x^2; g(x) = 1/(1-x)", env)
    assert [s.name for s in stmts] == ["f", "g"]


def test_parse_command():
    assert parse_command("  :ast (f+g)  ") == ReplCommand("ast", "(f+g)")
    assert parse_command(":quit") == ReplCommand("quit", "")
    assert parse_command("f + g") is None
    with pytest.raises(ParseError):
        parse_command(":")


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError, match="after statement"):
        parse_statement(tokenize("1 + 2 3"), Env())


# ---------------------------------------------------------------------------
# Printing and round trips.

def _round_trip_env():
    env = Env()
    env.define("f", lift_function("f", 1, lambda a: value_binop_sq(a)))
    env.define("g", lift_function("g", 1, lambda a: a))
    env.define("h", lift_function("h", 2, lambda a, b: a))
    env.define("t", lift_function("t", 3, lambda a, b, c: c))
    return env


def value_binop_sq(a):
    from funcalg import ArithOp

    return value_binop(ArithOp.MUL, a, a)


def test_print_expr_examples():
    env = _round_trip_env()
    f = env.lookup("f")
    g = env.lookup("g")
    assert print_expr(f + g) == "(f + g)"
    assert print_expr(f(builtin("sin"))) == "f(Sin)"
    assert print_expr(-f) == "(-f)"
    assert print_expr(f ** 2) == "(f ^ 2.0)"
    assert print_expr(Const(Scalar(-3.0))) == "(-3.0)"
    assert print_expr(Const(Vector((1.0, -2.5)))) == "[1.0, -2.5]"
    assert print_expr(Const(Quaternion(4, 2, 2, -1))) == "4+2i+2j-1k"


def test_print_expr_prints_deep_one_argument_chains():
    # one argument costs one frame per level, as evaluation does
    chain = builtin("sin")
    for _ in range(900):
        chain = apply_expr(builtin("sin"), [chain])
    assert print_expr(chain) == "Sin(" * 900 + "Sin" + ")" * 900


def test_print_parse_round_trip_examples():
    env = _round_trip_env()
    f = env.lookup("f")
    g = env.lookup("g")
    for tree in (
        f + g,
        -(f * g),
        f(builtin("sin")) + 2,
        (f + g)(Const(Scalar(2.0))),
        f ** Const(Scalar(-3.0)),
        Const(Vector((1.0, -2.0, 3.5))) + g,
        Const(Scalar(math.inf)),
        Const(Scalar(-math.inf)) * f,
        Const(Vector((math.inf, -1.0, -math.inf))),
    ):
        assert parse_expression(print_expr(tree), env) == tree


def _round_trip_named(env):
    """The names of `_round_trip_env` by arity, and two builtins."""
    return {
        1: [env.lookup("f"), env.lookup("g"), builtin("sin"), builtin("log")],
        2: [env.lookup("h")],
        3: [env.lookup("t")],
    }


def test_print_parse_round_trip_random():
    env = _round_trip_env()
    named = _round_trip_named(env)
    rng = random.Random(4321)
    for _ in range(500):
        tree = _gen_named_tree(rng, named, rng.randint(1, 3), 4)
        text = print_expr(tree)
        assert parse_expression(text, env) == tree, text


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 3), depth=st.integers(0, 4))
def test_print_parse_round_trip(rng, n, depth):
    # the shapes above, drawn and shrunk by Hypothesis; depth 4 nests far
    # below MAX_NESTING
    env = _round_trip_env()
    tree = _gen_named_tree(rng, _round_trip_named(env), n, depth)
    text = print_expr(tree)
    assert parse_expression(text, env) == tree, text


def _gen_named_tree(rng, named, n, depth):
    from funcalg import ArithOp, apply_expr, combine, const_expr, negate

    if depth <= 0:
        r = rng.random()
        if r < 0.45:
            return rng.choice(named[n])
        if r < 0.8:
            return const_expr(Scalar(round(rng.uniform(-9, 9), 3)))
        return const_expr(
            Vector(tuple(round(rng.uniform(-9, 9), 3) for _ in range(rng.randint(1, 3))))
        )
    r = rng.random()
    if r < 0.4:
        return combine(
            rng.choice(list(ArithOp)),
            _gen_named_tree(rng, named, n, depth - 1),
            _gen_named_tree(rng, named, n, depth - 1),
        )
    if r < 0.55:
        return negate(_gen_named_tree(rng, named, n, depth - 1))
    if r < 0.75:
        m = rng.randint(1, 3)
        callee = _gen_named_tree(rng, named, m, depth - 1)
        return apply_expr(
            callee, [_gen_named_tree(rng, named, n, depth - 1) for _ in range(m)]
        )
    return _gen_named_tree(rng, named, n, 0)


def test_print_expr_17_digit_scalars_round_trip():
    rng = random.Random(5555)
    env = Env()
    for _ in range(300):
        x = rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-10, 10)
        tree = Const(Scalar(x))
        back = parse_expression(print_expr(tree), env)
        assert back == tree and back.v.x == x


def test_print_expr_prints_a_nan_constant_as_nan():
    assert print_expr(const_expr(Scalar(math.nan))) == "NaN"


def test_env_binds_only_expressions_and_values():
    with pytest.raises(TypeError):
        Env().define("f", 3)
