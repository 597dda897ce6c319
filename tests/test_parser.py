"""Tokenizer, grammar, environment and canonical printing."""

import math
import random
import tracemalloc

import pytest

from funcalg import (
    ArityMismatchError,
    BareExpression,
    BinOp,
    Complex,
    Const,
    ConstDef,
    Env,
    FuncalgError,
    FunctionDef,
    LexError,
    ParseError,
    Quaternion,
    ReplCommand,
    Scalar,
    UnknownIdentifierError,
    Vector,
    builtin,
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
from funcalg.parser import MAX_NESTING, function_from_tree, statement_runs

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
    for _ in range(500):
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
    env.define("g", function_from_tree("g", 1, parse_expression("Sin", env)))
    f_def = parse_statement(tokenize("f(x) = g(x) + 1"), env)
    f = function_from_tree("f", 1, f_def.body)
    env.define("f", f)
    before = evaluate(parse_expression("f(0.5)", env), (Scalar(0.0),))
    env.define("g", function_from_tree("g", 1, parse_expression("Cos", env)))
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
    ):
        assert parse_expression(print_expr(tree), env) == tree


def test_print_parse_round_trip_random():
    env = _round_trip_env()
    named = {
        1: [env.lookup("f"), env.lookup("g"), builtin("sin"), builtin("log")],
        2: [env.lookup("h")],
        3: [env.lookup("t")],
    }
    rng = random.Random(4321)
    for _ in range(500):
        tree = _gen_named_tree(rng, named, rng.randint(1, 3), 4)
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
