"""Random well-formed expression trees and an independent precedence oracle.

Shared by the differential, property and acceptance tests.  `gen_tree`
trees use only scalar and vector values (one vector length per case), so
evaluation is total except for the prefix scans hitting a scalar, which
both backends must reject identically.  `gen_tower_tree` trees range over
scalars, complex numbers and quaternions instead.
"""

import random

from funcalg import (
    ArithOp,
    Complex,
    PRIMITIVES,
    Quaternion,
    Scalar,
    Vector,
    apply_expr,
    builtin,
    combine,
    const_expr,
    lift_function,
    negate,
    params,
    value_binop,
)

OPS = tuple(ArithOp)

_SCALAR_POOL = (0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.5, 3.75, 7.0, -0.25)


def _sum_all(*vals):
    acc = vals[0]
    for v in vals[1:]:
        acc = value_binop(ArithOp.ADD, acc, v)
    return acc


def _first_squared(*vals):
    return value_binop(ArithOp.MUL, vals[0], vals[0])


def _projection(i):
    return lambda *vals: vals[i]


def _leaf_pool(n):
    leaves = [lift_function(f"p{i}_{n}", n, _projection(i)) for i in range(n)]
    leaves.append(lift_function(f"sum{n}", n, _sum_all))
    leaves.append(lift_function(f"sq{n}", n, _first_squared))
    return leaves


_LEAVES = {n: _leaf_pool(n) for n in (1, 2, 3)}


def gen_value(rng: random.Random, vec_len: int):
    if rng.random() < 0.5:
        return Scalar(rng.choice(_SCALAR_POOL) if rng.random() < 0.6 else rng.uniform(-3, 3))
    return Vector(tuple(rng.choice(_SCALAR_POOL) for _ in range(vec_len)))


def gen_args(rng: random.Random, n: int, vec_len: int):
    return tuple(gen_value(rng, vec_len) for _ in range(n))


def gen_leaf_expr(rng: random.Random, n: int, vec_len: int):
    r = rng.random()
    if r < 0.4:
        return const_expr(gen_value(rng, vec_len))
    if r < 0.8 or n != 1:
        return rng.choice(_LEAVES[n])
    return builtin(rng.choice(PRIMITIVES))


def gen_tree(rng: random.Random, n: int, depth: int, vec_len: int):
    """A tree whose arity is Fixed(n) or polymorphic."""
    if depth <= 0:
        return gen_leaf_expr(rng, n, vec_len)
    r = rng.random()
    if r < 0.4:
        return combine(
            rng.choice(OPS),
            gen_tree(rng, n, depth - 1, vec_len),
            gen_tree(rng, n, depth - 1, vec_len),
        )
    if r < 0.55:
        return negate(gen_tree(rng, n, depth - 1, vec_len))
    if r < 0.7:
        m = rng.randint(1, 3)
        callee = gen_tree(rng, m, depth - 1, vec_len)
        args = [gen_tree(rng, n, depth - 1, vec_len) for _ in range(m)]
        return apply_expr(callee, args)
    return gen_leaf_expr(rng, n, vec_len)


# ---------------------------------------------------------------------------
# Trees over the numeric tower: parameters and scalar, complex and quaternion
# constants under + - * /, negation, composition and the builtins defined
# beyond the reals (abs on a complex value is an error both backends must
# raise alike).  `^` takes only a non-negative integer scalar exponent, the
# one power every kind supports.  Kept apart from `gen_value`/`gen_tree` so
# that their seeded corpora do not shift.

_TOWER_OPS = (ArithOp.ADD, ArithOp.SUB, ArithOp.MUL, ArithOp.DIV)
_TOWER_EXPONENTS = (0.0, 1.0, 2.0, 3.0, 5.0)
_TOWER_BUILTINS = ("exp", "log", "sqrt", "sin", "cos", "abs")


def _tower_real(rng: random.Random) -> float:
    return rng.choice(_SCALAR_POOL) if rng.random() < 0.6 else rng.uniform(-3, 3)


def gen_tower_value(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return Scalar(_tower_real(rng))
    if kind == 1:
        return Complex(_tower_real(rng), _tower_real(rng))
    return Quaternion(*(_tower_real(rng) for _ in range(4)))


def gen_tower_args(rng: random.Random, n: int):
    return tuple(gen_tower_value(rng) for _ in range(n))


def _tower_leaf(rng: random.Random, n: int):
    r = rng.random()
    if r < 0.35:
        return const_expr(gen_tower_value(rng))
    if r < 0.85 or n != 1:
        return rng.choice(params(n))
    return builtin(rng.choice(_TOWER_BUILTINS))


def gen_tower_tree(rng: random.Random, n: int, depth: int):
    """A tree over the tower whose arity is Fixed(n) or polymorphic."""
    r = rng.random()
    if depth <= 0 or r < 0.2:
        return _tower_leaf(rng, n)
    if r < 0.55:
        return combine(
            rng.choice(_TOWER_OPS),
            gen_tower_tree(rng, n, depth - 1),
            gen_tower_tree(rng, n, depth - 1),
        )
    if r < 0.65:
        exponent = const_expr(Scalar(rng.choice(_TOWER_EXPONENTS)))
        return combine(ArithOp.POW, gen_tower_tree(rng, n, depth - 1), exponent)
    if r < 0.8:
        return negate(gen_tower_tree(rng, n, depth - 1))
    m = rng.randint(1, 3)
    callee = gen_tower_tree(rng, m, depth - 1)
    return apply_expr(callee, [gen_tower_tree(rng, n, depth - 1) for _ in range(m)])


# ---------------------------------------------------------------------------
# Shunting-yard oracle for precedence tests: a separate algorithm producing
# tuple ASTs ("+", left, right) / ("neg", operand), with unary minus on a
# bare number folded to a negative literal, matching the parser convention.
# Parentheses group and leave no node of their own.

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_RIGHT = {"^", "neg"}


def _fold_neg(operand):
    if isinstance(operand, float):
        return -operand
    return ("neg", operand)


def shunting_yard(tokens):
    """tokens: floats, operator strings and "(" ")", unary minus spelled "neg"."""
    out = []
    ops = []

    def reduce_top():
        op = ops.pop()
        if op == "neg":
            out.append(_fold_neg(out.pop()))
        else:
            right = out.pop()
            left = out.pop()
            out.append((op, left, right))

    for tok in tokens:
        if isinstance(tok, float):
            out.append(tok)
            continue
        if tok in ("neg", "("):
            ops.append(tok)  # prefix operators and "(" never pop
            continue
        if tok == ")":
            while ops[-1] != "(":
                reduce_top()
            ops.pop()
            continue
        while ops and ops[-1] != "(" and (
            _PREC[ops[-1]] > _PREC[tok]
            or (_PREC[ops[-1]] == _PREC[tok] and tok not in _RIGHT)
        ):
            reduce_top()
        ops.append(tok)
    while ops:
        reduce_top()
    assert len(out) == 1
    return out[0]


def gen_arith_string(rng: random.Random, max_terms: int = 8, depth: int = 2):
    """Random arithmetic text plus the token list for the oracle.

    Operands are numbers or, up to `depth` levels deep, parenthesised
    subexpressions; either may carry a run of unary minus (`--2`, `-(1 + 2)`).
    """
    parts = []
    tokens = []

    def operand(depth):
        minus = rng.choices((0, 1, 2, 3), (70, 20, 7, 3))[0]
        tokens.extend(["neg"] * minus)
        if depth > 0 and rng.random() < 0.25:
            parts.append("-" * minus + "(")
            tokens.append("(")
            sequence(depth - 1, 3)
            parts.append(")")
            tokens.append(")")
            return
        val = float(rng.randint(1, 9)) if rng.random() < 0.7 else round(rng.uniform(0.5, 9.5), 2)
        parts.append("-" * minus + repr(val))
        tokens.append(val)

    def sequence(depth, max_terms):
        operand(depth)
        for _ in range(rng.randint(1, max_terms)):
            op = rng.choice("+-*/^")
            parts.append(op)
            tokens.append(op)
            operand(depth)

    sequence(depth, max_terms)
    return " ".join(parts), tokens
