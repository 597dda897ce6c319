"""Stack machine: compilation scheme, static checks, differential equivalence."""

import collections
import gc
import inspect
import io
import json
import math
import random
import re
import struct
import sys
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcalg.algebra
import funcalg.values
import funcalg.vm
from funcalg.algebra import Apply, BinOp, Const, Leaf, Neg, Prim
from funcalg import (
    Arg,
    ArithOp,
    Arity,
    ArityMismatchError,
    BackendMismatchError,
    Complex,
    Def,
    FuncalgError,
    FuncExpr,
    Instr,
    InvalidProgramError,
    KindMismatchError,
    LengthMismatchError,
    Op,
    PRIMITIVES,
    Program,
    Quaternion,
    Scalar,
    Session,
    SessionConfig,
    UnsupportedKindError,
    UnsupportedPowError,
    Vector,
    apply_expr,
    bench,
    builtin,
    combine,
    compile_expr,
    const_expr,
    evaluate,
    format_value,
    lift_function,
    main,
    negate,
    params,
    parse_expression,
    run,
    same_value,
    value_binop,
)

import treegen


def _fg():
    x, = params(1)
    return x * x, 1 / (1 - x)


def test_compile_const():
    p = compile_expr(const_expr(Scalar(4.0)))
    assert p.instructions == (Instr(Op.LOAD_CONST, 0),)
    assert p.constants == (Scalar(4.0),)
    assert p.leaves == ()


def test_run_golden_sum():
    f, g = _fg()
    assert run(compile_expr(f + g), (Scalar(2.0),)) == Scalar(3.0)


def test_run_nan_case():
    f, g = _fg()
    got = run(compile_expr(f + 4 * g - f * g), (Scalar(1.0),))
    assert math.isnan(got.x)


def test_run_vector_case():
    f, g = _fg()
    args = (Vector(tuple(float(i) for i in range(1, 11))),)
    assert same_value(run(compile_expr(f + g), args), evaluate(f + g, args))


def test_composition_compiles_to_frames():
    x, = params(1)
    fun = x * x + 2
    tree = fun(builtin("sin"))
    p = compile_expr(tree)
    ops = [ins.op for ins in p.instructions]
    assert ops.count(Op.BEGIN_FRAME) == 1
    assert ops.count(Op.END_FRAME) == 1
    assert ops.index(Op.BEGIN_FRAME) < ops.index(Op.END_FRAME)
    assert run(p, (Scalar(0.32),)) == Scalar(math.sin(0.32) ** 2 + 2)


def test_chained_composition_runs():
    x, y = params(2)
    sin, log, cos, exp, tan = (builtin(n) for n in ("sin", "log", "cos", "exp", "tan"))
    j = cos(x) + sin(x - y)
    k = tan(x) + log(x + y)
    l = sin(x / 2) + x**2
    chain = (j + k + l)(sin + log, cos + exp)(sin + tan)
    got = run(compile_expr(chain), (Scalar(0.4),))
    assert same_value(got, evaluate(chain, (Scalar(0.4),)))
    assert math.isclose(got.x, 2.545235, rel_tol=1e-6)


def test_compile_is_deterministic():
    x, y = params(2)
    tree = (x + y * 2)(builtin("sin"), builtin("cos"))
    assert compile_expr(tree) == compile_expr(tree)


def _reference_compile(e, arity=None):
    """The recursive post-order emitter that `compile_expr`'s work-stack loop
    replaced: one `match` case per node class, a fresh Instr per instruction."""
    code, constants, leaves = [], [], []

    def emit(node):
        match node:
            case Arg():
                code.append(Instr(Op.LOAD_ARG, node.i))
            case Const():
                code.append(Instr(Op.LOAD_CONST, len(constants)))
                constants.append(node.v)
            case Prim():
                code.append(Instr(Op.LOAD_ARG, 0))
                code.append(Instr(Op.CALL_PRIM, node.name))
            case BinOp():
                emit(node.e1)
                emit(node.e2)
                code.append(Instr(Op.BINARY, node.op))
            case Neg():
                emit(node.e)
                code.append(Instr(Op.CALL_PRIM, "neg"))
            case Apply():
                for a in node.args:
                    emit(a)
                code.append(Instr(Op.BEGIN_FRAME, len(node.args)))
                emit(node.callee)
                code.append(Instr(Op.END_FRAME))
            case Def():
                code.append(Instr(Op.CALL_DEF, _reference_compile(node.body, node.arity)))
            case Leaf():
                code.append(Instr(Op.CALL_LEAF, len(leaves)))
                leaves.append(node)

    emit(e)
    return Program(tuple(code), tuple(constants), tuple(leaves), arity or e.arity)


def _assert_compiles_as_reference(tree):
    got, want = compile_expr(tree), _reference_compile(tree)
    assert got == want
    for p in _programs(got):
        assert all(type(ins) is Instr for ins in p.instructions)
        p.validate()  # `run` trusts compiled programs and their bodies


def test_compile_matches_the_recursive_reference_on_generated_trees():
    rng = random.Random(1414)
    wrap = lift_function("wrap", 1, lambda v: v)
    for k in range(3000):
        n = rng.randint(1, 3)
        if k % 2:
            tree = treegen.gen_tree(rng, n, rng.randint(0, 6), vec_len=2)
        else:
            tree = treegen.gen_tower_tree(rng, n, rng.randint(0, 6))
        if k % 3 == 1:
            tree = Def(f"w{k}", Arity(n), tree) + tree
        elif k % 3 == 2:
            tree = apply_expr(wrap, [tree])
        _assert_compiles_as_reference(tree)


@pytest.mark.parametrize("name", ["2c", "2d", "3a", "3b", "chain200"])
def test_compile_matches_the_recursive_reference_on_scalar_calls(name):
    _assert_compiles_as_reference(_scalar_calls_trees()[name][0])


def test_the_workloads_shapes_compile_to_valid_programs():
    # the benchmark workloads' trees: scalar-calls' golden shapes and chain(200),
    # tower-calls', wide-vectors', and script-session-style definitions and lines
    trees = [t for t, _ in (*_scalar_calls_trees().values(), *_tower_calls_trees().values())]
    trees += _wide_vectors_trees().values()
    rng = random.Random(1616)
    trees += [treegen.gen_tower_tree(rng, n, rng.randint(0, 6)) for n in (1, 2, 3) for _ in range(200)]
    session = Session(SessionConfig(backend="vm"), out=io.StringIO())
    for line in (*_LANE_DEFS, "c = 0.5", "a = f"):
        session.execute_line(line)
    trees += [session.env.lookup(name) for name in "fghka"]
    trees += [parse_expression(line, session.env) for line in ("a(c) + k(1, 2, 3)", "(g + g)(f, h)(0.3)", "(f + h)(2)")]
    for tree in trees:
        _assert_compiles_as_reference(tree)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_compiling_a_composition_chain_does_not_recurse_per_level():
    x, = params(1)
    chain = x
    for _ in range(300):
        chain = apply_expr(x + 1, [chain])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        p = compile_expr(chain)
        got = run(p, (Scalar(0.5),))
    finally:
        sys.setrecursionlimit(limit)
    assert got == Scalar(300.5)


def test_validate_rejects_corrupted_programs():
    x, y = params(2)
    body = compile_expr(x * y)
    leaf = lift_function("first", 2, lambda a, b: a)
    arg = Instr(Op.LOAD_ARG, 0)
    pools = (Scalar(1.0),), (leaf,)
    Program((arg,), *pools, Arity(2)).validate()
    Program((arg, Instr(Op.CALL_PRIM, "neg")), *pools, Arity(2)).validate()  # negation is a CALL_PRIM
    Program((Instr(Op.LOAD_CONST, 1),), (Complex(1.0, 2.0), _SubScalar(1.0), Vector((1.0,))), (), Arity(2)).validate()
    # (constants, leaves, exact message): one row per pool check
    for constants, leaves, message in [
        ((Scalar(1.0), 2.0), (leaf,), "constant 1 is not a Scalar, Complex, Quaternion or Vector"),
        ((Scalar(1.0),), (leaf, "nope"), "leaf 1 is not a Leaf"),
    ]:
        with pytest.raises(InvalidProgramError) as info:
            Program((arg,), constants, leaves, Arity(2)).validate()
        assert str(info.value) == message
    # (instructions, frame arity (None: polymorphic), exact message): one row per failure branch
    table = [
        ((Instr(Op.LOAD_ARG, -1),), 2, "instruction 0: bad argument index"),
        ((Instr(Op.LOAD_ARG, "0"),), 2, "instruction 0: bad argument index"),
        ((Instr(Op.LOAD_ARG, True),), 2, "instruction 0: bad argument index"),
        ((arg,), None, "instruction 0: argument load in a polymorphic frame"),
        ((Instr(Op.LOAD_ARG, 7),), 2, "instruction 0: argument index 7 outside frame arity 2"),
        ((arg, arg, Instr(Op.BINARY, "+")), 2, "instruction 2: bad operator payload"),
        ((arg, Instr(Op.BINARY, ArithOp.ADD)), 2, "instruction 1: stack underflow"),
        ((arg, Instr(Op.BEGIN_FRAME, 0)), 2, "instruction 1: bad frame arity"),
        ((arg, Instr(Op.BEGIN_FRAME, True)), 2, "instruction 1: bad frame arity"),
        ((arg, Instr(Op.BEGIN_FRAME, 2)), 2, "instruction 1: stack underflow"),
        ((arg, Instr(Op.END_FRAME)), 2, "instruction 1: no frame to pop"),
        ((arg, Instr(Op.BEGIN_FRAME, 1), arg, arg, Instr(Op.END_FRAME)), 2,
         "instruction 4: frame body did not leave exactly one value"),
        ((Instr(Op.LOAD_CONST, 1),), 2, "instruction 0: constant index out of range"),
        ((Instr(Op.LOAD_CONST, False),), 2, "instruction 0: constant index out of range"),
        ((arg, Instr(Op.CALL_PRIM, "nosuch")), 2, "instruction 1: unknown builtin 'nosuch'"),
        ((arg, Instr(Op.CALL_PRIM, ["sin"])), 2, "instruction 1: unknown builtin ['sin']"),
        ((Instr(Op.CALL_PRIM, "sin"),), 2, "instruction 0: stack underflow"),
        ((Instr(Op.CALL_DEF, "not a program"),), 2, "instruction 0: bad definition payload"),
        ((Instr(Op.CALL_DEF, body),), None, "instruction 0: definition arity does not match frame arity"),
        ((Instr(Op.CALL_LEAF, 1),), 2, "instruction 0: leaf index out of range"),
        ((Instr(Op.CALL_LEAF, False),), 2, "instruction 0: leaf index out of range"),
        ((Instr(Op.CALL_LEAF, 0),), None, "instruction 0: leaf arity does not match frame arity"),
        ((arg, Instr(Op.BEGIN_FRAME, 1), arg), 2, "unbalanced frames at end of program"),
        ((arg, Instr(Op.LOAD_CONST, 0)), 2, "program leaves 2 values on the stack, expected 1"),
        ((), 2, "program leaves 0 values on the stack, expected 1"),
    ]
    for instrs, n, message in table:
        bad = Program(instrs, *pools, Arity(n))
        with pytest.raises(InvalidProgramError) as info:
            bad.validate()
        assert str(info.value) == message


def test_validate_checks_callee_arity_against_the_frame():
    x, y = params(2)
    body = compile_expr(x * y)
    leaf = lift_function("first", 2, lambda a, b: a)

    def program(instr, arity):
        return Program((instr,), (), (leaf,), Arity(arity))

    program(Instr(Op.CALL_DEF, body), 2).validate()
    program(Instr(Op.CALL_LEAF, 0), 2).validate()
    for bad in (
        program(Instr(Op.CALL_DEF, body), 1),
        program(Instr(Op.CALL_DEF, "not a program"), 2),
        program(Instr(Op.CALL_LEAF, 0), 3),
    ):
        with pytest.raises(InvalidProgramError, match=r"^instruction 0: "):
            bad.validate()


_X = Instr(Op.LOAD_ARG, 0)
_FIRSTS = {n: lift_function(f"first{n}", n, lambda *a: a[0]) for n in (1, 2, 3)}  # pure leaves


@pytest.mark.parametrize(
    "program, message",
    [
        (Program((Instr(Op.LOAD_ARG, 5),), (), (), Arity(1)), "instruction 0: argument index 5 outside frame arity 1"),
        (Program((Instr(Op.LOAD_CONST, 1),), (Scalar(1.0),), (), Arity(1)), "instruction 0: constant index out of range"),
        (Program((), (), (), Arity(1)), "program leaves 0 values on the stack, expected 1"),
        (Program((_X, _X), (), (), Arity(1)), "program leaves 2 values on the stack, expected 1"),
        (Program((Instr(Op.LOAD_ARG, True),), (), (), Arity(1)), "instruction 0: bad argument index"),
        (Program((Instr(Op.LOAD_CONST, False),), (Scalar(1.0),), (), Arity(1)), "instruction 0: constant index out of range"),
        (Program((_X, Instr(Op.BEGIN_FRAME, True), _X, Instr(Op.END_FRAME)), (), (), Arity(1)),
         "instruction 1: bad frame arity"),
        (Program((Instr(Op.CALL_LEAF, False),), (), (_FIRSTS[1],), Arity(1)), "instruction 0: leaf index out of range"),
        (Program((_X, Instr(Op.CALL_PRIM, ["sin"])), (), (), Arity(1)), "instruction 1: unknown builtin ['sin']"),
        (Program((_X, Instr(Op.CALL_PRIM, {})), (), (), Arity(1)), "instruction 1: unknown builtin {}"),
        (Program((Instr(Op.LOAD_CONST, 0),), (2.0,), (), Arity(1)),
         "constant 0 is not a Scalar, Complex, Quaternion or Vector"),
        (Program((_X,), (), ("nope",), Arity(1)), "leaf 0 is not a Leaf"),
        # a valid program whose definition body is not: the body's own first run checks it
        (Program((Instr(Op.CALL_DEF, Program((Instr(Op.LOAD_ARG, 5),), (), (), Arity(1))),), (), (), Arity(1)),
         "instruction 0: instruction 0: argument index 5 outside frame arity 1"),
    ],
    ids=["load-arg", "load-const", "empty", "two-values", "load-arg-bool", "load-const-bool", "begin-frame-bool",
         "call-leaf-bool", "call-prim-list", "call-prim-dict", "constant", "leaf", "body"],
)
def test_run_validates_a_hand_built_program(program, message):
    for _ in range(funcalg.vm._LANE_AFTER + 2):  # past the run that builds lanes
        with pytest.raises(InvalidProgramError) as info:
            run(program, (Scalar(1.0),))
        assert str(info.value) == message
    assert not program._lane  # never built (None), or laneless (False) for the unvalidated body


def test_a_valid_hand_built_program_runs_and_gets_its_lane():
    p = Program((_X, Instr(Op.LOAD_CONST, 0), Instr(Op.BINARY, ArithOp.MUL)), (Scalar(2.0),), (), Arity(1))
    assert p == compile_expr(params(1)[0] * 2.0)  # lane state and validation are not compared
    assert p._runs == -1
    for runs in range(1, funcalg.vm._LANE_AFTER + 2):
        assert run(p, (Scalar(1.5),)) == Scalar(3.0)
        assert callable(p._lane) == (runs >= funcalg.vm._LANE_AFTER)
    assert p._runs == funcalg.vm._LANE_AFTER


def test_compiled_programs_are_not_validated(monkeypatch):
    calls = []
    monkeypatch.setattr(Program, "validate", lambda p: calls.append(p))
    x, y = params(2)
    p = compile_expr(x * y + Def("d", Arity(2), x - y))
    assert run(p, (Scalar(2.0), Scalar(3.0))) == Scalar(5.0)
    assert calls == []


def test_run_checks_arity():
    x, y = params(2)
    p = compile_expr(x + y)
    with pytest.raises(ArityMismatchError):
        run(p, (Scalar(1.0),))


def test_run_reports_instruction_index_on_evaluation_errors():
    p = compile_expr(builtin("cumsum"))
    with pytest.raises(UnsupportedKindError, match=r"instruction \d+"):
        run(p, (Scalar(1.0),))


def _cumsum_in_frame():
    x, = params(1)
    return builtin("cumsum")(x + 1), (Scalar(1.0),)


def _kind_mismatch_after_frame():
    x, = params(1)
    return builtin("sin")(x) + const_expr(Complex(1.0, 1.0)), (Vector((1.0, 2.0)),)


@pytest.mark.parametrize(
    "build, ip, error",
    [
        # top level: LOAD_ARG 0, CALL_PRIM cumsum
        (lambda: (builtin("cumsum"), (Scalar(1.0),)), 1, UnsupportedKindError),
        # the callee's CALL_PRIM, between BEGIN_FRAME (3) and END_FRAME (6)
        (_cumsum_in_frame, 5, UnsupportedKindError),
        # the final BINARY, after the frame has been popped
        (_kind_mismatch_after_frame, 6, KindMismatchError),
    ],
    ids=["top-level", "in-frame", "after-frame"],
)
def test_evaluation_errors_name_the_exact_instruction(build, ip, error):
    tree, args = build()
    p = compile_expr(tree)
    assert p.instructions[ip].op in (Op.CALL_PRIM, Op.BINARY)
    with pytest.raises(error, match=rf"^instruction {ip}: "):
        run(p, args)
    with pytest.raises(error):
        evaluate(tree, args)


def test_differential_backend_equivalence_sample():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 3)
        vec_len = rng.randint(1, 3)
        tree = treegen.gen_tree(rng, n, rng.randint(0, 6), vec_len=vec_len)
        args = treegen.gen_args(rng, n, vec_len=vec_len)
        program = compile_expr(tree)
        try:
            want = evaluate(tree, args)
        except Exception as err:
            with pytest.raises(type(err)):
                run(program, args)
            continue
        assert same_value(run(program, args), want)


def test_differential_backend_equivalence_over_the_tower():
    rng = random.Random(4242)
    kinds = collections.Counter()
    for _ in range(400):
        n = rng.randint(1, 3)
        tree = treegen.gen_tower_tree(rng, n, rng.randint(0, 5))
        args = treegen.gen_tower_args(rng, n)
        program = compile_expr(tree)
        try:
            want = evaluate(tree, args)
        except Exception as err:
            with pytest.raises(type(err)):
                run(program, args)
            kinds[type(err).__name__] += 1
            continue
        assert same_value(run(program, args), want)
        kinds[type(want).__name__] += 1
    # the corpus reaches every kind and mostly evaluates
    assert min(kinds["Scalar"], kinds["Complex"], kinds["Quaternion"]) >= 40, kinds
    assert kinds["Scalar"] + kinds["Complex"] + kinds["Quaternion"] >= 300, kinds


def test_bench_returns_matching_reports():
    f, g = _fg()
    tree_report, vm_report = bench(f + g, (Scalar(2.0),), iterations=1)
    assert tree_report.backend == "tree"
    assert vm_report.backend == "vm"
    assert tree_report.iterations == vm_report.iterations == 1
    assert same_value(tree_report.result, vm_report.result)
    assert tree_report.total_ns >= 0 and vm_report.total_ns >= 0

    payload = json.loads(vm_report.as_json())
    assert set(payload) == {"backend", "iterations", "total_ns", "mean_ns", "result"}
    assert payload["result"] == "3"


def test_bench_rejects_bad_iterations():
    f, g = _fg()
    with pytest.raises(ValueError):
        bench(f, (Scalar(1.0),), iterations=0)


def test_bench_detects_backend_mismatch(monkeypatch):
    f, g = _fg()
    monkeypatch.setattr(funcalg.vm, "evaluate", lambda e, a: Scalar(123.456))
    with pytest.raises(BackendMismatchError):
        bench(f + g, (Scalar(2.0),), iterations=1)


def test_bench_propagates_errors_before_timing():
    with pytest.raises(UnsupportedKindError):
        bench(builtin("cumsum"), (Scalar(1.0),), iterations=10)


def _programs(p):
    """p and every definition-body program it reaches through CALL_DEF."""
    yield p
    for op, a in p.instructions:
        if op is Op.CALL_DEF:
            yield from _programs(a)


def _arg_refs(e):
    """Parameter references in a tree, not counting those inside definitions."""
    if isinstance(e, Arg):
        return 1
    if isinstance(e, Def):
        return 0
    children = [c for c in vars(e).values() if isinstance(c, FuncExpr)]
    return sum(map(_arg_refs, children + list(getattr(e, "args", ()))))


def test_definitions_run_in_the_vm(monkeypatch):
    out = io.StringIO()
    session = Session(SessionConfig(backend="vm"), out=out)
    for line in ("f(x) = x*x + 1", "g(x, y) = f(x) + y", "h(x, y) = f(y) - x"):
        session.execute_line(line)

    calls = []
    # every node class evaluates itself, so the walker is patched per class
    for name in ("Leaf", "Arg", "Def", "Const", "Prim", "BinOp", "Neg", "Apply"):
        walk = getattr(funcalg.algebra, name)._eval
        spy = lambda *a, walk=walk: calls.append(a) or walk(*a)
        monkeypatch.setattr(getattr(funcalg.algebra, name), "_eval", spy)
    session.execute_line("g(2, 3)")
    assert out.getvalue() == "8\n"
    assert calls == []
    monkeypatch.undo()

    # f + g would mix arities 1 and 2, so the composed call uses g + h
    p = compile_expr(parse_expression("(g + h)(1, 2)", session.env))
    programs = list(_programs(p))
    assert len(programs) == 5  # the call, then g, f (via g), h, f (via h)
    assert all(ins.op is not Op.CALL_LEAF for q in programs for ins in q.instructions)
    assert run(p, (Scalar(0.0),)) == Scalar(8.0)
    for name in "fgh":
        d = session.env.lookup(name)
        body = d.call.a
        loads = [ins for ins in body.instructions if ins.op is Op.LOAD_ARG]
        assert len(loads) == _arg_refs(d.body) == 2


def test_a_definition_holds_its_compiled_call():
    x, = params(1)
    d = Def("f", Arity(1), x * x + 1.0)
    fresh = Def("f", Arity(1), d.body)
    assert d.call is None
    p, q = compile_expr(d + 2.0), compile_expr(apply_expr(d, [d]))
    calls = [ins for prog in (p, q) for ins in prog.instructions if ins.op is Op.CALL_DEF]
    assert len(calls) == 3 and all(ins is d.call for ins in calls)
    assert run(p, (Scalar(3.0),)) == Scalar(12.0) and run(q, (Scalar(2.0),)) == Scalar(26.0)

    # a twin of the same name and body compiles its own body, equal but not shared
    twin = Def("f", Arity(1), d.body)
    compile_expr(twin)
    assert twin.call is not d.call and twin.call.a is not d.call.a and twin.call.a == d.call.a

    # the field shows in neither repr nor equality: a Def is equal only to itself
    assert repr(d) == repr(fresh) == repr(twin) and "call" not in repr(d)
    assert d == d and d != fresh and d != twin and hash(d) == object.__hash__(d)

    # a body lives exactly as long as its Def and the programs that call it.
    # Program has slots and no weak reference slot: count the live programs
    # equal to the two bodies instead, before and after dropping their Defs.
    probe = compile_expr(fresh.body, Arity(1))

    def bodies():
        gc.collect()
        return sum(type(o) is Program and o == probe for o in gc.get_objects())

    before = bodies()
    del d, twin, p, q, calls
    assert before - bodies() == 2


def test_errors_inside_definitions_match_across_backends():
    errors = {}
    for backend in ("tree", "vm", "check"):
        session = Session(SessionConfig(backend=backend), out=io.StringIO())
        session.execute_line("k(x) = Cumsum(x)")
        with pytest.raises(UnsupportedKindError) as info:
            session.execute_line("k(2)")
        errors[backend] = str(info.value)
    assert errors["check"] == errors["tree"]
    # the call site in the line's program, then the CALL_PRIM in k's body
    assert errors["vm"] == "instruction 2: instruction 3: " + errors["tree"]


def test_a_leafs_own_exception_propagates_through_both_backends():
    boom = ZeroDivisionError("host leaf failed")

    def body(v):
        raise boom

    leaf = lift_function("fails", 1, body)
    x, = params(1)
    inner = x + leaf * 2.0
    trees = [leaf, inner, Def("d", Arity(1), inner), apply_expr(inner, [x * x])]
    for tree in trees:
        with pytest.raises(ZeroDivisionError) as info:
            evaluate(tree, (Scalar(1.0),))
        assert info.value is boom
        p = compile_expr(tree)
        for _ in range(funcalg.vm._LANE_AFTER + 1):  # a program with a leaf stays on the loop
            with pytest.raises(ZeroDivisionError) as info:
                run(p, (Scalar(1.0),))
            assert info.value is boom
    for backend in ("tree", "vm", "check"):
        session = Session(SessionConfig(backend=backend), out=io.StringIO())
        session.env.define("fails", leaf)
        with pytest.raises(ZeroDivisionError) as info:
            session.execute_line("fails(2) + 1")
        assert info.value is boom


def test_constant_definition_keeps_declared_arity():
    session = Session(SessionConfig(backend="vm"), out=io.StringIO())
    session.execute_line("f(x) = 3")
    f = session.env.lookup("f")
    assert f.arity == Arity(1)
    assert run(compile_expr(f), (Scalar(9.0),)) == Scalar(3.0)
    with pytest.raises(ArityMismatchError):
        run(compile_expr(f), (Scalar(1.0), Scalar(2.0)))


# ---------------------------------------------------------------------------
# Lanes: once a program has run `_LANE_AFTER` times, `run` calls the generated
# function for its argument types (Scalar, Complex and Quaternion, or Scalar
# and Vector) instead of the loop.

_EDGE = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308,
    710.0, -710.0, -2.0, -0.5, 0.5, 1.5, 2.0, 3.0, -1.0, 1.0,
)

# parsed definitions calling each other: domain edges (x = 0, log of a
# negative, negative bases with non-integer exponents) sit inside them
_LANE_DEFS = (
    "f(x) = Sin(x) / x",
    "g(x, y) = f(x) - y^x",
    "h(x) = g(x, Log(x)) * f(-x)",
    "k(x, y, z) = h(x + y) - z / g(z, Asin(x))",
)


def _parsed_defs():
    session = Session(SessionConfig(backend="vm"), out=io.StringIO())
    defs = {1: [], 2: [], 3: []}
    for line in _LANE_DEFS:
        session.execute_line(line)
        d = session.env.lookup(line[0])
        defs[d.arity.n].append(d)
    return defs


def _gen_lane_tree(rng, n, depth, defs):
    """A lane-eligible tree of arity n or polymorphic: parameters, Scalar
    constants from the edge grid, every builtin (the scans fail on a
    scalar), arithmetic, negation, composition and definitions."""
    r = rng.random()
    if depth <= 0 or r < 0.2:
        r = rng.random()
        if r < 0.3:
            return const_expr(Scalar(rng.choice(_EDGE)))
        if r < 0.45:
            return rng.choice(defs[n])
        if r < 0.7 and n == 1:
            return builtin(rng.choice(PRIMITIVES))
        return rng.choice(params(n))
    sub = lambda m: _gen_lane_tree(rng, m, depth - 1, defs)
    if r < 0.5:
        return combine(rng.choice(list(ArithOp)), sub(n), sub(n))
    if r < 0.6:
        return negate(sub(n))
    if r < 0.7:
        return Def(f"d{depth}", Arity(n), sub(n))
    m = rng.randint(1, 3)
    return apply_expr(sub(m), [sub(n) for _ in range(m)])


def _loop_results(p, cases, monkeypatch):
    """run(p, args) for each case on the loop alone, with no lane in p or in
    any body it reaches; an error is returned, not raised."""
    for q in _programs(p):
        for name, value in (("_lane", None), ("_lanes", {}), ("_runs", 0)):
            object.__setattr__(q, name, value)
    monkeypatch.setattr(funcalg.vm, "_LANE_AFTER", math.inf)
    wants = []
    for args in cases:
        try:
            wants.append(run(p, args))
        except FuncalgError as err:
            wants.append(err)
    monkeypatch.undo()
    return wants


def _check_lane(p, args, want):
    """The lane for args' types gives want bit for bit, by kind and by
    `float.hex` per component; where the loop raised, the lane raises (or,
    for a kind error, was never built: its code would raise on every run)
    and `run` re-raises the loop's exact error.  Returns the outcome's kind."""
    lane = funcalg.vm._lane_of(p, tuple(map(type, args)))
    if lane is False:
        assert isinstance(want, (UnsupportedKindError, UnsupportedPowError))
        got = want
    else:
        assert callable(lane)
        try:
            got = lane(*args)
        except Exception as err:
            got = err
    if isinstance(got, ValueError) and str(got).startswith("zip()") and not isinstance(want, FuncalgError):
        # vectors of different lengths that never meet: the loop re-runs and answers
        got = run(p, args)
    if isinstance(want, FuncalgError):
        assert isinstance(got, Exception)
        with pytest.raises(type(want)) as info:
            run(p, args)  # the lane raises; the loop re-runs
        assert str(info.value) == str(want)
        assert str(want).startswith("instruction ")
        return "error"
    for value in (got, run(p, args)):
        assert type(value) is type(want)
        assert [x.hex() for x in _components(value)] == [x.hex() for x in _components(want)]
    return type(want).__name__


def _components(v):
    if type(v) is Vector:
        return list(v.xs)
    return [getattr(v, f) for f in funcalg.values._FIELDS[type(v)]]


def test_scalar_lane_matches_the_loop_bit_for_bit(monkeypatch):
    defs = _parsed_defs()
    rng = random.Random(606)
    outcomes = collections.Counter()
    for _ in range(3000):
        n = rng.randint(1, 3)
        p = compile_expr(_gen_lane_tree(rng, n, rng.randint(0, 5), defs))
        cases = [tuple(Scalar(rng.choice(_EDGE)) for _ in range(n)) for _ in range(4)]
        for args, want in zip(cases, _loop_results(p, cases, monkeypatch)):
            outcome = _check_lane(p, args, want)
            if outcome == "Scalar":
                outcome = "finite" if math.isfinite(want.x) else "inf/nan"
            outcomes[outcome] += 1
    # the corpus reaches errors, IEEE edge results and ordinary values
    assert min(outcomes.values()) >= 500, outcomes


def _tower_edge_value(rng):
    """A scalar, complex or quaternion value, its components from the edge
    grid or from `gen_tower_value`."""
    v = treegen.gen_tower_value(rng)
    if rng.random() < 0.3:
        v = type(v)(*(rng.choice(_EDGE) for _ in _components(v)))
    return v


def _gen_tower_lane_tree(rng, n, depth):
    """`gen_tower_tree` subtrees joined by every operator (so ^ also meets
    complex, quaternion and non-integer exponents), negation, composition
    and definitions, with tower constants on the edge grid."""
    r = rng.random()
    if depth <= 0 or r < 0.25:
        if rng.random() < 0.2:
            return const_expr(_tower_edge_value(rng))
        return treegen.gen_tower_tree(rng, n, rng.randint(0, 2))
    sub = lambda m: _gen_tower_lane_tree(rng, m, depth - 1)
    if r < 0.55:
        return combine(rng.choice(list(ArithOp)), sub(n), sub(n))
    if r < 0.65:
        return negate(sub(n))
    if r < 0.8:
        return Def(f"d{depth}", Arity(n), sub(n))
    m = rng.randint(1, 3)
    return apply_expr(sub(m), [sub(n) for _ in range(m)])


def test_tower_lane_matches_the_loop_bit_for_bit(monkeypatch):
    rng = random.Random(808)
    outcomes = collections.Counter()
    for _ in range(1500):
        n = rng.randint(1, 3)
        p = compile_expr(_gen_tower_lane_tree(rng, n, rng.randint(0, 4)))
        # one program, several signatures: each gets its own lane
        cases = [tuple(_tower_edge_value(rng) for _ in range(n)) for _ in range(4)]
        for args, want in zip(cases, _loop_results(p, cases, monkeypatch)):
            outcomes[_check_lane(p, args, want)] += 1
    # the corpus reaches errors and every kind of result
    assert min(outcomes.values()) >= 300, outcomes
    assert set(outcomes) == {"error", "Scalar", "Complex", "Quaternion"}, outcomes


def _edge_vector(rng, length):
    return Vector(tuple(rng.choice(_EDGE) for _ in range(length)))


def _gen_vector_lane_tree(rng, n, depth, consts):
    """A tree of arity n over Scalar and Vector values: parameters, Scalar
    constants from the edge grid, the Vector constants `consts`, every
    builtin (scans included), arithmetic, negation, composition, and
    1/(1-t), which divides by zero where t is 1."""
    r = rng.random()
    if depth <= 0 or r < 0.2:
        r = rng.random()
        if r < 0.2:
            return const_expr(Scalar(rng.choice(_EDGE)))
        if r < 0.3:
            return const_expr(rng.choice(consts))
        if r < 0.55 and n == 1:
            return builtin(rng.choice(PRIMITIVES))
        return rng.choice(params(n))
    sub = lambda m: _gen_vector_lane_tree(rng, m, depth - 1, consts)
    if r < 0.5:
        return combine(rng.choice(list(ArithOp)), sub(n), sub(n))
    if r < 0.6:
        return 1 / (1 - sub(n))
    if r < 0.7:
        return negate(sub(n))
    m = rng.randint(1, 3)
    return apply_expr(sub(m), [sub(n) for _ in range(m)])


def test_vector_lane_matches_the_loop_bit_for_bit(monkeypatch):
    rng = random.Random(707)
    outcomes = collections.Counter()
    for _ in range(1500):
        n = rng.randint(1, 3)
        length = rng.randint(1, 4)
        # one vector constant of another length: where it meets a vector argument, both paths raise
        consts = (_edge_vector(rng, length), _edge_vector(rng, length), _edge_vector(rng, length + 1))
        p = compile_expr(_gen_vector_lane_tree(rng, n, rng.randint(1, 5), consts))
        cases = [tuple(_edge_vector(rng, length) if rng.random() < 0.7 else Scalar(rng.choice(_EDGE))
                       for _ in range(n)) for _ in range(4)]
        for args, want in zip(cases, _loop_results(p, cases, monkeypatch)):
            if funcalg.vm._lane_of(p, tuple(map(type, args))):
                outcomes[_check_lane(p, args, want)] += 1
            else:  # a scan of a scalar, or a result that does not vary per element
                outcomes["laneless"] += 1
    # the corpus reaches vector results, length errors and programs that stay on the loop
    assert outcomes["Vector"] >= 1500 and min(outcomes.values()) >= 200, outcomes
    assert set(outcomes) == {"error", "Scalar", "Vector", "laneless"}, outcomes


class _SubScalar(Scalar):
    pass


_LEAF = lift_function("twice", 1, lambda v: value_binop(ArithOp.MUL, v, Scalar(2.0)))


def _run_past_threshold(tree, args):
    p = compile_expr(tree)
    want = evaluate(tree, args)
    for _ in range(2 * funcalg.vm._LANE_AFTER):
        got = run(p, args)
        assert type(got) is type(want) and same_value(got, want)
    return p


@pytest.mark.parametrize(
    "args, lane",
    [
        ((Complex(1.0, 2.0), Scalar(3.0)), True),
        ((Quaternion(1.0, 0.0, 1.0, 0.0), Quaternion(0.0, 0.0, 0.0, 1.0)), True),
        ((Scalar(2.0), Vector((1.0, 2.0))), False),
        ((_SubScalar(1.5), Scalar(2.0)), False),
    ],
    ids=["complex", "quaternion", "vector", "scalar-subclass"],
)
def test_tower_runs_get_a_lane_vector_and_subclass_runs_do_not(args, lane):
    x, y = params(2)
    p = _run_past_threshold(x + x * y - Def("d", Arity(2), x / y), args)
    sig = tuple(map(type, args))
    assert list(p._lanes) == [sig] and callable(p._lanes[sig]) == lane
    assert p._lane is None  # the all-Scalar lane
    assert p._runs == funcalg.vm._LANE_AFTER


def test_a_program_with_a_complex_constant_gets_a_lane():
    p = _run_past_threshold(params(1)[0] * const_expr(Complex(0.0, 1.0)), (Scalar(0.75),))
    assert callable(p._lane) and p._lanes == {(Scalar,): p._lane}


def test_a_program_with_a_vector_constant_gets_a_lane():
    p = _run_past_threshold(params(1)[0] * const_expr(Vector((1.0, 2.0))), (Scalar(0.75),))
    assert callable(p._lane) and p._lanes == {(Scalar,): p._lane}


@pytest.mark.parametrize(
    "tree",
    [
        params(1)[0] + _LEAF,
        params(1)[0] - Def("uses_leaf", Arity(1), _LEAF * params(1)[0]),
        # the body gets a vector lane, whose Vector result a scalar lane cannot hold
        params(1)[0] + Def("scales", Arity(1), params(1)[0] * const_expr(Vector((1.0, 2.0)))),
    ],
    ids=["leaf", "definition-with-leaf", "definition-with-vector-constant"],
)
def test_programs_with_leaves_or_non_scalar_constants_stay_laneless(tree):
    p = _run_past_threshold(tree, (Scalar(0.75),))
    assert p._lane is False


def _scalar_calls_trees():
    """The `scalar-calls` benchmark programs, built through params/builtin."""
    x, y, z = params(3)
    f, g = x + x * y - x / z, x**2 - z
    u, = params(1)
    sin, cos, tan, log, exp = (builtin(n) for n in ("sin", "cos", "tan", "log", "exp"))
    fun = u * u + 2
    a, b = params(2)
    j = cos(a) + sin(a - b)
    k = tan(a) + log(a + b)
    l = sin(a / 2) + a**2
    chain = u
    steps = (sin, u * 0.5 + 1, cos)
    for i in range(200):
        chain = apply_expr(steps[i % 3], [chain])
    return {
        "2c": ((f + g) * (f + 4 - 2 * f * g), 3),
        "2d": ((f + g)(x + z, y + z, (f - g)(x, x, y)), 3),
        "3a": (fun(sin) + sin(fun) - 3 * sin * fun, 1),
        "3b": ((j + k + l)(sin + log, cos + exp)(sin + tan), 1),
        "chain200": (chain, 1),
    }


@pytest.mark.parametrize("name", ["2c", "2d", "3a", "3b", "chain200"])
def test_scalar_calls_programs_get_a_lane(name):
    tree, n = _scalar_calls_trees()[name]
    rng = random.Random(name)
    p = compile_expr(tree)
    for runs in range(1, funcalg.vm._LANE_AFTER + 8):
        args = tuple(Scalar(rng.uniform(0.2, 1.2)) for _ in range(n))
        assert run(p, args).x.hex() == evaluate(tree, args).x.hex()
        assert callable(p._lane) == (runs >= funcalg.vm._LANE_AFTER)


def _tower_calls_trees():
    """The `tower-calls` benchmark programs: the section 21 example and 2c."""
    x, y = params(2)
    f, g = x + x * y, x**2 + y
    return {"21": (f + g - f * g, 2), "2c": _scalar_calls_trees()["2c"]}


@pytest.mark.parametrize("name", ["21", "2c"])
def test_tower_calls_programs_get_a_lane_per_signature(name):
    tree, n = _tower_calls_trees()[name]
    rng = random.Random(name)
    p = compile_expr(tree)
    built = set()
    for runs in range(1, funcalg.vm._LANE_AFTER + 8):
        kind = (Complex, Quaternion)[runs % 2]  # alternating, as the workload's points
        fields = funcalg.values._FIELDS[kind]
        args = tuple(kind(*(rng.uniform(-2, 2) for _ in fields)) for _ in range(n))
        got, want = run(p, args), evaluate(tree, args)
        assert type(got) is type(want) is kind
        assert [x.hex() for x in _components(got)] == [x.hex() for x in _components(want)]
        if runs >= funcalg.vm._LANE_AFTER:  # the first run of a signature from then on builds its lane
            built.add((kind,) * n)
        assert set(p._lanes) == built and all(map(callable, p._lanes.values()))
    assert len(built) == 2 and p._lane is None


def _spy_on_kernels(monkeypatch, calls):
    """Wrap every entry of the kernel tables that the tree walker and `run`'s
    loop call, so that each call appends its operator or builtin name."""
    for table in (funcalg.values._BINOPS, funcalg.values._BUILTINS):
        for key, kernel in list(table.items()):
            monkeypatch.setitem(table, key, lambda *a, key=key, kernel=kernel: calls.append(key) or kernel(*a))


@pytest.mark.parametrize("name", ["21", "2c"])
@pytest.mark.parametrize("kind", [Complex, Quaternion])
def test_tower_calls_lanes_square_without_value_binop(name, kind, monkeypatch):
    calls = []
    _spy_on_kernels(monkeypatch, calls)  # before any lane is built
    tree, n = _tower_calls_trees()[name]
    rng = random.Random(name)
    args = tuple(kind(*(rng.uniform(-2, 2) for _ in funcalg.values._FIELDS[kind])) for _ in range(n))
    p = compile_expr(tree)
    want = run(p, args)  # the loop's first run goes through the spies
    assert ArithOp.POW in calls
    calls.clear()
    got = funcalg.vm._lane_of(p, (kind,) * n)(*args)  # no fall-back to the loop hides a raise
    assert calls == []
    assert type(got) is kind
    assert [x.hex() for x in _components(got)] == [x.hex() for x in _components(want)]


def test_tower_pow_lanes_match_the_loop_on_edge_exponents(monkeypatch):
    cap = float(funcalg.vm._POW_UNROLL)
    rng = random.Random(909)
    grid = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, math.inf, -math.inf, math.nan, 1e308, 5e-324)
    bases = [Scalar(a) for a in grid] + [Complex(a, b) for a in grid for b in grid]
    bases += [Quaternion(z, z, z, z) for z in (0.0, -0.0)]
    bases += [Quaternion(*(rng.choice(_EDGE) for _ in range(4))) for _ in range(60)]
    bases += [Quaternion(*(rng.uniform(-2, 2) for _ in range(4))) for _ in range(20)]
    exponents = [Scalar(e) for e in (-0.0, 0.0, 1.0, 2.0, 3.0, 5.0, cap, cap + 1, 1e300,
                                     -1.0, 2.5, math.nan, math.inf)]
    # at a zero base, _cpow_parts gives one (a zero exponent), zero (a positive
    # real one) or NaN (every other)
    exponents += [Complex(0.0, 0.0), Complex(-0.0, -0.0), Complex(2.0, 0.0), Complex(2.0, -0.0),
                  Complex(-1.0, 0.0), Complex(0.0, 1.0), Complex(2.0, 1.0), Complex(math.nan, 0.0)]
    u, = params(1)
    x, y = params(2)
    outcomes = collections.Counter()
    at_zero = set()
    for e in exponents:
        # the exponent as a constant (a quaternion base may unroll it) and as
        # an argument (a quaternion base always calls value_binop)
        for p, cases in ((compile_expr(u ** const_expr(e)), [(b,) for b in bases]),
                         (compile_expr(x ** y), [(b, e) for b in bases])):
            for args, want in zip(cases, _loop_results(p, cases, monkeypatch)):
                outcomes[_check_lane(p, args, want)] += 1
                if args[0] == Complex(0.0, 0.0) and type(want) is Complex:
                    at_zero.add(format_value(want))
    assert at_zero == {"1+0i", "0+0i", "NaN+NaNi"}
    assert min(outcomes.values()) >= 200, outcomes
    assert set(outcomes) == {"error", "Scalar", "Complex", "Quaternion"}, outcomes


def test_pow_lanes_by_a_constant_match_the_loop_on_the_edge_grid(monkeypatch):
    # the grid of test_vector_pow_is_pinned_to_the_per_element_repair, as
    # vectors and as scalars, raised to each of its exponents as a constant
    grid = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308,
            0.5, -0.5, 2.0, -2.0, 3.0, -3.0, 1e-300, -1e-300]
    exponents = [0.5, -0.5, 2.5, -2.5, 1.5, 1e-300, 2.0, 3.0, -1.0, -2.0, 0.0, -0.0,
                 1025.0, -1025.0, 1e308, math.inf, -math.inf, math.nan]
    rng = random.Random(1717)
    cases = [(Vector(tuple(grid)),), (Vector(tuple(rng.choice(grid) for _ in range(200))),)]
    cases += [(Scalar(a),) for a in grid]
    u, = params(1)
    for e in exponents:
        for tree in (u ** e, u ** e + 1.0):
            p = compile_expr(tree)
            for args, want in zip(cases, _loop_results(p, cases, monkeypatch)):
                assert _check_lane(p, args, want) == type(args[0]).__name__
    # a negative finite base with a constant non-integer exponent is NaN without a raise
    raw, repair = funcalg.values._REAL_OPS[ArithOp.POW]
    repairs = []
    monkeypatch.setitem(funcalg.values._REAL_OPS, ArithOp.POW, (raw, lambda a, b: repairs.append(a) or repair(a, b)))
    xs = Vector(tuple(map(float, range(-1000, 1000))))
    got = funcalg.vm._lane_of(compile_expr(u ** 0.5 + 1.0), (Vector,))(xs)
    assert all(map(math.isnan, got.xs[:1000])) and got.xs[1001] == 2.0
    assert repairs == []


@pytest.mark.parametrize("name", PRIMITIVES)
def test_complex_and_quaternion_builtin_lanes_match_the_loop_without_kernel_calls(name, monkeypatch):
    rng = random.Random(name)
    grid = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 710.0, -710.0, -2.0, 0.5, 1.0)
    cases = [(Complex(a, b),) for a in grid for b in grid]
    cases += [(Quaternion(*(rng.choice(_EDGE) for _ in range(4))),) for _ in range(60)]
    cases += [(Quaternion(*(rng.uniform(-2, 2) for _ in range(4))),) for _ in range(20)]
    x, = params(1)
    prim = builtin(name)
    trees = (prim, prim(x * x) - prim)  # the repeated call is computed once
    outcomes = collections.Counter()
    for tree in trees:
        p = compile_expr(tree)
        for args, want in zip(cases, _loop_results(p, cases, monkeypatch)):
            outcomes[_check_lane(p, args, want)] += 1
    # complex exp, log, sqrt, sin and cos give complex values, quaternion abs a scalar; the rest raise
    result = dict.fromkeys(("exp", "log", "sqrt", "sin", "cos"), "Complex") | {"abs": "Scalar"}
    assert set(outcomes) == {"error", result.get(name, "error")}, outcomes
    # the lanes call no kernel: spied on before any lane is built
    calls = []
    _spy_on_kernels(monkeypatch, calls)
    for tree in trees:
        p = compile_expr(tree)
        try:
            run(p, cases[0])  # the loop's first run goes through the spies
        except FuncalgError:
            pass
        assert name in calls
        calls.clear()
        for args in cases:
            lane = funcalg.vm._lane_of(p, tuple(map(type, args)))
            try:
                if lane:  # False only where the loop raised a kind error (_check_lane above)
                    lane(*args)  # called directly: no fall-back
            except FuncalgError:
                pass
    assert calls == []


@pytest.mark.parametrize("e", [0.0, 1.0, 2.0, 3.0, 5.0, 64.0, 65.0, 2.5])
def test_quaternion_pow_lanes_by_a_computed_exponent_leave_their_base_alone(e, monkeypatch):
    # the square-and-multiply loop squares a copy of its base: the base's own
    # names may be shared, by value numbering, a frame's arguments or a constant
    q = Quaternion(1.0, 2.0, 0.5, -1.0)
    x, y = params(2)
    u, v = params(2)
    body = Def("b", Arity(2), x**y - x)
    programs = [(compile_expr(tree), (q, Scalar(e))) for tree in (
        x**y + x, x**y * x**y, body * x, apply_expr(u**v + u, [x, y]))]
    c, = params(1)
    programs += [(compile_expr(tree), (Scalar(e),)) for tree in (const_expr(q) ** c, const_expr(q) ** c * const_expr(q))]
    for p, args in programs:
        want, = _loop_results(p, [args], monkeypatch)
        lane = funcalg.vm._lane_of(p, tuple(map(type, args)))
        try:
            got = lane(*args)  # called directly: no fall-back to the loop hides a raise
        except Exception as err:
            got = err
        if isinstance(want, FuncalgError):  # 2.5: the loop's error, without its instruction index
            assert type(got) is type(want) and str(want).endswith(f": {got}")
            continue
        assert type(got) is type(want) is Quaternion
        assert [x.hex() for x in _components(got)] == [x.hex() for x in _components(want)]
    if e == 2.5:
        assert isinstance(want, UnsupportedPowError)


@pytest.mark.parametrize("text, base, exponent", [
    ("(-1e308)^2.5", -1e308, 2.5),
    ("(-1e-308)^(-7.5)", -1e-308, -7.5),
])
def test_negative_base_to_a_non_integer_power_is_nan_where_it_overflows(text, base, exponent, capsys):
    # IEEE pow: invalid operation, though |base|^exponent overflows; every path agrees
    a, b = Scalar(base), Scalar(exponent)
    assert math.isnan(value_binop(ArithOp.POW, a, b).x)
    x, y = params(2)
    p = compile_expr(x**y)
    assert math.isnan(evaluate(x**y, (a, b)).x)
    for _ in range(funcalg.vm._LANE_AFTER + 1):  # the loop, then the lane
        assert math.isnan(run(p, (a, b)).x)
    assert math.isnan(p._lane(a, b).x)
    xs = value_binop(ArithOp.POW, Vector((base, 4.0)), b).xs
    assert math.isnan(xs[0]) and xs[1] == 4.0**exponent
    assert main(["-e", text]) == 0
    assert capsys.readouterr().out == "NaN\n"


def _wide_vectors_trees():
    """The `wide-vectors` benchmark programs: golden 2a and 2b, and Sin/Cumsum."""
    x, = params(1)
    f, g = x**2, 1 / (1 - x)
    return {"2a": f + g, "2b": f + 4 * g - f * g, "sin-cumsum": builtin("cumsum")(builtin("sin") + f)}


@pytest.mark.parametrize("name", ["2a", "2b", "sin-cumsum"])
def test_wide_vectors_programs_take_a_lane_without_kernel_calls(name, monkeypatch):
    calls = []
    _spy_on_kernels(monkeypatch, calls)  # before any lane is built
    tree = _wide_vectors_trees()[name]
    args = (Vector(tuple(map(float, range(-5, 95)))),)  # a 1:N-style range through x = 1
    want = evaluate(tree, args)
    p = compile_expr(tree)
    for runs in range(1, funcalg.vm._LANE_AFTER + 1):
        calls.clear()
        got = run(p, args)
        assert callable(p._lanes.get((Vector,))) == (runs >= funcalg.vm._LANE_AFTER)
        assert bool(calls) == (runs < funcalg.vm._LANE_AFTER)  # the loop goes through the spies
    assert calls == []  # the last run built the lane and returned from it
    # called directly, no fall-back to the loop hides a raise
    for value in (got, p._lanes[(Vector,)](*args)):
        assert type(value) is Vector
        assert [x.hex() for x in value.xs] == [x.hex() for x in want.xs]
    assert calls == []


def test_vector_lane_re_raises_the_loops_length_mismatch():
    x, y = params(2)
    p = compile_expr(x * y + 1 / (1 - x))
    short = (Vector((1.0, 2.0, 3.0)), Vector((4.0, 5.0)))
    for _ in range(funcalg.vm._LANE_AFTER + 2):
        with pytest.raises(LengthMismatchError, match=r"^instruction 2: vector lengths differ: 3 vs 2$"):
            run(p, short)
    lane = p._lanes[(Vector, Vector)]
    with pytest.raises(ValueError):
        lane(*short)
    equal = (Vector((1.0, 2.0, 3.0)), Vector((4.0, 5.0, 6.0)))
    assert lane(*equal) == run(p, equal) == evaluate(x * y + 1 / (1 - x), equal)


def test_no_lane_is_built_for_code_that_always_raises():
    x, = params(1)
    p = compile_expr(builtin("tan")(x) + x)  # tan has no complex branch: a straight-line raise
    for _ in range(funcalg.vm._LANE_AFTER + 2):
        with pytest.raises(UnsupportedKindError) as info:
            run(p, (Complex(0.5, 1.0),))
        assert str(info.value) == "instruction 3: tan is not defined for complex values"
    assert p._lanes[(Complex,)] is False
    assert callable(funcalg.vm._lane_of(p, (Scalar,)))  # other signatures keep their lanes


def test_vector_lane_zips_only_the_vectors_it_loads(monkeypatch):
    x, y = params(2)
    p = compile_expr(x * 2.0 + 1.0)
    args = (Vector(tuple(map(float, range(-5000, 5000)))), Vector((1.0, 2.0)))
    want, = _loop_results(p, [args], monkeypatch)
    got = funcalg.vm._lane_of(p, (Vector, Vector))(*args)  # y, of another length, is never read
    assert type(got) is type(want) is Vector
    assert [v.hex() for v in got.xs] == [v.hex() for v in want.xs]


def test_vector_lane_zips_only_the_vectors_an_operator_reads(monkeypatch):
    x, y = params(2)
    u, _ = params(2)
    p = compile_expr(apply_expr(u * 2.0, [x, y]))  # loads y, but the callee's frame drops it
    args = (Vector((1.0, 2.0, 3.0)), Vector((1.0, 2.0)))
    want, = _loop_results(p, [args], monkeypatch)
    for _ in range(funcalg.vm._LANE_AFTER):
        assert run(p, args) == want
    lane = p._lanes[Vector, Vector]
    got = lane(*args)  # called directly: no fall-back to the loop hides a raise
    assert type(got) is type(want) is Vector
    assert [v.hex() for v in got.xs] == [v.hex() for v in want.xs] == [v.hex() for v in (2.0, 4.0, 6.0)]


# ---------------------------------------------------------------------------
# Value numbering: a lane computes each repeated subexpression once.

def test_a_lane_computes_a_repeated_builtin_call_once(monkeypatch):
    calls = []
    kernel = funcalg.values._BUILTINS["sin"]
    # before the lane is built, so a lane that called the kernel would call the spy
    monkeypatch.setitem(funcalg.values._BUILTINS, "sin", lambda a: calls.append("sin") or kernel(a))
    x, = params(1)
    sin = builtin("sin")
    tree = sin(x) + sin(x) * sin(x)  # three structurally equal calls, not one shared node
    args = (Complex(0.5, -1.25),)
    p = compile_expr(tree)
    want = run(p, args)
    assert calls == ["sin"] * 3  # the loop calls the kernel for each copy
    # the lane writes complex sin inline from the real kernels, which it binds when it is built
    raw, repair = funcalg.values._SCALAR_KERNELS["sin"]
    monkeypatch.setitem(funcalg.values._SCALAR_KERNELS, "sin", (lambda v: calls.append(v) or raw(v), repair))
    lane = funcalg.vm._lane_of(p, (Complex,))
    for _ in range(2):
        calls.clear()
        got = lane(*args)
        assert calls == [0.5]
        assert [v.hex() for v in _components(got)] == [v.hex() for v in _components(want)]
    # the lane's source is kept for `inspect`: it emits the call once
    assert inspect.getsource(lane).count("k_sin(") == 1


def test_a_lane_runs_a_repeated_definition_call_once(monkeypatch):
    session = Session(SessionConfig(backend="vm"), out=io.StringIO())
    for line in ("f(x) = x*x + 1", "g(x) = f(x) + f(x)"):
        session.execute_line(line)
    g = session.env.lookup("g")
    compile_expr(g)
    body, f_body = g.call.a, session.env.lookup("f").call.a
    sig, args = (Quaternion,), (Quaternion(0.5, -1.0, 2.0, 0.25),)
    want, = _loop_results(body, [args], monkeypatch)
    calls = []
    f_lane = funcalg.vm._lane_of(f_body, sig)

    def spy(*a):
        calls.append(a)
        return f_lane(*a)

    spy.width = f_lane.width
    f_body._lanes[sig] = spy  # before g's lane is built
    got = funcalg.vm._lane_of(body, sig)(*args)
    assert len(calls) == 1
    assert [v.hex() for v in _components(got)] == [v.hex() for v in _components(want)]


def test_a_lanes_traceback_shows_its_source():
    x, y = params(2)
    p = compile_expr(x * y)
    lane = funcalg.vm._lane_of(p, (Vector, Vector))
    with pytest.raises(ValueError) as info:
        lane(Vector((1.0, 2.0)), Vector((1.0,)))  # zip(strict=True): the loop raises the real error
    frame = traceback.extract_tb(info.value.__traceback__)[-1]
    assert frame.filename.startswith("<funcalg lane ") and "zip(" in frame.line


def _bits(v):
    """Each component's exact bits: float.hex shows every NaN as 'nan'.  Only
    for results where no operation met two NaNs: which one's sign a product
    of two NaNs keeps depends on the order in which the C code multiplies,
    and CPython's specialized and generic float multiplications differ, so
    the same code can give either as it warms up."""
    return [struct.pack("<d", c) for c in _components(v)]


@pytest.mark.parametrize("args", [
    (Scalar(1.5),), (Complex(1.5, -0.5),), (Quaternion(1.5, -0.5, 0.25, 2.0),),
    (Vector((1.5, -2.0, 0.0, math.inf)),),
], ids=["scalar", "complex", "quaternion", "vector"])
def test_lanes_share_no_constants_that_differ_in_sign(args, monkeypatch):
    x, = params(1)
    nan = math.nan
    p0, m0 = Def("p0", Arity(1), x * 0.0), Def("m0", Arity(1), x * -0.0)  # equal Programs: 0.0 == -0.0
    trees = [
        1 / (x * 0.0) - 1 / (x * -0.0),
        1 / p0 - 1 / m0,
        # nan^0 is 1: the first product's NaN vanishes, the second's sign shows
        (x * nan) ** 0.0 * (x * -nan),
        (x * -nan) ** 0.0 * (x * nan),
        (x * Complex(nan, -nan)) ** 0.0 * (x * Complex(-nan, nan)),
    ]
    sig = tuple(map(type, args))
    for tree in trees:
        p = compile_expr(tree)
        want, = _loop_results(p, [args], monkeypatch)
        if funcalg.vm._lane_of(p, sig) is False:
            assert sig == (Vector,)  # a vector lane with a CALL_DEF, or a complex constant
            continue
        assert _check_lane(p, args, want) != "error"
        if type(want) in (Scalar, Vector):  # no operation here meets two NaNs (see _bits)
            assert _bits(funcalg.vm._lane_of(p, sig)(*args)) == _bits(want)
        # the lane binds each distinct constant boxed, as c<k> for the first of
        # equal bits, and reads its fields once, at its start, as it reads
        # arguments: no field is bound at build time or taken as a default
        first = {}
        for k, c in enumerate(p.constants):
            first.setdefault((type(c), *_bits(c)), k)
        reads = [f"    c{k}_{j} = c{k}.{f}" for k in first.values()
                 for j, f in enumerate(funcalg.values._FIELDS[type(p.constants[k])])]
        lines = inspect.getsource(funcalg.vm._lane_of(p, sig)).splitlines()
        assert lines[1:1 + len(reads)] == reads
        assert sum(bool(re.search(r"= c\d+\.", s)) for s in lines) == len(reads)
        assert not re.search(r"\bc\d+_\d+=", lines[0])


def _shared_tree(seed, kind):
    """A leaf-free treegen tree for arguments of `kind`, the same for the same seed."""
    rng = random.Random(seed)
    if kind is not Vector:
        return treegen.gen_tower_tree(rng, rng.randint(1, 3), rng.randint(0, 4))
    while True:  # gen_tree draws leaves, but not always
        tree = treegen.gen_tree(rng, 1, rng.randint(0, 3), 3)
        if not compile_expr(tree).leaves:
            return tree


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from([Scalar, Complex, Quaternion, Vector]))
def test_lanes_of_repeated_subtrees_match_the_loop(seed, kind):
    t = _shared_tree(seed, kind)
    n = t.arity.n or 1
    rng = random.Random(seed)
    if kind is Vector:
        args = (Vector(tuple(rng.choice(_EDGE) for _ in range(3))),)
    else:
        args = tuple(kind(*(rng.choice(_EDGE) if rng.random() < 0.3 else rng.uniform(-2, 2)
                            for _ in funcalg.values._FIELDS[kind])) for _ in range(n))
    d = Def("d", Arity(n), t)
    # one subtree three times, three structurally equal copies, and one definition called thrice
    copies = [_shared_tree(seed, kind) for _ in range(3)]
    for tree in (t + t * t, copies[0] + copies[1] * copies[2], d + d * d):
        p = compile_expr(tree)
        with pytest.MonkeyPatch.context() as mp:
            want, = _loop_results(p, [args], mp)
        if funcalg.vm._lane_of(p, tuple(map(type, args))):
            _check_lane(p, args, want)


# ---------------------------------------------------------------------------
# Hand-built programs: validate guards what run and the lane builder read.

def _hand_built_bodies():
    """Definition bodies from compile_expr, by arity."""
    bodies = {1: [], 2: [], 3: []}
    for n in bodies:
        x, *rest = params(n)
        y = rest[0] if rest else x
        bodies[n] += [compile_expr(t, Arity(n)) for t in (x * y - 1.5, -x, builtin("sin")(y), x ** 2.0 + y)]
    return bodies


_BODIES = _hand_built_bodies()


def _edge_constant(draw):
    grid = st.sampled_from(_EDGE)
    kind = draw(st.sampled_from([Scalar, _SubScalar, Complex, Quaternion, Vector, float]))
    if kind is Vector:
        return Vector(tuple(draw(st.lists(grid, min_size=2, max_size=3))))
    if kind is float:  # not a value: validate rejects it
        return draw(grid)
    return kind(*(draw(grid) for _ in funcalg.values._FIELDS[Scalar if kind is _SubScalar else kind]))


def _any_payload(draw, op):
    """A small payload for op, valid or not."""
    bad = st.sampled_from([True, False, -1, None, "0", [1], {}, 1.0])
    choices = {
        Op.BINARY: st.sampled_from([*ArithOp, "+"]),
        Op.CALL_PRIM: st.sampled_from([*PRIMITIVES, "neg", "nosuch", ("sin",), ["sin"]]),
        Op.CALL_DEF: st.sampled_from([*_BODIES[1], *_BODIES[2], "not a program"]),
        Op.END_FRAME: st.sampled_from([None, [1]]),
    }
    return draw(choices.get(op, st.integers(-1, 3)) | bad)


@st.composite
def _hand_built_programs(draw):
    """A program of arity 1-3 over the eight opcodes: mostly valid moves
    that keep the stack and frames in step, some instructions drawn with
    any payload, and most programs closed to leave one value."""
    n = draw(st.integers(1, 3))
    constants = tuple(_edge_constant(draw) for _ in range(draw(st.integers(0, 3))))
    leaves = tuple(draw(st.lists(st.sampled_from([*_FIRSTS.values(), "nope"]), max_size=2))
                   if draw(st.booleans()) and draw(st.booleans()) else ())
    code = []
    depth, frames = 0, []  # stack depth; the enclosing frames' (arity, entry depth)
    frame = n
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 7)) == 0:
            op = draw(st.sampled_from(Op))
            code.append(Instr(op, _any_payload(draw, op)))
            continue
        moves = [Op.LOAD_ARG, Op.CALL_DEF]
        moves += [Op.LOAD_CONST] * bool(constants)
        moves += [Op.CALL_LEAF] * any(getattr(v, "arity", None) == Arity(frame) for v in leaves)
        moves += [Op.CALL_PRIM, Op.BEGIN_FRAME] * (depth >= 1) + [Op.BINARY] * (depth >= 2)
        moves += [Op.END_FRAME] * bool(frames and depth == frames[-1][1] + 1)
        op = draw(st.sampled_from(moves))
        a = None
        if op is Op.CALL_PRIM:
            a = draw(st.sampled_from([*PRIMITIVES, "neg"]))
        elif op is Op.BINARY:
            a = draw(st.sampled_from(ArithOp))
            depth -= 1
        elif op is Op.BEGIN_FRAME:
            a = draw(st.integers(1, min(depth, 3)))
            depth -= a
            frames.append((frame, depth))
            frame = a
        elif op is Op.END_FRAME:
            frame = frames.pop()[0]
        else:  # a load or a call: one more value
            depth += 1
            if op is Op.LOAD_ARG:
                a = draw(st.integers(0, frame - 1))
            elif op is Op.LOAD_CONST:
                a = draw(st.integers(0, len(constants) - 1))
            elif op is Op.CALL_DEF:
                a = draw(st.sampled_from(_BODIES[frame]))
            else:
                a = draw(st.sampled_from([k for k, v in enumerate(leaves) if getattr(v, "arity", None) == Arity(frame)]))
        code.append(Instr(op, a))
    while draw(st.integers(0, 9)) and (frames or depth != 1):  # close the frames, then reduce to one value
        if depth == 0 or frames and depth == frames[-1][1]:
            code.append(_X if frame and frame >= 1 else Instr(Op.LOAD_CONST, 0))
            depth += 1
        elif frames and depth == frames[-1][1] + 1:
            code.append(Instr(Op.END_FRAME))
            frame = frames.pop()[0]
        else:
            code.append(Instr(Op.BINARY, draw(st.sampled_from(ArithOp))))
            depth -= 1
    return Program(tuple(code), constants, leaves, Arity(n))


def _hand_built_outcome(run_once):
    """What one run gives: its value's kind and `float.hex` per component
    (any NaN as "nan": its sign may change with the run count), or the
    FuncalgError's type and message.  Any other exception propagates."""
    try:
        v = run_once()
    except FuncalgError as err:
        return type(err).__name__, str(err)
    kind = Vector if isinstance(v, Vector) else funcalg.values._kind(v)
    assert kind is not None, v  # a value of the tower, or a Vector
    xs = v.xs if kind is Vector else [getattr(v, f) for f in funcalg.values._FIELDS[kind]]
    return kind.__name__, ["nan" if math.isnan(x) else x.hex() for x in xs]


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(p=_hand_built_programs(), data=st.data())
def test_a_hand_built_program_is_rejected_or_runs_the_same_every_time(p, data):
    n = p.arity.n
    kind = data.draw(st.sampled_from([Scalar, Complex, Quaternion, Vector]))
    if kind is Vector:
        args = tuple(Vector(tuple(data.draw(st.sampled_from(_EDGE)) for _ in range(3))) for _ in range(n))
    else:
        args = tuple(kind(*(data.draw(st.sampled_from(_EDGE)) for _ in funcalg.values._FIELDS[kind])) for _ in range(n))
    first = _hand_built_outcome(lambda: run(p, args))
    if first[0] == "InvalidProgramError":
        return
    for _ in range(funcalg.vm._LANE_AFTER + 8):  # across the run that builds the lane
        assert _hand_built_outcome(lambda: run(p, args)) == first
