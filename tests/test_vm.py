"""Stack machine: compilation scheme, static checks, differential equivalence."""

import collections
import io
import json
import math
import random

import pytest

import funcalg.algebra
import funcalg.vm
from funcalg import (
    Arg,
    ArithOp,
    Arity,
    ArityMismatchError,
    BackendMismatchError,
    Complex,
    Def,
    FuncExpr,
    Instr,
    InvalidProgramError,
    KindMismatchError,
    Op,
    Program,
    Scalar,
    Session,
    SessionConfig,
    UnsupportedKindError,
    Vector,
    bench,
    builtin,
    compile_expr,
    const_expr,
    evaluate,
    lift_function,
    params,
    parse_expression,
    run,
    same_value,
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


def test_validate_rejects_corrupted_programs():
    x, = params(1)
    tree = (x * x + 2)(builtin("sin"))
    good = compile_expr(tree)
    good.validate()

    def corrupt(mutator):
        instrs = list(good.instructions)
        mutator(instrs)
        bad = Program(tuple(instrs), good.constants, good.leaves, good.arity)
        with pytest.raises(InvalidProgramError):
            bad.validate()

    corrupt(lambda ins: ins.pop())  # unbalanced stack or frame
    corrupt(lambda ins: ins.insert(0, Instr(Op.BINARY, ArithOp.ADD)))  # underflow
    corrupt(lambda ins: ins.__setitem__(0, Instr(Op.LOAD_CONST, 99)))  # pool range
    corrupt(lambda ins: ins.__setitem__(0, Instr(Op.LOAD_ARG, 7)))  # arg range
    corrupt(lambda ins: ins.append(Instr(Op.END_FRAME)))  # frame underflow
    corrupt(lambda ins: ins.append(Instr(Op.LOAD_CONST, 0)))  # two results


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
    walk = funcalg.algebra._eval
    monkeypatch.setattr(funcalg.algebra, "_eval", lambda *a: calls.append(a) or walk(*a))
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
        body = funcalg.vm._body_programs[d]
        loads = [ins for ins in body.instructions if ins.op is Op.LOAD_ARG]
        assert len(loads) == _arg_refs(d.body) == 2


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


def test_constant_definition_keeps_declared_arity():
    session = Session(SessionConfig(backend="vm"), out=io.StringIO())
    session.execute_line("f(x) = 3")
    f = session.env.lookup("f")
    assert f.arity == Arity(1)
    assert run(compile_expr(f), (Scalar(9.0),)) == Scalar(3.0)
    with pytest.raises(ArityMismatchError):
        run(compile_expr(f), (Scalar(1.0), Scalar(2.0)))
