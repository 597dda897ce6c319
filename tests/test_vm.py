"""Stack machine: compilation scheme, static checks, differential equivalence."""

import json
import math
import random

import pytest

import funcalg.vm
from funcalg import (
    ArithOp,
    ArityMismatchError,
    BackendMismatchError,
    Complex,
    Instr,
    InvalidProgramError,
    KindMismatchError,
    Op,
    Program,
    Scalar,
    UnsupportedKindError,
    Vector,
    bench,
    builtin,
    compile_expr,
    const_expr,
    evaluate,
    params,
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
        # the callee's CALL_PRIM, between BEGIN_FRAME (4) and END_FRAME (7)
        (_cumsum_in_frame, 6, UnsupportedKindError),
        # the final BINARY, after the frame has been popped
        (_kind_mismatch_after_frame, 7, KindMismatchError),
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
