"""Registry of lifted builtins."""

import math

import pytest

import funcalg.values
import funcalg.vm
from funcalg import (
    PRIMITIVES,
    Prim,
    Scalar,
    UnknownPrimitiveError,
    Vector,
    apply,
    apply_builtin,
    builtin,
    compile_expr,
    evaluate,
    run,
    same_value,
)


def test_builtin_returns_shared_nodes():
    assert isinstance(builtin("sin"), Prim)
    assert builtin("sin") is builtin("sin")
    assert builtin("sin") == Prim("sin")
    assert builtin("sin").arity.n == 1


def test_case_insensitive_lookup():
    assert builtin("Sin") is builtin("sin")
    assert builtin("CUMSUM") is builtin("cumsum")


def test_unknown_primitive():
    with pytest.raises(UnknownPrimitiveError):
        builtin("sine")
    with pytest.raises(UnknownPrimitiveError):
        Prim("sine")


def test_registry_is_total_over_the_enumeration():
    assert len(PRIMITIVES) == 17
    for name in PRIMITIVES:
        builtin(name)


def test_prim_evaluation_matches_apply_builtin():
    scalar_samples = [Scalar(x) for x in (-2.0, -0.5, 0.0, 0.32, 0.9, 2.0)]
    vector_samples = [Vector((0.25, 0.5, 2.0)), Vector((1.0, 3.0))]
    for name in PRIMITIVES:
        samples = vector_samples if name in ("cumsum", "cumprod") else scalar_samples
        for v in samples:
            got = evaluate(builtin(name), (v,))
            assert same_value(got, apply_builtin(name, v))


def test_sin_at_paper_sample():
    assert evaluate(builtin("sin"), (Scalar(0.32),)) == Scalar(math.sin(0.32))


def test_prims_compose():
    composed = apply(builtin("sin"), [builtin("cos")])
    for x in (-1.0, 0.0, 0.32, 2.5):
        assert composed(x) == Scalar(math.sin(math.cos(x)))


def test_sum_of_prims_at_chained_subterm():
    # (Sin + Log) evaluated at D(0.4) = sin(0.4) + tan(0.4)
    u = math.sin(0.4) + math.tan(0.4)  # 0.8122115610468124
    tree = builtin("sin") + builtin("log")
    got = evaluate(tree, (Scalar(u),))
    assert got == Scalar(math.sin(u) + math.log(u))  # 0.5178158401640569


_BUILTIN_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, -1.0, 1000.0, 1e308]


@pytest.mark.parametrize("name", sorted(funcalg.values._SCALAR_KERNELS))
def test_each_scalar_builtin_is_its_kernel_or_repair_at_edge_values(name, monkeypatch):
    # the tree walker, apply_builtin and the VM loop (never a lane) all give the
    # C function's result, or the repair's where it raises, float.hex for float.hex
    raw, repair = funcalg.values._SCALAR_KERNELS[name]
    monkeypatch.setattr(funcalg.vm, "_LANE_AFTER", math.inf)
    p = compile_expr(builtin(name))
    for x in _BUILTIN_EDGES:
        try:
            want = raw(x)
        except (ArithmeticError, ValueError):
            want = repair(x)
        args = (Scalar(x),)
        for got in (evaluate(builtin(name), args), apply_builtin(name, Scalar(x)), run(p, args)):
            assert type(got) is Scalar and got.x.hex() == want.hex(), (name, x, got)
    assert p._lanes == {} and p._lane is None
