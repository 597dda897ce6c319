"""Tests of the benchmark itself: the oracle catches wrong results, failures
are counted, counts repeat, and the runner refuses to run without sources.

    python3 -m pytest benchmarks
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import spans
import workloads
from engine import funcalg as fa
from oracle import Quat

HERE = Path(__file__).resolve().parent


def _checked(wl, seed=1):
    wl.generate(seed)
    wl.build()
    check = workloads.Check()
    for k in range(len(wl.slices)):
        wl.check_slice(k, wl.run_slice("tree", k), wl.run_slice("vm", k), check)
    return check


def test_oracle_reproduces_the_paper_examples():
    golden = workloads.GOLDEN_2C
    assert oracle.expect(golden, (1.2, 1.7, 4.3))[0] == pytest.approx(2.411975, rel=1e-6)
    assert oracle.expect(workloads.GOLDEN_2D, (1.2, 1.7, 4.3))[0] == pytest.approx(64.04918, rel=1e-6)
    assert oracle.expect(workloads.GOLDEN_3A, (0.32,))[0] == pytest.approx(0.9769132, rel=1e-6)
    assert oracle.expect(workloads.GOLDEN_3B, (0.4,))[0] == pytest.approx(2.545235, rel=1e-6)
    q = oracle.expect(workloads.GOLDEN_21, (Quat(1.0, 0.0, 1.0, 0.0), Quat(0.0, 0.0, 0.0, 1.0)))
    assert q[0] == Quat(4.0, 2.0, 2.0, -1.0)
    vec, exact = oracle.expect(workloads.GOLDEN_2B, ([float(i) for i in range(1, 11)],))
    assert exact and math.isnan(vec[0]) and vec[1] == 4.0


def test_golden_trees_compile_as_built_by_hand():
    x, y, z = fa.params(3)
    f, g = x + x * y - x / z, x**2 - z
    by_hand = (f + g) * (f + 4 - 2 * f * g)
    built = workloads.to_tree(workloads.GOLDEN_2C, 3)
    assert fa.compile_expr(built).instructions == fa.compile_expr(by_hand).instructions


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_op_matches_the_oracle(name):
    check = _checked(workloads.WORKLOADS[name]())
    assert check.wrong == 0, check.examples
    assert check.failed == 0 and check.attempted > 0


@pytest.mark.parametrize("exact", [True, False])
def test_a_planted_wrong_oracle_value_is_caught(exact):
    wl = workloads.ScalarCalls()
    wl.generate(1)
    i = next(i for i, (_, ex) in enumerate(wl.expected) if ex == exact)
    want, _ = wl.expected[i]
    # one ulp is caught where the comparison is exact, 1e-6 where it is not
    wl.expected[i] = (math.nextafter(want, math.inf) if exact else want * (1 + 1e-6), exact)
    wl.build()
    check = workloads.Check()
    for k in range(len(wl.slices)):
        wl.check_slice(k, wl.run_slice("tree", k), wl.run_slice("vm", k), check)
    assert check.wrong == 2  # the tree and the vm result of that op


def test_a_planted_wrong_script_value_is_caught():
    wl = workloads.ScriptSession()
    wl.generate(3)
    i = next(i for i, w in enumerate(wl.expected) if w is not None and isinstance(w[0], complex))
    want, exact = wl.expected[i]
    wl.expected[i] = (want + 1e-3, exact)
    wl.build()
    check = workloads.Check()
    for k in range(len(wl.slices)):
        wl.check_slice(k, wl.run_slice("tree", k), wl.run_slice("vm", k), check)
    assert check.wrong == 2


def test_an_op_that_raises_counts_as_failed_not_wrong(monkeypatch):
    class Raising(workloads.ApiWorkload):
        name = "raising"
        exprs = (("cumsum-of-scalar", ("prim", "cumsum"), 1), ("square", workloads.F1, 1))

        def draw(self, rng):
            return [(0, (1.5,)), (1, (1.5,))]

    wl = Raising()
    # the oracle cannot take a cumsum of a scalar either; its value is never compared
    monkeypatch.setattr(oracle, "expect", lambda spec, args: (2.25, True))
    wl.generate(0)
    wl.build()
    check = workloads.Check()
    wl.check_slice(0, wl.run_slice("tree", 0), wl.run_slice("vm", 0), check)
    assert (check.attempted, check.failed, check.wrong) == (4, 2, 0)


@pytest.mark.parametrize("value", [
    fa.Scalar(-1.0000000000000002e-05), fa.Scalar(math.nan), fa.Scalar(-math.inf),
    fa.Vector((1.5, math.inf, -0.25)), fa.Complex(-2.5, -1e-20),
    fa.Quaternion(0.1, -0.2, math.nan, 3e100),
])
def test_printed_values_parse_back_exactly(value):
    host = workloads.parse_printed(fa.format_value(value, 17))
    assert oracle.matches(host, workloads.to_host(value), exact=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name):
    cls = workloads.WORKLOADS[name]
    first, second = spans.counts(cls(), 5), spans.counts(cls(), 5)
    assert first == second
    assert first["vm.instrs_per_op"] > 0


def test_inputs_depend_only_on_the_seed():
    a, b, c = workloads.ScriptSession(), workloads.ScriptSession(), workloads.ScriptSession()
    a.generate(7), b.generate(7), c.generate(8)
    assert a.lines == b.lines != c.lines


def test_runner_fails_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tower-calls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_runner_prints_the_result_contract():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tower-calls", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_runner_exits_nonzero_on_a_wrong_result(monkeypatch, capsys):
    import run

    monkeypatch.setattr(oracle, "matches", lambda got, want, exact: False)
    status = run.main(["--workload", "tower-calls", "--seed", "1", "--seconds", "0.2"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1 and last["correct"] is False
