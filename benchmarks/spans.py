"""Traced run: per-layer counts and costs, measured from outside the engine.

Spans are recorded by wrappers this file installs around the public entry
points for the length of the traced passes: `Session.execute_line`,
`tokenize`, `parse_statement`, `compile_expr`, `Program.validate`, `run`,
`evaluate` and `evaluate_constant`.  Each span is (name, start ns, end ns,
parent span index, op id); spans stay in memory and are written to
`benchmarks/out/` when the run ends.  Self times are differences taken out
here; no span sits inside the engine.

The value layer is measured by replay: every node's operand subtrees are
evaluated with the public `evaluate`, which yields the exact operand stream
the tree walker hands to `value_binop`, `value_neg` and `apply_builtin` for
the workload's own ops; that stream is then timed call by call in a loop,
minus the same loop over a no-op.

Counts (tokens, nodes, instructions by opcode, frames, binop calls) come
from public data only and are computed twice from fresh builds; a
difference between the two is reported as a wrong result.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter
from pathlib import Path

import workloads
from engine import funcalg as fa
from timing import Clock, ESTIMATOR, NOMINAL_REF_RATE

OUT = Path(__file__).resolve().parent / "out"
MAX_SPANS = 200_000
REPLAY_MIN_REPEATS, REPLAY_MAX_REPEATS = 3, 25
REPLAY_SECONDS = 0.1  # replay a group until this much time is sampled
REPLAY_FLUSH_ELEMS = 200_000  # replay and drop the stream beyond this size
CODEGEN_INSTRS = 2000

PER_LAYER = {
    "parser.tokens_per_op": "tokens/op",
    "parser.tokenize_ns_per_token": "ns/token",
    "parser.parse_ns_per_token": "ns/token",
    "cli.execute_line_us": "us",
    "cli.frontend_share": "ratio",
    "algebra.nodes_per_op": "nodes/op",
    "algebra.evaluate_us_per_op": "us/op",
    "algebra.walk_self_us_per_op": "us/op",
    "vm.instrs_per_op": "instrs/op",
    "vm.call_leaf_per_op": "calls/op",
    "vm.frames_per_op": "frames/op",
    "vm.run_us_per_op": "us/op",
    "vm.dispatch_self_us_per_op": "us/op",
    "vm.compile_ns_per_instr": "ns/instr",
    "vm.validate_ns_per_instr": "ns/instr",
    "values.binop_calls_per_op": "calls/op",
    "values.binop_ns.scalar": "ns/call",
    "values.binop_ns.complex": "ns/call",
    "values.binop_ns.quaternion": "ns/call",
    "values.binop_ns_per_elem.vector": "ns/elem",
    "values.builtin_ns.scalar": "ns/call",
    "values.builtin_ns_per_elem.vector": "ns/elem",
    "values.kernel_us_per_op": "us/op",
    "trace.overhead_ratio": "ratio",
}


def _kind(v) -> str:
    return {fa.Scalar: "scalar", fa.Vector: "vector", fa.Complex: "complex",
            fa.Quaternion: "quaternion"}[type(v)]


def _promoted(a, b) -> str:
    kinds = {_kind(a), _kind(b)}
    for k in ("vector", "quaternion", "complex"):
        if k in kinds:
            return k
    return "scalar"


# ---------------------------------------------------------------------------
# What one op does, from public data.

class OpWalk:
    """Visits the nodes the tree walker evaluates for one op.

    `bodies` maps a definition's leaf to its parsed body tree, so the walk
    follows user definitions of a script into their bodies.  With a
    `stream`, each kernel call is appended as (key, amount, in_body, fn,
    args), its operands obtained with the public `evaluate`.
    """

    def __init__(self, bodies: dict, stream: list | None = None):
        self.bodies = bodies
        self.stream = stream
        self.nodes = 0
        self.binops = 0

    def visit(self, node, args: tuple, in_body: bool = False) -> None:
        self.nodes += 1
        stream, ev = self.stream, fa.evaluate
        if isinstance(node, fa.BinOp):
            self.binops += 1
            if stream is not None:
                a, b = ev(node.e1, args), ev(node.e2, args)
                kind = _promoted(a, b)
                amount = len((a if isinstance(a, fa.Vector) else b).xs) if kind == "vector" else 1
                stream.append((("binop", kind), amount, in_body, fa.value_binop, (node.op, a, b)))
            self.visit(node.e1, args, in_body)
            self.visit(node.e2, args, in_body)
        elif isinstance(node, fa.Neg):
            if stream is not None:
                a = ev(node.e, args)
                amount = len(a.xs) if isinstance(a, fa.Vector) else 1
                stream.append((("neg", _kind(a)), amount, in_body, fa.value_neg, (a,)))
            self.visit(node.e, args, in_body)
        elif isinstance(node, fa.Prim):
            if stream is not None:
                a = args[0]
                amount = len(a.xs) if isinstance(a, fa.Vector) else 1
                stream.append((("builtin", _kind(a)), amount, in_body, fa.apply_builtin,
                               (node.name, a)))
        elif isinstance(node, fa.Apply):
            vals = tuple(ev(a, args) for a in node.args)
            for a in node.args:
                self.visit(a, args, in_body)
            self.visit(node.callee, vals, in_body)
        elif isinstance(node, fa.Leaf) and node in self.bodies:
            self.visit(self.bodies[node], args, True)


def _program_counts(program) -> Counter:
    return Counter(ins.op.name for ins in program.instructions)


def op_plan(wl) -> tuple[list, dict]:
    """[(tree or None, args, program or None, tokens)] for one pass, and
    the definition bodies (see OpWalk).

    API workloads call built trees directly.  For script-session the trees
    are those the session evaluates (None for definitions and constants)
    and the programs those its vm backend compiles."""
    if isinstance(wl, workloads.ApiWorkload):
        return [(wl.trees[e], args, wl.programs[e], 0) for e, args in wl.ops], {}
    lines, bodies = wl.parsed()
    plan = []
    for tokens, stmt in lines:
        tree = stmt.expr if isinstance(stmt, fa.BareExpression) else None
        program = fa.compile_expr(tree) if tree is not None else None
        plan.append((tree, (fa.Scalar(0.0),), program, len(tokens)))
    return plan, bodies


def counts(wl, seed: int) -> dict:
    """Deterministic per-op counts of a freshly generated and built workload."""
    wl.generate(seed)
    wl.build()
    plan, bodies = op_plan(wl)
    n = len(plan)
    opcodes, nodes, binops, tokens = Counter(), 0, 0, 0
    for tree, args, program, ntok in plan:
        tokens += ntok
        if tree is not None:
            walk = OpWalk(bodies)
            walk.visit(tree, args)
            nodes += walk.nodes
            binops += walk.binops
            opcodes.update(_program_counts(program))
    out = {
        "parser.tokens_per_op": tokens / n,
        "algebra.nodes_per_op": nodes / n,
        "vm.instrs_per_op": sum(opcodes.values()) / n,
        "vm.call_leaf_per_op": opcodes["CALL_LEAF"] / n,
        "vm.frames_per_op": opcodes["BEGIN_FRAME"] / n,
        "values.binop_calls_per_op": binops / n,
        "opcodes_per_op": {k: v / n for k, v in sorted(opcodes.items())},
    }
    if isinstance(wl, workloads.ApiWorkload):
        out["instructions_per_expression"] = {
            label: len(p.instructions) for (label, _, _), p in zip(wl.exprs, wl.programs)}
    return out


# ---------------------------------------------------------------------------
# Value-layer replay.

def _noop(*args):
    return None


def _loop(entries, fn=None):
    for _, _, _, f, args in entries:
        (fn or f)(*args)


class Replay:
    """Accumulates replayed kernel time per key (kind of call, value kind)."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.seconds = Counter()
        self.amount = Counter()  # calls, or elements for vectors
        self.glue_amount = Counter()  # the part outside user-definition bodies

    def flush(self, stream: list) -> None:
        groups: dict = {}
        for entry in stream:
            groups.setdefault(entry[0], []).append(entry)
        for key, entries in groups.items():
            calls, noops = [], []
            while len(calls) < REPLAY_MIN_REPEATS or (
                    sum(s.seconds for s in calls) < REPLAY_SECONDS and len(calls) < REPLAY_MAX_REPEATS):
                calls.append(self.clock.measure(lambda: _loop(entries)))
                noops.append(self.clock.measure(lambda: _loop(entries, _noop)))
            self.seconds[key] += max(self.clock.estimate(calls) - self.clock.estimate(noops), 0.0)
            self.amount[key] += sum(e[1] for e in entries)
            self.glue_amount[key] += sum(e[1] for e in entries if not e[2])
        stream.clear()

    def unit_ns(self, key) -> float:
        """Replayed ns per call (per element for vectors); 0 if none ran."""
        return self.seconds[key] / self.amount[key] * 1e9 if self.amount[key] else 0.0

    def glue_seconds(self) -> float:
        return sum(self.unit_ns(k) * a / 1e9 for k, a in self.glue_amount.items())


def replay_pass(plan, bodies, clock) -> Replay:
    replay = Replay(clock)
    stream: list = []
    for tree, args, _, _ in plan:
        if tree is None:
            continue
        OpWalk(bodies, stream).visit(tree, args)
        if sum(e[1] for e in stream) >= REPLAY_FLUSH_ELEMS:
            replay.flush(stream)
    replay.flush(stream)
    return replay


# ---------------------------------------------------------------------------
# Spans.

class Tracer:
    """In-memory spans; a span opened with no span open starts a new op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack:
                self.op += 1
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


PATCHES = (
    (fa, "evaluate", "algebra.evaluate"),
    (fa, "run", "vm.run"),
    (fa.cli.Session, "execute_line", "cli.execute_line"),
    (fa.cli, "tokenize", "parser.tokenize"),
    (fa.cli, "parse_statement", "parser.parse_statement"),
    (fa.cli, "compile_expr", "vm.compile_expr"),
    (fa.cli, "run", "vm.run"),
    (fa.cli, "evaluate_constant", "algebra.evaluate"),
    (fa.parser, "evaluate", "algebra.evaluate"),
    (fa.vm.Program, "validate", "vm.validate"),
)


class Instrumented:
    """Context manager installing the tracer's wrappers, restoring on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list = []

    def __enter__(self):
        for owner, attr, name in PATCHES:
            original = getattr(owner, attr)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _span_totals(spans: list, first: int, end: int, scale: float) -> Counter:
    """Summed durations of spans[first:end] per name, rescaled, plus two nestings by
    parent: "walk" is tree-walker time that is the op's own evaluation (not
    a definition body inside another span), "vm.run>walk" is definition
    bodies the vm hands to the tree walker."""
    totals = Counter()
    for name, start, stop, parent, _ in spans[first:end]:
        ns = (stop - start) * scale
        totals[name] += ns
        if name == "algebra.evaluate":
            pname = spans[parent][0] if parent >= 0 else None
            if pname in (None, "cli.execute_line"):
                totals["walk"] += ns
            elif pname == "vm.run":
                totals["vm.run>walk"] += ns
    return totals


def per_layer(wl, seed: int, seconds: float):
    first = counts(workloads.WORKLOADS[wl.name](), seed)
    second = counts(wl, seed)  # wl is now generated and built
    check = workloads.Check()
    if first != second:
        check.wrong_result("per-op counts differ between two computations")
    plan, bodies = op_plan(wl)
    n_ops = len(plan)
    clock = Clock()

    # compile and validate, per instruction, outside the traced passes
    targets = wl.compile_targets()
    programs = [fa.compile_expr(e) for e in targets]
    instrs = sum(len(p.instructions) for p in programs)
    reps = -(-CODEGEN_INSTRS // instrs)
    comp, val = [], []
    for _ in range(15):
        comp.append(clock.measure(lambda: [fa.compile_expr(e) for e in targets * reps]))
        val.append(clock.measure(lambda: [p.validate() for p in programs * reps]))
    validate_ns = clock.estimate(val) / (instrs * reps) * 1e9
    compile_ns = clock.estimate(comp) / (instrs * reps) * 1e9 - validate_ns

    replay = replay_pass(plan, bodies, clock)
    kernel_us = sum(replay.seconds.values()) / n_ops * 1e6
    glue_kernel_us = replay.glue_seconds() / n_ops * 1e6

    # alternate untraced and traced passes over both backends
    tracer = Tracer()
    samples = {(mode, b, k): [] for mode in ("plain", "traced") for b in ("tree", "vm")
               for k in range(len(wl.slices))}
    batches = []  # traced batches: (first span, end span, sample, backend, slice)
    end = time.monotonic() + seconds
    passes = 0
    while passes < 3 or (time.monotonic() < end and len(tracer.spans) < MAX_SPANS):
        for mode in ("plain", "traced") if passes % 2 == 0 else ("traced", "plain"):
            for k in range(len(wl.slices)):
                out = {}
                for b in ("tree", "vm"):
                    first_span = len(tracer.spans)
                    with Instrumented(tracer) if mode == "traced" else contextlib.nullcontext():
                        sample = clock.measure(lambda b=b: out.__setitem__(b, wl.run_slice(b, k)))
                    samples[mode, b, k].append(sample)
                    if mode == "traced":
                        batches.append((first_span, len(tracer.spans), sample, b, k))
                wl.check_slice(k, out["tree"], out["vm"], check)
        passes += 1

    # span times are raw: rescale each batch's spans by its reference rate
    # and keep the batches the clock's estimator would keep
    floor = statistics.median(clock.rates)
    kept = [t for t in batches if t[2].rate >= floor] or batches
    totals = {"tree": Counter(), "vm": Counter()}
    ops = Counter()
    tokens = 0
    for i0, i1, sample, b, k in kept:
        totals[b] += _span_totals(tracer.spans, i0, i1, sample.rate / NOMINAL_REF_RATE)
        ops[b] += len(wl.slices[k])
        tokens += sum(plan[i][3] for i in wl.slices[k])
    both = totals["tree"] + totals["vm"]

    def us_per_op(ns: float, b: str) -> float:
        return ns / ops[b] / 1e3 if ops[b] else 0.0

    evaluate_us = us_per_op(totals["tree"]["walk"], "tree")
    run_us = us_per_op(totals["vm"]["vm.run"], "vm")
    frontend = both["parser.tokenize"] + both["parser.parse_statement"]
    overhead = [clock.estimate(samples["traced", b, k]) / clock.estimate(samples["plain", b, k])
                for b in ("tree", "vm") for k in range(len(wl.slices))]
    values = {
        **{k: v for k, v in first.items() if k in PER_LAYER},
        "parser.tokenize_ns_per_token": both["parser.tokenize"] / tokens if tokens else 0.0,
        "parser.parse_ns_per_token": both["parser.parse_statement"] / tokens if tokens else 0.0,
        "cli.execute_line_us": both["cli.execute_line"] / (ops["tree"] + ops["vm"]) / 1e3,
        "cli.frontend_share": frontend / both["cli.execute_line"] if both["cli.execute_line"] else 0.0,
        "algebra.evaluate_us_per_op": evaluate_us,
        "algebra.walk_self_us_per_op": evaluate_us - kernel_us,
        "vm.run_us_per_op": run_us,
        "vm.dispatch_self_us_per_op":
            run_us - us_per_op(totals["vm"]["vm.run>walk"], "vm") - glue_kernel_us,
        "vm.compile_ns_per_instr": compile_ns,
        "vm.validate_ns_per_instr": validate_ns,
        "values.binop_ns.scalar": replay.unit_ns(("binop", "scalar")),
        "values.binop_ns.complex": replay.unit_ns(("binop", "complex")),
        "values.binop_ns.quaternion": replay.unit_ns(("binop", "quaternion")),
        "values.binop_ns_per_elem.vector": replay.unit_ns(("binop", "vector")),
        "values.builtin_ns.scalar": replay.unit_ns(("builtin", "scalar")),
        "values.builtin_ns_per_elem.vector": replay.unit_ns(("builtin", "vector")),
        "values.kernel_us_per_op": kernel_us,
        "trace.overhead_ratio": statistics.median(overhead),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{wl.name}-seed{seed}.json"
    span_file.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                     "spans": tracer.spans}))
    extra = {
        "estimator": ESTIMATOR,
        "reference_rates": clock.rate_summary(),
        "samples": {"traced_batches": len(batches), "traced_batches_kept": len(kept),
                    "spans": len(tracer.spans), "replay_repeats": [REPLAY_MIN_REPEATS, REPLAY_MAX_REPEATS],
                    "codegen_batches": len(comp)},
        "ops_per_pass": n_ops,
        "counts": {k: v for k, v in first.items() if k not in PER_LAYER},
        "replay_amounts": {f"{a}.{b}": n for (a, b), n in sorted(replay.amount.items())},
        "span_file": str(span_file.relative_to(OUT.parent.parent)),
    }
    return check, metrics, extra
