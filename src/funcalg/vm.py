"""Stack-machine backend: compile expression trees to flat programs.

Instruction set (operand stack before -> after; F is the current frame):

    LOAD_ARG i        []            -> [F.args[i]]
    LOAD_CONST k      []            -> [constants[k]]
    CALL_PRIM name    [a]           -> [builtin(a)]
    CALL_LEAF t       []            -> [leaf_t(*F.args)]
    CALL_DEF p        []            -> [run(p, F.args)]   p: a definition body
    BINARY op         [a b]         -> [a op b]
    NEGATE            [a]           -> [-a]
    BEGIN_FRAME m     [a1 .. am]    -> []   pushes frame with args (a1 .. am)
    END_FRAME         []            -> []   pops the current frame

Compilation is one post-order loop over a work stack, with no constant
folding or CSE, so a program does the tree walker's IEEE operations in its
order: a node pushes its instruction, then its children, last child first.
A composition node compiles to its arguments, BEGIN_FRAME, the callee and
END_FRAME.  Instructions with a small index or arity, an operator or a
builtin name as payload are built once, at import.  Compiling a tree and
running its frames cost no Python frame per level, so composition depth is
unbounded there; compiling a definition's body, nested CALL_DEFs and the
tree walker recurse.  A `Def` keeps its body's CALL_DEF instruction as
`call`, built by the first compile that meets it; each reference emits it.
`compile_expr`'s programs are valid by construction and are not validated;
`run` validates any other program before its first run.  Runs change only a
program's lane state (below), and are re-entrant: concurrent runs are safe.

`run` unpacks each instruction as `(op, a)` and tests `op` by identity
against module-level opcode aliases, in descending order of the summed
per-op opcode counts of the traced `scalar-calls` and `tower-calls`
benchmarks, counted before lanes (below) took over most of their runs.
One `try` wraps the loop; a counter names the failing index.

Lanes.  A program without CALL_LEAF can also run as one generated Python
function per argument-kind signature (its arguments' exact types), if the
signature and the constants' types are all exactly `Scalar`, `Complex` or
`Quaternion` (a tower signature) or all exactly `Scalar` or `Vector`, with
at least one `Vector` (a vector signature).  Every value's kind is then
known, and a value is 1, 2 or 4 float locals; frames and argument loads
are only names.  Lanes are written in the vocabulary of `values` that also
generates the tree walker's kernels: `_read_code` reads a boxed value's
fields into locals, `_build_code` builds a value from them inline, and
`_tower_code` writes `+ - * /` and complex `^` (one `_cpow_parts` call)
from `_TOWER_OPS`, padding the narrower operand with 0.0 (promotion).
Negation is inline too, and scalar `/`, with `_ieee_div` where it raises.
Scalar `^` and scalar builtins are their real kernel: the C function, and
the repair where it raises; a `^` by a constant finite non-integer exponent
first maps a negative finite base to NaN, the repair's answer.  A
quaternion `^` whose exponent is a `Scalar` constant from 0 to
`_POW_UNROLL` is `_qpow`'s square-and-multiply unrolled into inline
Hamilton products.  The rest (other quaternion `^`, complex and quaternion
builtins, scans, CALL_DEF) builds its operands, calls the kernel or the
body's lane, and reads the result's fields by its known kind.  `run` tries
the all-`Scalar` lane first, with no signature lookup; it counts the runs
that find no lane and, from the `_LANE_AFTER`-th (never at compile time),
builds the run's lane.  `Scalar` subclasses and leaves stay laneless.
A vector signature's lane is one `for` loop over the elements (a
`zip(..., strict=True)` of the vector arguments and constants that an
operator reads or the program returns, if several) in which each element
runs the width-1 code above; a scan is a running local started at its
identity, and an instruction whose operands do not vary per element runs
once, before the loop.  The loop reads kernels and constants as locals
(keyword-only defaults), and no tuple is built per operator.  A vector
program that has a CALL_DEF or a polymorphic frame, scans a scalar, or
returns a value that does not vary per element keeps the loop.  A lane has no error path: if it
raises (a kind error, or vectors of different lengths, say), `run` re-runs
the loop, which raises the exact error (or answers, where those vectors
never meet); with no leaves, nothing impure runs twice.
Contract: a lane does the loop's IEEE operations in the loop's order
(for each element, in a vector lane), so its result is bit-identical
(`float.hex` per component) to the loop's.
Counting, building and compiling a `Def` are not locked: two threads may
each build a lane or a body, and either one is correct.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

from .algebra import Apply, Arg, Arity, BinOp, Const, Def, FuncExpr, Leaf, Neg, Prim, evaluate
from .errors import (
    ArityMismatchError,
    BackendMismatchError,
    FuncalgError,
    InvalidProgramError,
)
from .values import ArithOp, BUILTIN_NAMES, Scalar, Value, Vector, apply_builtin, format_value, same_value, value_binop, value_neg
from .values import _CODE_NS, _FIELDS, _REAL_OPS, _SCALAR_KERNELS, _SCAN_KERNELS, _TOWER_OPS, _WIDTH_KINDS, _build_code, _comps, _read_code, _tower_code, _vector


class Op(Enum):
    LOAD_ARG = "load_arg"
    LOAD_CONST = "load_const"
    CALL_PRIM = "call_prim"
    CALL_LEAF = "call_leaf"
    CALL_DEF = "call_def"
    BINARY = "binary"
    NEGATE = "negate"
    BEGIN_FRAME = "begin_frame"
    END_FRAME = "end_frame"


class Instr(NamedTuple):
    op: Op
    a: object = None  # index, builtin name, ArithOp or body Program


_LOAD_ARG, _LOAD_CONST, _CALL_PRIM, _CALL_LEAF, _CALL_DEF, _BINARY, _NEGATE, _BEGIN_FRAME, _END_FRAME = Op


@dataclass(slots=True, unsafe_hash=True)
class Program:
    """A compiled expression: instructions, constant pool and leaf table.
    `==`, `hash` and `repr` read only these four fields, which are not frozen
    but must not change once the program has run.  `run` validates a program
    that `compile_expr` did not build before its first run."""

    instructions: tuple[Instr, ...]
    constants: tuple[Value, ...]
    leaves: tuple[Leaf, ...]
    arity: Arity

    # lane state: built lanes (functions, or False) by signature; the all-Scalar
    # lane; runs that found no lane, from -1 for a program not yet validated
    _lanes: dict = field(default_factory=dict, compare=False, repr=False)
    _lane: object = field(default=None, compare=False, repr=False)
    _runs: int = field(default=-1, compare=False, repr=False)

    def validate(self) -> None:
        """Static stack-discipline check: every instruction stays in bounds
        and execution leaves exactly one value with all frames popped."""
        depth = 0
        n = self.arity.n  # arity of the current frame; None is polymorphic
        outer: list[int | None] = []  # arities of the enclosing frames
        entry_depths: list[int] = []

        def fail(ip: int, why: str):
            raise InvalidProgramError(f"instruction {ip}: {why}")

        for ip, (op, a) in enumerate(self.instructions):
            if op is _LOAD_ARG:
                if not isinstance(a, int) or a < 0:
                    fail(ip, "bad argument index")
                if n is None:
                    fail(ip, "argument load in a polymorphic frame")
                if a >= n:
                    fail(ip, f"argument index {a} outside frame arity {n}")
                depth += 1
            elif op is _BINARY:
                if not isinstance(a, ArithOp):
                    fail(ip, "bad operator payload")
                if depth < 2:
                    fail(ip, "stack underflow")
                depth -= 1
            elif op is _BEGIN_FRAME:
                if not isinstance(a, int) or a < 1:
                    fail(ip, "bad frame arity")
                if depth < a:
                    fail(ip, "stack underflow")
                depth -= a
                outer.append(n)
                n = a
                entry_depths.append(depth)
            elif op is _END_FRAME:
                if not outer:
                    fail(ip, "no frame to pop")
                n = outer.pop()
                if depth != entry_depths.pop() + 1:
                    fail(ip, "frame body did not leave exactly one value")
            elif op is _LOAD_CONST:
                if not isinstance(a, int) or not 0 <= a < len(self.constants):
                    fail(ip, "constant index out of range")
                depth += 1
            elif op is _CALL_PRIM:
                if a not in BUILTIN_NAMES:
                    fail(ip, f"unknown builtin {a!r}")
                if depth < 1:
                    fail(ip, "stack underflow")
            elif op is _CALL_DEF:
                if not isinstance(a, Program):
                    fail(ip, "bad definition payload")
                if a.arity.n != n:
                    fail(ip, "definition arity does not match frame arity")
                depth += 1
            elif op is _CALL_LEAF:
                if not isinstance(a, int) or not 0 <= a < len(self.leaves):
                    fail(ip, "leaf index out of range")
                if self.leaves[a].arity.n != n:
                    fail(ip, "leaf arity does not match frame arity")
                depth += 1
            elif op is _NEGATE:
                if depth < 1:
                    fail(ip, "stack underflow")
            else:  # pragma: no cover - enum is closed
                fail(ip, f"unknown opcode {op}")
        if outer:
            raise InvalidProgramError("unbalanced frames at end of program")
        if depth != 1:
            raise InvalidProgramError(f"program leaves {depth} values on the stack, expected 1")


# Instructions whose payload is an index or arity below _INTERNED, an operator
# or a builtin name, built once: building an Instr costs ten bare tuples.
_INTERNED = 256
_LOAD_ARGS, _LOAD_CONSTS, _BEGIN_FRAMES = (tuple(Instr(op, i) for i in range(_INTERNED))
                                           for op in (_LOAD_ARG, _LOAD_CONST, _BEGIN_FRAME))
_BINARIES = {op: Instr(_BINARY, op) for op in ArithOp}
_PRIM_CODE = {name: (_LOAD_ARGS[0], Instr(_CALL_PRIM, name)) for name in BUILTIN_NAMES}
_NEGATE_INSTR, _END_FRAME_INSTR = Instr(_NEGATE), Instr(_END_FRAME)


def compile_expr(e: FuncExpr, arity: Arity | None = None) -> Program:
    """Flatten a tree post-order into a Program of `arity` (by default the
    tree's own), valid by construction: `run` does not validate it."""
    code, constants, leaves = [], [], []
    work = [e]  # nodes to compile, and instructions to emit, last first
    push, pop, emit = work.append, work.pop, code.append
    while work:
        n = pop()
        t = type(n)
        if t is Instr:
            emit(n)
        elif t is BinOp:
            push(_BINARIES[n.op])
            push(n.e2)
            push(n.e1)
        elif t is Arg:
            emit(_LOAD_ARGS[n.i] if n.i < _INTERNED else Instr(_LOAD_ARG, n.i))
        elif t is Const:
            emit(_LOAD_CONSTS[k] if (k := len(constants)) < _INTERNED else Instr(_LOAD_CONST, k))
            constants.append(n.v)
        elif t is Apply:
            push(_END_FRAME_INSTR)
            push(n.callee)
            push(_BEGIN_FRAMES[m] if (m := len(n.args)) < _INTERNED else Instr(_BEGIN_FRAME, m))
            work += reversed(n.args)
        elif t is Prim:
            code += _PRIM_CODE[n.name]
        elif t is Neg:
            push(_NEGATE_INSTR)
            push(n.e)
        elif t is Def:
            if n.call is None:
                object.__setattr__(n, "call", Instr(_CALL_DEF, compile_expr(n.body, n.arity)))
            emit(n.call)
        elif t is Leaf:
            emit(Instr(_CALL_LEAF, len(leaves)))
            leaves.append(n)
        else:
            raise TypeError(f"not a function expression: {n!r}")
    return Program(tuple(code), tuple(constants), tuple(leaves), arity or e.arity, _runs=0)


# Runs of a program that find no lane before `run` builds one.  A lane took
# 0.3-2.5 ms to build for the paper's golden programs and saved 13-31 us per
# scalar run and 11-32 us per `tower-calls` op, so it pays for itself after
# roughly 20-100 runs; a program run fewer times, such as a fresh definition
# body in a script, never builds one (CHANGES.md has the measurements).  A
# vector lane of a `wide-vectors` program took 0.4-0.8 ms to build and saved
# 0.5-2.9 ms per run on 1e4 elements and 7-26 ms on 1e5, so it would pay
# for itself at once; it waits for the same count.
_LANE_AFTER = 32

_LANE_WIDTHS = {t: len(f) for t, f in _FIELDS.items()} | {Vector: 1}  # a float per element

# The largest constant exponent of a quaternion ^ that a lane unrolls; up to it
# the unrolled code is at most 11 Hamilton products (for 63).
_POW_UNROLL = 64


def _lane_of(p: Program, sig: tuple[type, ...]):
    """p's lane for argument types `sig`, built on first request; False if none."""
    lane = p._lanes.get(sig)
    if lane is None:
        lane = p._lanes[sig] = _build_lane(p, sig)
        if all(t is Scalar for t in sig):
            p._lane = lane
    return lane


def _build_lane(p: Program, sig: tuple[type, ...]):
    """Generate p's lane for argument types `sig`: a function of the boxed
    arguments that returns the boxed result.  A value is a name x and a
    width w, held as the locals x_0 .. x_{w-1}; x itself is bound to the
    boxed value where there is one.  In a vector signature (only Scalars and
    Vectors, at least one Vector), x_0 is a value's current element where
    it varies per element, and the code that computes such values is one
    loop over the elements."""
    kinds = sig + tuple(map(type, p.constants))
    vector = p.arity.is_fixed and Vector in kinds and all(t is Scalar or t is Vector for t in kinds)
    if p.leaves or not (vector or all(t in _FIELDS for t in kinds)):
        return False
    ns = {**_CODE_NS, "value_binop": value_binop, "apply_builtin": apply_builtin, "POW": ArithOp.POW, "boxv": _vector}
    helpers = len(ns)
    for k, c in enumerate(p.constants):
        ns[f"c{k}"] = c
        for j, f in enumerate(_FIELDS.get(type(c), ())):
            ns[f"c{k}_{j}"] = getattr(c, f)  # a float, not its repr: inf, nan and -0.0 survive
    comps = lambda v: _comps(*v)
    lines = pre = []  # the code to emit to: pre, or a vector lane's loop
    loop: list[str] = []
    boxed = set(ns)  # names bound to boxed values (and others): the constants c<k>
    # the vectors a vector lane loops over, and the names of the values that vary per element
    sources = [f"a{i}" for i, t in enumerate(sig) if t is Vector]
    sources += [f"c{k}" for k, c in enumerate(p.constants) if type(c) is Vector]
    varying = set(sources)
    read: set[str] = set()  # the names some operator reads: the vectors to zip, with the result

    def unbox(x: str, w: int, expr: str | None = None) -> tuple[str, int]:
        """Bind x to expr's boxed value of width w (if given), then read its fields."""
        if expr:
            lines.append(f"    {x} = {expr}")
        lines.extend("    " + s for s in _read_code(x, w))
        boxed.add(x)
        return x, w

    def kernel(t: str, name: str, pair, *xs: tuple[str, int], raw: str = "") -> tuple[str, int]:
        """Bind t_0 to a real kernel pair (C function, repair or None) on the
        scalars xs: the C function (or the same operation written `raw`), and
        the repair where it raises."""
        ns[f"k_{name}"], ns[f"r_{name}"] = pair
        call = f"({', '.join(x + '_0' for x, _ in xs)})"
        raw = raw or f"k_{name}{call}"
        if pair[1] is None:
            lines.append(f"    {t}_0 = {raw}")
        else:
            lines.append(f"    try: {t}_0 = {raw}")
            lines.append(f"    except (ArithmeticError, ValueError): {t}_0 = r_{name}{call}")
        return t, 1

    def inline(t: str, op: ArithOp, xs: list[str], ys: list[str]) -> tuple[str, int]:
        """Bind t_0 .. to `xs op ys` on the components xs and ys (`_tower_code`)."""
        lines.extend("    " + s for s in _tower_code(t, op, xs, ys))
        return t, max(len(xs), len(ys))

    def box(v: tuple[str, int]) -> str:
        if v[0] not in boxed:
            lines.extend("    " + s for s in _build_code(*v))
            boxed.add(v[0])
        return v[0]

    # a polymorphic frame (None) only passes its arguments on
    frame = [(f"a{i}", 1) if t is Vector else unbox(f"a{i}", _LANE_WIDTHS[t])
             for i, t in enumerate(sig)] if p.arity.n else None
    head = ", ".join(x for x, _ in frame) if frame else "*args"
    stack: list[tuple[str, int]] = []
    saved: list = []
    for ip, (op, a) in enumerate(p.instructions):
        t = f"t{ip}"
        if op is _BINARY or op is _CALL_PRIM or op is _NEGATE:
            # emitted once before the loop, unless an operand varies per element
            operands = stack[-2:] if op is _BINARY else stack[-1:]
            read.update(x for x, _ in operands)
            lines = loop if any(x in varying for x, _ in operands) else pre
            if lines is loop:
                varying.add(t)
        if op is _LOAD_ARG:
            stack.append(frame[a])
        elif op is _BINARY:
            y = stack.pop()
            x = stack[-1]
            w = max(x[1], y[1])
            if w == 1 and (a, w) not in _TOWER_OPS:  # scalar / (inline) and ^
                raw = f"{x[0]}_0 / {y[0]}_0" if a is ArithOp.DIV else ""
                if a is ArithOp.POW and type(c := ns.get(y[0])) is Scalar and math.isfinite(c.x) and not c.x.is_integer():
                    # a constant non-integer exponent: a negative finite base's NaN is inline, not raised
                    ns["nan"], ns["inf"] = math.nan, math.inf
                    raw = f"nan if -inf < {x[0]}_0 < 0.0 else k_POW({x[0]}_0, {y[0]}_0)"
                stack[-1] = kernel(t, a.name, _REAL_OPS[a], x, y, raw=raw)
            elif a is not ArithOp.POW or w == 2:
                stack[-1] = inline(t, a, comps(x), comps(y))
            elif x[1] == 4 and type(c := ns.get(y[0])) is Scalar and c.x in range(_POW_UNROLL + 1):
                # y is a constant (of the stack's names, ns binds only theirs): _qpow unrolled
                acc, base, n, k = ("1.0", "0.0", "0.0", "0.0"), comps(x), int(c.x), 0
                while n:
                    if n & 1:
                        acc = comps(inline(f"{t}m{k}", ArithOp.MUL, acc, base))
                    n >>= 1
                    if n:
                        base = comps(inline(f"{t}s{k}", ArithOp.MUL, base, base))
                    k += 1
                lines.append(f"    {', '.join(comps((t, 4)))} = {', '.join(acc)}")
                stack[-1] = (t, 4)
            else:  # other quaternion ^: a computed or larger exponent, or one that raises
                stack[-1] = unbox(t, w, f"value_binop(POW, {box(x)}, {box(y)})")
        elif op is _BEGIN_FRAME:
            saved.append(frame)
            frame = stack[-a:]
            del stack[-a:]
        elif op is _END_FRAME:
            frame = saved.pop()
        elif op is _LOAD_CONST:
            stack.append((f"c{a}", _LANE_WIDTHS[type(p.constants[a])]))
        elif op is _CALL_PRIM:
            w = stack[-1][1]
            if w == 1 and a in _SCALAR_KERNELS:
                stack[-1] = kernel(t, a, _SCALAR_KERNELS[a], stack[-1])
            elif vector:  # a scan: a running local, from the identity, as `accumulate`
                if lines is pre:
                    return False  # of a scalar, which raises
                step, start = _SCAN_KERNELS[a]
                pre.append(f"    {t}_0 = {start!r}")
                stack[-1] = inline(t, step, [f"{t}_0"], comps(stack[-1]))
            else:  # complex and quaternion kernels (abs gives a scalar); a scan raises
                stack[-1] = unbox(t, 1 if w == 4 else w, f"apply_builtin({a!r}, {box(stack[-1])})")
        elif op is _CALL_DEF:
            # a body that no run has validated yet (a hand-built one) gets no lane here
            callee = not vector and a._runs >= 0 and _lane_of(a, sig if frame is None else tuple(_WIDTH_KINDS[w] for _, w in frame))
            if not (callee and callee.width):  # a vector lane's result has no width
                return False
            ns[f"d{ip}"] = callee
            args = "*args" if frame is None else ", ".join(map(box, frame))
            stack.append(unbox(t, callee.width, f"d{ip}({args})"))
        else:  # NEGATE; a program without leaves has no CALL_LEAF
            lines += [f"    {t}_{j} = -{c}" for j, c in enumerate(comps(stack[-1]))]
            stack[-1] = (t, stack[-1][1])
    if not vector:
        pre.append(f"    return {box(stack[0])}")
    elif stack[0][0] not in varying:
        return False
    else:
        # the loop reads kernels and constants as locals: keyword-only defaults
        local = ", ".join(f"{n}={n}" for n in list(ns)[helpers:])
        head += f", *, {local}" if local else ""
        read.add(stack[0][0])
        sources = [s for s in sources if s in read]  # an unread one may have another length
        over = f"{sources[0]}.xs" if len(sources) == 1 else f"zip({', '.join(s + '.xs' for s in sources)}, strict=True)"
        pre += ["    out = []", "    push = out.append", f"    for {', '.join(s + '_0' for s in sources)} in {over}:"]
        pre += ["    " + s for s in loop] + [f"        push({stack[0][0]}_0)", "    return boxv(tuple(out))"]
    exec(f"def lane({head}):\n" + "\n".join(pre), ns)
    lane = ns["lane"]
    lane.width = None if vector else stack[0][1]  # the result's, for the lanes that call this one
    return lane


def run(p: Program, args: Sequence[Value]) -> Value:
    """Execute a program on an argument list; equals evaluate() on the
    source tree exactly.  Evaluation errors carry the instruction index."""
    argtuple = tuple(args)
    if not p.arity.accepts(len(argtuple)):
        raise ArityMismatchError(f"program expects {p.arity} argument(s), got {len(argtuple)}")
    for v in argtuple:
        if type(v) is not Scalar:
            lanes = p._lanes
            lane = lanes.get(tuple(map(type, argtuple))) if lanes else None
            break
    else:  # all exact Scalars: their lane needs no signature lookup
        lane = p._lane
    if lane is None:
        runs = p._runs + 1
        if not runs:  # the first run of a program that `compile_expr` did not build
            p.validate()
            runs = 1
        p._runs = runs
        if runs >= _LANE_AFTER:
            lane = _lane_of(p, tuple(map(type, argtuple)))
    if lane:
        try:
            return lane(*argtuple)
        except Exception:
            pass  # the loop below raises the exact error
    stack: list[Value] = []
    push, pop = stack.append, stack.pop
    constants, leaves = p.constants, p.leaves
    frame = argtuple  # arguments of the current frame
    saved: list[tuple[Value, ...]] = []  # arguments of the enclosing frames
    ip = -1
    try:
        for op, a in p.instructions:
            ip += 1
            if op is _LOAD_ARG:
                push(frame[a])
            elif op is _BINARY:
                y = pop()
                stack[-1] = value_binop(a, stack[-1], y)
            elif op is _BEGIN_FRAME:
                saved.append(frame)
                frame = tuple(stack[-a:])
                del stack[-a:]
            elif op is _END_FRAME:
                frame = saved.pop()
            elif op is _LOAD_CONST:
                push(constants[a])
            elif op is _CALL_PRIM:
                stack[-1] = apply_builtin(a, stack[-1])
            elif op is _CALL_DEF:
                push(run(a, frame))
            elif op is _CALL_LEAF:
                push(leaves[a].body(*frame))
            else:  # NEGATE
                stack[-1] = value_neg(stack[-1])
    except FuncalgError as err:
        raise type(err)(f"instruction {ip}: {err}") from err
    return stack[0]  # the only value: validate() rules out any other count


# ---------------------------------------------------------------------------
# Checking and benchmarking the two backends against each other.

def check_agreement(tree_value: Value, vm_value: Value) -> Value:
    """Return the tree walker's result; raise if the VM's is not the same."""
    if not same_value(tree_value, vm_value):
        raise BackendMismatchError(
            f"backends disagree: tree={format_value(tree_value, 17)} "
            f"vm={format_value(vm_value, 17)}"
        )
    return tree_value


@dataclass(frozen=True)
class BenchReport:
    backend: str
    iterations: int
    total_ns: int
    mean_ns: float
    result: Value

    def as_dict(self, digits: int = 7) -> dict:
        return {
            "backend": self.backend,
            "iterations": self.iterations,
            "total_ns": self.total_ns,
            "mean_ns": self.mean_ns,
            "result": format_value(self.result, digits),
        }

    def as_json(self, digits: int = 7) -> str:
        return json.dumps(self.as_dict(digits))


def bench(
    e: FuncExpr, args: Sequence[Value], iterations: int = 100_000
) -> tuple[BenchReport, BenchReport]:
    """Time tree-walking vs compiled evaluation on identical inputs.

    A warm-up run of both backends happens before timing, so evaluation
    errors propagate untimed; the backends' results must agree."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    argtuple = tuple(args)
    program = compile_expr(e)

    tree_result = evaluate(e, argtuple)
    vm_result = run(program, argtuple)
    check_agreement(tree_result, vm_result)

    t0 = time.perf_counter_ns()
    for _ in range(iterations):
        evaluate(e, argtuple)
    tree_ns = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    for _ in range(iterations):
        run(program, argtuple)
    vm_ns = time.perf_counter_ns() - t0

    return (
        BenchReport("tree", iterations, tree_ns, tree_ns / iterations, tree_result),
        BenchReport("vm", iterations, vm_ns, vm_ns / iterations, vm_result),
    )
