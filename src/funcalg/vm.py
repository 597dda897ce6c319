"""Stack-machine backend: compile expression trees to flat programs.

Instruction set (operand stack before -> after; F is the current frame; the
kernels are the tree walker's, from `values._BUILTINS` and `values._BINOPS`):

    LOAD_ARG i        []            -> [F.args[i]]
    LOAD_CONST k      []            -> [constants[k]]
    CALL_PRIM name    [a]           -> [_BUILTINS[name](a)]   a builtin, or "neg"
    CALL_LEAF t       []            -> [leaf_t(*F.args)]
    CALL_DEF p        []            -> [run(p, F.args)]   p: a definition body
    BINARY op         [a b]         -> [_BINOPS[op](a, b)]
    BEGIN_FRAME m     [a1 .. am]    -> []   pushes frame with args (a1 .. am)
    END_FRAME         []            -> []   pops the current frame

Compilation is one post-order loop over a work stack, with no constant
folding or CSE (lanes, below, share repeated subexpressions), so a program
does the tree walker's IEEE operations in its order: a node pushes its
instruction, then its children, last child first.
A composition node compiles to its arguments, BEGIN_FRAME, the callee and
END_FRAME.  Instructions with a small index or arity, an operator or a
builtin name as payload are built once, at import.  Compiling a tree and
running its frames cost no Python frame per level, so composition depth is
unbounded there; compiling a definition's body, nested CALL_DEFs and the
tree walker recurse.  A `Def` keeps its body's CALL_DEF instruction as
`call`, built by the first compile that meets it; each reference emits it.
`compile_expr`'s programs are valid by construction and are not validated;
`run` validates any other program (its pools and every payload that the
loop and the lane builder read) before its first run.  Runs change only a
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
known, and a value is 1, 2 or 4 float locals; frames and argument loads are
only names.  A lane computes each repeated subexpression once (local value
numbering): an operator, builtin (negation too) or definition call whose
opcode, payload and operand names (a call's: its frame's arguments) match
an earlier one's emits no code and names that one's result, and equal
constants (of equal bits, or a Vector: the same object) share one name.
Lanes are written by the code writers of `values` that also write the tree
walker's kernels: `_read_code` reads a boxed value's fields into locals,
`_build_code` builds a value from them, and `_tower_code` and `_prim_code`
write each operator and builtin at its operands' widths, so a lane runs a
kernel's statements inline (if they are a `raise`, as for `Tan` of a
complex value, the signature gets no lane).  A lane binds each distinct
constant boxed, as `c<k>`, and reads at its start, as it reads its
arguments (by `_read_code`), those of its fields that some statement
uses; `_tower_code` writes an operator by a constant knowing its value.
A lane boxes values only to call a body's lane (CALL_DEF) and to return,
and binds the real kernels it calls (`values._real_kernels`) when built.
`run` tries the all-`Scalar` lane first, with no signature lookup; it
counts the runs that find no lane and, from the `_LANE_AFTER`-th (never at
compile time), builds the run's lane.  `Scalar` subclasses and leaves stay
laneless.
A vector signature's lane is one `for` loop over the elements (a
`zip(..., strict=True)` of the vector arguments and constants that an
operator reads or the program returns, if several) in which each element
runs the width-1 code above; a scan is a running local started at its
identity, and an instruction whose operands do not vary per element runs
once, before the loop.  The loop reads kernels as locals (keyword-only
defaults) and constants' fields as the locals read before it, and no tuple
is built per operator.  A vector program that has a CALL_DEF or a
polymorphic frame, scans a scalar, or returns a value that does not vary
per element keeps the loop.  A lane has no error path: if it raises (a
kind error, or vectors of different lengths, say), `run` re-runs the loop,
which raises the exact error (or answers, where those vectors never meet);
with no leaves, nothing impure runs twice.  A lane that has raised
`_LANE_RAISES` times is dropped.
Contract: every value a lane computes is one the loop computes, from the
same operands by the same IEEE operation (for each element, in a vector
lane), so its result is bit-identical (`float.hex` per component) to the
loop's.  `values._define` compiles each lane, as it does every kernel,
and keeps its source in `linecache` as `<funcalg lane 1a2b3c4d>` (a CRC
of the source), for tracebacks and `inspect.getsource`.
Counting, building and compiling a `Def` are not locked: two threads may
each build a lane or a body, and either one is correct.
"""

from __future__ import annotations

import re
import struct
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
from .values import ArithOp, Complex, Quaternion, Scalar, Value, Vector, format_value, same_value
from .values import _BINOPS, _BUILTINS, _CODE_NS, _FIELDS, _SCAN_KERNELS, _WIDTH_KINDS, _build_code, _comps, _define, _prim_code, _read_code, _real_kernels, _tower_code, _vector


class Op(Enum):
    LOAD_ARG = "load_arg"
    LOAD_CONST = "load_const"
    CALL_PRIM = "call_prim"
    CALL_LEAF = "call_leaf"
    CALL_DEF = "call_def"
    BINARY = "binary"
    BEGIN_FRAME = "begin_frame"
    END_FRAME = "end_frame"


class Instr(NamedTuple):
    op: Op
    a: object = None  # index, arity, builtin name or "neg", ArithOp or body Program


_LOAD_ARG, _LOAD_CONST, _CALL_PRIM, _CALL_LEAF, _CALL_DEF, _BINARY, _BEGIN_FRAME, _END_FRAME = Op


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
        """Static check of everything `run` and the lane builder read: the
        pools hold values and leaves, every payload has its type, every
        instruction stays in bounds, and execution leaves exactly one value
        with all frames popped."""
        if not isinstance(self.arity, Arity):
            raise InvalidProgramError("program arity is not an Arity")
        depth = 0
        n = self.arity.n  # arity of the current frame; None is polymorphic
        outer: list[tuple[int | None, int]] = []  # the enclosing frames' arities and entry depths

        def fail(ip: int, why: str):
            raise InvalidProgramError(f"instruction {ip}: {why}")

        for k, c in enumerate(self.constants):
            if not isinstance(c, (Scalar, Complex, Quaternion, Vector)):
                raise InvalidProgramError(f"constant {k} is not a Scalar, Complex, Quaternion or Vector")
        for k, leaf in enumerate(self.leaves):
            if not isinstance(leaf, Leaf):
                raise InvalidProgramError(f"leaf {k} is not a Leaf")
        for ip, (op, a) in enumerate(self.instructions):
            if op is _LOAD_ARG:
                if type(a) is not int or a < 0:
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
                if type(a) is not int or a < 1:
                    fail(ip, "bad frame arity")
                if depth < a:
                    fail(ip, "stack underflow")
                depth -= a
                outer.append((n, depth))
                n = a
            elif op is _END_FRAME:
                if not outer:
                    fail(ip, "no frame to pop")
                n, entry = outer.pop()
                if depth != entry + 1:
                    fail(ip, "frame body did not leave exactly one value")
            elif op is _LOAD_CONST:
                if type(a) is not int or not 0 <= a < len(self.constants):
                    fail(ip, "constant index out of range")
                depth += 1
            elif op is _CALL_PRIM:  # a builtin, or "neg": the kernels `run` calls
                if type(a) is not str or a not in _BUILTINS:
                    fail(ip, f"unknown builtin {a!r}")
                if depth < 1:
                    fail(ip, "stack underflow")
            elif op is _CALL_DEF:
                if not isinstance(a, Program):
                    fail(ip, "bad definition payload")
                if not isinstance(a.arity, Arity):
                    fail(ip, "definition arity is not an Arity")
                if a.arity.n is not None and a.arity.n != n:  # `run` calls a polymorphic body with any count
                    fail(ip, "definition arity does not match frame arity")
                depth += 1
            elif op is _CALL_LEAF:
                if type(a) is not int or not 0 <= a < len(self.leaves):
                    fail(ip, "leaf index out of range")
                if self.leaves[a].arity.n != n:
                    fail(ip, "leaf arity does not match frame arity")
                depth += 1
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
_PRIM_CODE = {name: (_LOAD_ARGS[0], Instr(_CALL_PRIM, name)) for name in _BUILTINS}  # "neg" names no Prim
_NEG_INSTR, _END_FRAME_INSTR = _PRIM_CODE["neg"][1], Instr(_END_FRAME)


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
            push(_NEG_INSTR)
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
# 0.3-0.9 ms to build for the paper's golden programs and saved 10-20 us per
# scalar run and 11-31 us per `tower-calls` op, so it pays for itself after
# roughly 20-50 runs; a program run fewer times, such as a fresh definition
# body in a script, never builds one (CHANGES.md has the measurements).  A
# vector lane of a `wide-vectors` program took 0.2-0.5 ms to build and saved
# 0.7-3.0 ms per run on 1e4 elements and 9-30 ms on 1e5, so it would pay
# for itself at once; it waits for the same count.
_LANE_AFTER = 32

# Raises, in all, after which `run` drops a lane (stores False for its
# signature).  `run` re-runs the loop after each raise, so a lane that raises
# costs its own run on top of the loop's: `x ^ y` at a quaternion and 2.5
# took 3.07 us per run with its lane against 2.5 us without (Python 3.11, 2
# vCPUs).  The count is a total, not a run of raises with no success between,
# so a lane's success stores nothing; no benchmark workload's lane raises.
_LANE_RAISES = 4


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
    ns = {**_CODE_NS, "boxv": _vector}
    comps = lambda v: _comps(*v)
    lines = pre = []  # the code to emit to: pre, or a vector lane's loop
    loop: list[str] = []
    boxed: set[str] = set()  # names bound to boxed values
    # the vectors a vector lane loops over, and the names of the values that vary per element
    sources = [f"a{i}" for i, t in enumerate(sig) if t is Vector]
    sources += [f"c{k}" for k, c in enumerate(p.constants) if type(c) is Vector]
    varying = set(sources)
    read: set[str] = set()  # the names some operator reads: the vectors to zip, with the result

    def unbox(x: str, w: int, expr: str | None = None) -> tuple[str, int]:
        """Bind x to expr's boxed value of width w (if given), then read its fields."""
        if expr:
            lines.append(f"{x} = {expr}")
        lines.extend(_read_code(x, w))
        boxed.add(x)
        return x, w

    def box(v: tuple[str, int]) -> str:
        if v[0] not in boxed:
            lines.extend(_build_code(*v))
            boxed.add(v[0])
        return v[0]

    names = {}  # constants' values by their fields' bits (0.0 is not -0.0), a Vector's by identity
    consts = []  # each constant's value c<k>: equal ones share the first one's
    for k, c in enumerate(p.constants):
        fields = _FIELDS.get(type(c), ())  # packed as floats, not reprs: inf, nan and -0.0 survive
        key = (type(c), struct.pack(f"{len(fields)}d", *[getattr(c, f) for f in fields])) if fields else id(c)
        if key not in names:
            ns[f"c{k}"] = c
            names[key] = unbox(f"c{k}", len(fields)) if fields else (f"c{k}", 1)
        consts.append(names[key])
    nreads = len(pre)  # the constants' field reads, kept below where a statement uses them
    # a polymorphic frame (None) only passes its arguments on
    frame = [(f"a{i}", 1) if t is Vector else unbox(f"a{i}", len(_FIELDS[t]))
             for i, t in enumerate(sig)] if p.arity.n else None
    head = ", ".join(x for x, _ in frame) if frame else "*args"
    stack: list[tuple[str, int]] = []
    saved: list = []
    memo = {}  # (opcode, payload, operand names) -> the value computed from them
    for ip, (op, a) in enumerate(p.instructions):
        t = f"t{ip}"
        key, code = None, []  # code: an operator's or a builtin's statements
        if op is _BINARY or op is _CALL_PRIM:
            operands = stack[-2:] if op is _BINARY else stack[-1:]
            if (key := (op, a, *(x for x, _ in operands))) in memo:
                stack[-len(operands):] = [memo[key]]  # computed before: the same bits, and no code
                continue
            # emitted once before the loop, unless an operand varies per element
            read.update(x for x, _ in operands)
            lines = loop if any(x in varying for x, _ in operands) else pre
            if lines is loop:
                varying.add(t)
        elif op is _CALL_DEF and (key := (op, id(a), *(x for x, _ in frame or ()))) in memo:
            stack.append(memo[key])  # a body without leaves is pure too: the same call, run once
            continue
        if op is _LOAD_ARG:
            stack.append(frame[a])
        elif op is _BINARY:
            y = stack.pop()
            # of the stack's names, ns binds only the constants': the writer decides a constant operand
            code = _tower_code(t, a, comps(stack[-1]), comps(y), ns.get(y[0]))
            stack[-1] = (t, max(stack[-1][1], y[1]))
        elif op is _BEGIN_FRAME:
            saved.append(frame)
            frame = stack[-a:]
            del stack[-a:]
        elif op is _END_FRAME:
            frame = saved.pop()
        elif op is _LOAD_CONST:
            stack.append(consts[a])
        elif op is _CALL_PRIM:
            code, w = _prim_code(t, a, comps(stack[-1]))
            if lines is loop and a in _SCAN_KERNELS:  # a running local, from the identity, as `accumulate`
                step, start = _SCAN_KERNELS[a]
                pre.append(f"{t}_0 = {start!r}")
                code = _tower_code(t, step, [f"{t}_0"], comps(stack[-1]))
            stack[-1] = (t, w)
        else:  # CALL_DEF; a program without leaves has no CALL_LEAF
            # a body that no run has validated yet (a hand-built one) gets no lane here
            callee = not vector and a._runs >= 0 and _lane_of(a, sig if frame is None else tuple(_WIDTH_KINDS[w] for _, w in frame))
            if not (callee and callee.width):  # a vector lane's result has no width
                return False
            ns[f"d{ip}"] = callee
            args = "*args" if frame is None else ", ".join(map(box, frame))
            stack.append(unbox(t, callee.width, f"d{ip}({args})"))
        if code and code[0].startswith("raise "):
            return False  # straight-line code: the lane would raise on every run
        lines.extend(code)
        if key:
            memo[key] = stack[-1]
    kernels = _real_kernels()  # those the code calls (and the inline NaN's names) are bound as the tables hold them now
    used = dict.fromkeys(re.findall(r"\b(?:[kr]_\w+|nan|inf)\b", "\n".join(pre + loop)))
    ns.update((n, kernels[n]) for n in used)
    if not vector:
        pre.append(f"return {box(stack[0])}")
    elif stack[0][0] not in varying:
        return False
    else:
        # the loop reads the kernels as locals: keyword-only defaults
        head += f", *, {', '.join(f'{n}={n}' for n in used)}" if used else ""
        read.add(stack[0][0])
        sources = [s for s in sources if s in read]  # an unread one may have another length
        over = f"{sources[0]}.xs" if len(sources) == 1 else f"zip({', '.join(s + '.xs' for s in sources)}, strict=True)"
        pre += ["out = []", "push = out.append", f"for {', '.join(s + '_0' for s in sources)} in {over}:"]
        pre += ["    " + s for s in loop] + [f"    push({stack[0][0]}_0)", "return boxv(tuple(out))"]
    uses = set(re.findall(r"\bc\d+_\d+\b", "\n".join(pre[nreads:])))
    pre[:nreads] = [s for s in pre[:nreads] if s.split(" = ")[0] in uses]
    lane = _define("lane", head, pre, ns)
    lane.width = None if vector else stack[0][1]  # the result's, for the lanes that call this one
    lane.raises = 0  # counted by `run`
    return lane


def run(p: Program, args: Sequence[Value]) -> Value:
    """Execute a program on an argument list; equals evaluate() on the
    source tree exactly.  Evaluation errors carry the instruction index."""
    argtuple = tuple(args)
    try:
        if not p.arity.accepts(len(argtuple)):
            raise ArityMismatchError(f"program expects {p.arity} argument(s), got {len(argtuple)}")
    except AttributeError:  # an arity that is not an Arity, in a hand-built program
        p.validate()  # raises InvalidProgramError
        raise
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
        except Exception:  # the loop below raises the exact error
            lane.raises += 1
            if lane.raises >= _LANE_RAISES:
                p._lanes[tuple(map(type, argtuple))] = False
                if p._lane is lane:
                    p._lane = False
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
                stack[-1] = _BINOPS[a](stack[-2], pop())
            elif op is _BEGIN_FRAME:
                saved.append(frame)
                frame = tuple(stack[-a:])
                del stack[-a:]
            elif op is _END_FRAME:
                frame = saved.pop()
            elif op is _LOAD_CONST:
                push(constants[a])
            elif op is _CALL_PRIM:
                stack[-1] = _BUILTINS[a](stack[-1])
            elif op is _CALL_DEF:
                push(run(a, frame))
            else:  # CALL_LEAF
                push(leaves[a].body(*frame))
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
        import json  # only :bench reports need it: importing funcalg does not

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
