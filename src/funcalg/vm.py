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

Compilation is a direct post-order flattening with no constant folding or
CSE, so a program performs the same IEEE operations in the same order as
the tree walker.  A composition node compiles to its argument
sub-programs followed by BEGIN_FRAME, the callee code, and END_FRAME;
frames live on their own stack, so composition depth is unbounded.  A
definition's body is compiled once, and each reference runs it on F.
Programs are immutable, apart from their scalar-lane state (below), and
re-entrant: concurrent runs are safe.

`run` unpacks each instruction as `(op, a)` and tests `op` by identity
against module-level opcode aliases, in descending order of the summed
per-op opcode counts of the traced `scalar-calls` and `tower-calls`
benchmarks.  One `try` wraps the loop; a counter names the failing index.

Scalar lane.  A program whose constants are all exactly `Scalar`, that has
no CALL_LEAF, and whose CALL_DEF bodies qualify in turn, can also run as
one generated Python function on raw floats: one local per result, frames
and argument loads resolved to names at generation time, `+ - *` and
negation inlined, `/` and `^` through the total kernels `_ieee_div` and
`_ieee_pow`, each builtin as its C function with the kernel's repair where
it raises, and a CALL_DEF as a call of the body's own lane.  `run` counts
the runs of a program whose arguments are all exactly `Scalar` and builds
the lane on the `_LANE_AFTER`-th (never at compile time); from then on such
runs take the lane and box its result once.  The lane has no error path:
if it raises, `run` re-runs the loop, which raises the exact error with its
instruction index.  That is safe because a lane program has no leaves, so
nothing impure runs twice.  Contract: the lane performs the loop's IEEE
operations in the loop's order, so its result is bit-identical (by
`float.hex`) to the loop's.  Counting and building are not locked: two
threads may each build a lane, and either one is correct.
"""

from __future__ import annotations

import json
import time
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .algebra import Apply, Arg, Arity, BinOp, Const, Def, FuncExpr, Leaf, Neg, Prim, evaluate
from .errors import (
    ArityMismatchError,
    BackendMismatchError,
    FuncalgError,
    InvalidProgramError,
    UnsupportedKindError,
)
from .values import ArithOp, BUILTIN_NAMES, Scalar, Value, apply_builtin, format_value, same_value, value_binop, value_neg
from .values import _SCALAR_KERNELS, _ieee_div, _ieee_pow, _scalar


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


@dataclass(frozen=True)
class Program:
    """A compiled expression: instructions, constant pool and leaf table."""

    instructions: tuple[Instr, ...]
    constants: tuple[Value, ...]
    leaves: tuple[Leaf, ...]
    arity: Arity

    # scalar-lane state, outside the compared fields: all-scalar runs so far;
    # the lane is None until built, then its function or False (ineligible)
    _scalar_runs = 0
    _lane = None

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
            raise InvalidProgramError(
                f"program leaves {depth} values on the stack, expected 1"
            )


_body_programs: weakref.WeakKeyDictionary[Def, Program] = weakref.WeakKeyDictionary()


def compile_expr(e: FuncExpr, arity: Arity | None = None) -> Program:
    """Flatten a tree post-order into a validated Program of `arity`
    (by default the tree's own)."""
    code: list[Instr] = []
    constants: list[Value] = []
    leaves: list[Leaf] = []

    def emit(node: FuncExpr) -> None:
        match node:
            case Arg():
                code.append(Instr(_LOAD_ARG, node.i))
            case Const():
                code.append(Instr(_LOAD_CONST, len(constants)))
                constants.append(node.v)
            case Prim():
                code.append(Instr(_LOAD_ARG, 0))
                code.append(Instr(_CALL_PRIM, node.name))
            case BinOp():
                emit(node.e1)
                emit(node.e2)
                code.append(Instr(_BINARY, node.op))
            case Neg():
                emit(node.e)
                code.append(Instr(_NEGATE))
            case Apply():
                for a in node.args:
                    emit(a)
                code.append(Instr(_BEGIN_FRAME, len(node.args)))
                emit(node.callee)
                code.append(Instr(_END_FRAME))
            case Def():
                body = _body_programs.get(node)
                if body is None:
                    body = _body_programs[node] = compile_expr(node.body, node.arity)
                code.append(Instr(_CALL_DEF, body))
            case Leaf():
                code.append(Instr(_CALL_LEAF, len(leaves)))
                leaves.append(node)
            case _:
                raise TypeError(f"not a function expression: {node!r}")

    emit(e)
    program = Program(tuple(code), tuple(constants), tuple(leaves), arity or e.arity)
    program.validate()
    return program


# All-scalar runs of a program before `run` builds its scalar lane.  Building
# one took 0.4-1 ms for the paper's golden programs and saved 13-31 us per
# run, so a lane pays for itself after roughly 20-35 runs; a program run
# fewer times, such as a fresh definition body in a script, never builds one
# (CHANGES.md has the measurements behind the choice).
_LANE_AFTER = 32

# lane code per operator: + - * inline, as they never raise on floats
_LANE_BINARY = {
    ArithOp.ADD: "{} + {}",
    ArithOp.SUB: "{} - {}",
    ArithOp.MUL: "{} * {}",
    ArithOp.DIV: "ieee_div({}, {})",
    ArithOp.POW: "ieee_pow({}, {})",
}


def _lane_of(p: Program):
    """p's scalar lane, built on first request; False if p cannot have one."""
    lane = p._lane
    if lane is None:
        lane = _build_lane(p)
        object.__setattr__(p, "_lane", lane)
    return lane


def _build_lane(p: Program):
    """Generate p's scalar lane: one function of the argument floats that
    does the loop's IEEE operations in the loop's order and returns a float.

    Each result gets its own local; argument loads, constants and frames
    are only names, resolved here.  The lane has no error path: whatever it
    raises, `run` re-runs the loop, which raises the exact error."""
    if p.leaves or any(type(c) is not Scalar for c in p.constants):
        return False
    ns: dict[str, object] = {
        "ieee_div": _ieee_div,
        "ieee_pow": _ieee_pow,
        "UnsupportedKindError": UnsupportedKindError,
    }
    for k, c in enumerate(p.constants):
        ns[f"c{k}"] = c.x  # a float, not its repr: inf, nan and -0.0 survive
    n = p.arity.n
    frame = [f"a{i}" for i in range(n)] if n else ["*args"]
    lines = [f"def lane({', '.join(frame)}):"]
    stack: list[str] = []
    saved: list[list[str]] = []
    for ip, (op, a) in enumerate(p.instructions):
        t = f"t{ip}"
        if op is _LOAD_ARG:
            stack.append(frame[a])
        elif op is _BINARY:
            y = stack.pop()
            lines.append(f"    {t} = " + _LANE_BINARY[a].format(stack[-1], y))
            stack[-1] = t
        elif op is _BEGIN_FRAME:
            saved.append(frame)
            frame = stack[-a:]
            del stack[-a:]
        elif op is _END_FRAME:
            frame = saved.pop()
        elif op is _LOAD_CONST:
            stack.append(f"c{a}")
        elif op is _CALL_PRIM:
            x = stack[-1]
            stack[-1] = t
            if a not in _SCALAR_KERNELS:  # a scan, which needs a vector
                lines.append("    raise UnsupportedKindError")
                continue
            raw, repair = _SCALAR_KERNELS[a]
            ns[f"k_{a}"], ns[f"r_{a}"] = raw, repair
            if repair is None:  # the C function never raises
                lines.append(f"    {t} = k_{a}({x})")
            else:
                lines.append(f"    try: {t} = k_{a}({x})")
                lines.append(f"    except (ArithmeticError, ValueError): {t} = r_{a}({x})")
        elif op is _CALL_DEF:
            callee = _lane_of(a)
            if not callee:
                return False
            ns[f"d{ip}"] = callee
            lines.append(f"    {t} = d{ip}({', '.join(frame)})")
            stack.append(t)
        else:  # NEGATE; a program without leaves has no CALL_LEAF
            lines.append(f"    {t} = -{stack[-1]}")
            stack[-1] = t
    lines.append(f"    return {stack[0]}")
    exec("\n".join(lines), ns)
    return ns["lane"]


def run(p: Program, args: Sequence[Value]) -> Value:
    """Execute a program on an argument list; equals evaluate() on the
    source tree exactly.  Evaluation errors carry the instruction index."""
    argtuple = tuple(args)
    if not p.arity.accepts(len(argtuple)):
        raise ArityMismatchError(
            f"program expects {p.arity} argument(s), got {len(argtuple)}"
        )
    xs = []
    for v in argtuple:
        if type(v) is not Scalar:  # exact Scalars only; anything else runs the loop
            break
        xs.append(v.x)
    else:
        lane = p._lane
        if lane is None:
            runs = p._scalar_runs + 1
            object.__setattr__(p, "_scalar_runs", runs)
            if runs >= _LANE_AFTER:
                lane = _lane_of(p)
        if lane:
            try:
                return _scalar(lane(*xs))
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
    if len(stack) != 1:  # pragma: no cover - validate() rules this out
        raise InvalidProgramError(f"program left {len(stack)} values on the stack")
    return stack[0]


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
