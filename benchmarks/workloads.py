"""The four workloads: seeded inputs, engine objects and result checks.

An op is one call of one workload expression on one drawn argument tuple;
in `script-session` it is one statement run through `Session.execute_line`.
Every workload expression is written once as an oracle spec (see
oracle.py) and built into an engine tree through the public API, so the
expected value of every op comes from host arithmetic, never from funcalg.

Inputs depend only on the seed; the size mix (expressions, vector lengths,
statement kinds) is the same for every seed so throughput is comparable
across seeds.
"""

from __future__ import annotations

import io
import math
import random
import re

from engine import funcalg as fa
import oracle
from oracle import Quat

OPS = {"+": fa.ArithOp.ADD, "-": fa.ArithOp.SUB, "*": fa.ArithOp.MUL,
       "/": fa.ArithOp.DIV, "^": fa.ArithOp.POW}


# ---------------------------------------------------------------------------
# Spec helpers and the paper's worked examples (PAPER.md, README).

X, Y, Z = ("arg", 0), ("arg", 1), ("arg", 2)
SIN, COS, TAN, LOG, EXP = (("prim", n) for n in ("sin", "cos", "tan", "log", "exp"))


def B(op, a, b):
    return ("bin", op, a, b)


def C(v):
    return ("const", v)


def call(callee, *args):
    return ("call", callee, tuple(args))


F3 = B("-", B("+", X, B("*", X, Y)), B("/", X, Z))  # x + x*y - x/z
G3 = B("-", B("^", X, C(2.0)), Z)  # x^2 - z
GOLDEN_2C = B("*", B("+", F3, G3), B("-", B("+", F3, C(4.0)), B("*", B("*", C(2.0), F3), G3)))
GOLDEN_2D = call(B("+", F3, G3), B("+", X, Z), B("+", Y, Z), call(B("-", F3, G3), X, X, Y))
FUN = B("+", B("*", X, X), C(2.0))  # x*x + 2
GOLDEN_3A = B("-", B("+", call(FUN, SIN), call(SIN, FUN)), B("*", B("*", C(3.0), SIN), FUN))
_J = B("+", call(COS, X), call(SIN, B("-", X, Y)))
_K = B("+", call(TAN, X), call(LOG, B("+", X, Y)))
_L = B("+", call(SIN, B("/", X, C(2.0))), B("^", X, C(2.0)))
GOLDEN_3B = call(call(B("+", B("+", _J, _K), _L), B("+", SIN, LOG), B("+", COS, EXP)),
                 B("+", SIN, TAN))
F2 = B("+", X, B("*", X, Y))  # x + x*y
G2 = B("+", B("^", X, C(2.0)), Y)  # x^2 + y
GOLDEN_21 = B("-", B("+", F2, G2), B("*", F2, G2))
F1 = B("^", X, C(2.0))  # x^2
G1 = B("/", C(1.0), B("-", C(1.0), X))  # 1/(1-x)
GOLDEN_2A = B("+", F1, G1)
GOLDEN_2B = B("-", B("+", F1, B("*", C(4.0), G1)), B("*", F1, G1))
SIN_CUMSUM = call(("prim", "cumsum"), B("+", SIN, F1))


def chain(levels: int):
    """A composition chain: step_k(...step_1(x)) with bounded values."""
    steps = (SIN, B("+", B("*", X, C(0.5)), C(1.0)), COS)
    node = X
    for i in range(levels):
        node = call(steps[i % 3], node)
    return node


# ---------------------------------------------------------------------------
# Conversions between host values and engine values.

def to_value(v):
    if isinstance(v, list):
        return fa.Vector(tuple(v))
    if isinstance(v, Quat):
        return fa.Quaternion(*v)
    if isinstance(v, complex):
        return fa.Complex(v.real, v.imag)
    return fa.Scalar(v)


def to_host(v):
    if isinstance(v, fa.Scalar):
        return v.x
    if isinstance(v, fa.Vector):
        return list(v.xs)
    if isinstance(v, fa.Complex):
        return complex(v.re, v.im)
    return Quat(v.w, v.x, v.y, v.z)


def to_tree(spec, nargs: int, _params: dict | None = None):
    """Build the engine tree for a spec through the public constructors."""
    params = {} if _params is None else _params
    if nargs not in params:
        params[nargs] = fa.params(nargs)
    kind = spec[0]
    if kind == "arg":
        return params[nargs][spec[1]]
    if kind == "const":
        return fa.const_expr(to_value(spec[1]))
    if kind == "bin":
        return fa.combine(OPS[spec[1]], to_tree(spec[2], nargs, params),
                          to_tree(spec[3], nargs, params))
    if kind == "prim":
        return fa.builtin(spec[1])
    callee = to_tree(spec[1], len(spec[2]), params)
    return fa.apply_expr(callee, [to_tree(a, nargs, params) for a in spec[2]])


class Check:
    """Counts of one run's ops: attempted, raised, wrong (with examples)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.examples: list[str] = []

    def wrong_result(self, what: str) -> None:
        self.wrong += 1
        if len(self.examples) < 5:
            self.examples.append(what)

    def one(self, label: str, got, want, exact: bool) -> None:
        """Account one op's engine result (a Value or the exception it
        raised) against the oracle's expected host value."""
        self.attempted += 1
        if isinstance(got, Exception):
            self.failed += 1
        elif isinstance(got, fa.Vector) and isinstance(want, list) and got.xs == tuple(want):
            pass  # equal elementwise (NaN-free): the slow comparison agrees
        elif not oracle.matches(to_host(got), want, exact):
            self.wrong_result(f"{label}: got {fa.format_value(got, 17)[:80]}")

    def agree(self, label: str, tree, vm) -> None:
        if isinstance(tree, Exception) or isinstance(vm, Exception):
            return
        if isinstance(tree, fa.Vector) and isinstance(vm, fa.Vector) and tree.xs == vm.xs:
            return  # what same_value would conclude, at C speed
        if not fa.same_value(tree, vm):
            self.wrong_result(f"{label}: tree and vm disagree")


# ---------------------------------------------------------------------------
# API workloads: expressions built with params/builtin, called directly.

class ApiWorkload:
    """Expressions evaluated with `evaluate` (tree) and `run` (vm)."""

    name = ""
    exprs: tuple = ()  # (label, spec, nargs)
    ops_per_slice = 0  # 0: the whole op sequence is one timed batch

    def build(self) -> None:
        """Engine trees and compiled programs: the timed part of set-up."""
        self.trees = [to_tree(spec, n) for _, spec, n in self.exprs]
        self.programs = [fa.compile_expr(t) for t in self.trees]

    def draw(self, rng: random.Random) -> list:
        """[(expr index, host args)] for one pass; overridden per workload."""
        raise NotImplementedError

    def generate(self, seed: int) -> None:
        host_ops = self.draw(random.Random(seed))
        self.expected = [oracle.expect(self.exprs[e][1], args) for e, args in host_ops]
        self.ops = [(e, tuple(to_value(a) for a in args)) for e, args in host_ops]
        n = len(self.ops)
        step = self.ops_per_slice or n
        self.slices = [range(i, min(i + step, n)) for i in range(0, n, step)]

    def compile_targets(self) -> list:
        return self.trees

    def run_slice(self, backend: str, k: int) -> list:
        out = []
        if backend == "tree":
            trees, evaluate = self.trees, fa.evaluate
            for i in self.slices[k]:
                e, args = self.ops[i]
                try:
                    out.append(evaluate(trees[e], args))
                except Exception as err:  # counted as a failed op
                    out.append(err)
        else:
            programs, run = self.programs, fa.run
            for i in self.slices[k]:
                e, args = self.ops[i]
                try:
                    out.append(run(programs[e], args))
                except Exception as err:  # counted as a failed op
                    out.append(err)
        return out

    def check_slice(self, k: int, tree_out: list, vm_out: list, check: Check) -> None:
        for i, t, v in zip(self.slices[k], tree_out, vm_out):
            want, exact = self.expected[i]
            label = f"{self.exprs[self.ops[i][0]][0]} op {i}"
            check.one(label + " tree", t, want, exact)
            check.one(label + " vm", v, want, exact)
            check.agree(label, t, v)


class ScalarCalls(ApiWorkload):
    """Golden 2c, 2d, 3a, 3b and a 200-level composition chain at scalars."""

    name = "scalar-calls"
    exprs = (
        ("2c", GOLDEN_2C, 3),
        ("2d", GOLDEN_2D, 3),
        ("3a", GOLDEN_3A, 1),
        ("3b", GOLDEN_3B, 1),
        ("chain200", chain(200), 1),
    )
    POINTS = 24
    ops_per_slice = 30

    def draw(self, rng):
        ops = []
        for _ in range(self.POINTS):
            xyz = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 4))
            ops.append((0, xyz))
            ops.append((1, xyz))
            ops.append((2, (rng.uniform(-2, 2),)))
            ops.append((3, (rng.uniform(0.2, 1.2),)))  # keeps 3b's logs in domain
            ops.append((4, (rng.uniform(-3, 3),)))
        return ops


def _complex(rng):
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def _quat(rng):
    return Quat(*(rng.uniform(-2, 2) for _ in range(4)))


class TowerCalls(ApiWorkload):
    """The section 21 quaternion example and golden 2c at complex and
    quaternion points."""

    name = "tower-calls"
    exprs = (("21", GOLDEN_21, 2), ("2c", GOLDEN_2C, 3))
    POINTS = 32

    def draw(self, rng):
        ops = []
        for _ in range(self.POINTS):
            ops.append((0, (_complex(rng), _complex(rng))))
            ops.append((0, (_quat(rng), _quat(rng))))
            ops.append((1, (_complex(rng), _complex(rng), _complex(rng))))
            ops.append((1, (_quat(rng), _quat(rng), _quat(rng))))
        return ops


class WideVectors(ApiWorkload):
    """Golden 2a and 2b and a Sin/Cumsum composition on long vectors."""

    name = "wide-vectors"
    exprs = (("2a", GOLDEN_2A, 1), ("2b", GOLDEN_2B, 1), ("sin-cumsum", SIN_CUMSUM, 1))
    RANGE_LENGTHS = (10_000, 100_000)
    FLOATS_LENGTH = 10_000
    ops_per_slice = 1

    def draw(self, rng):
        # one 1e5-element input only: a pass stays short enough to time
        # every op many times in a run
        vectors = []
        for n in self.RANGE_LENGTHS:
            lo = rng.randint(-200, 1)  # a 1:N-style range that contains x = 1
            vectors.append([float(v) for v in range(lo, lo + n)])
        vectors.append([rng.uniform(-50, 50) for _ in range(self.FLOATS_LENGTH)])
        return [(e, (v,)) for v in vectors for e in range(len(self.exprs))]


# ---------------------------------------------------------------------------
# script-session: a generated script run through one Session per backend.

_NUM = r"(?:NaN|Inf|\d[\d.]*(?:e[+-]\d+)?)"
_COMPLEX_RE = re.compile(rf"^(-?{_NUM})([+-])({_NUM})i$")
_QUAT_RE = re.compile(rf"^(-?{_NUM})([+-])({_NUM})i([+-])({_NUM})j([+-])({_NUM})k$")


_SPECIAL = {"NaN": math.nan, "Inf": math.inf, "-Inf": -math.inf}


def _real(text: str) -> float:
    return _SPECIAL[text] if text in _SPECIAL else float(text)


def parse_printed(line: str):
    """Host value of one line printed by Session at 17 digits."""
    if line.startswith("["):
        return [_real(t) for t in line[1:-1].split()]
    m = _QUAT_RE.match(line)
    if m:
        w, s1, x, s2, y, s3, z = m.groups()
        sign = {"+": 1.0, "-": -1.0}
        return Quat(_real(w), sign[s1] * _real(x), sign[s2] * _real(y), sign[s3] * _real(z))
    m = _COMPLEX_RE.match(line)
    if m:
        re_, s, im = m.groups()
        return complex(_real(re_), (1.0 if s == "+" else -1.0) * _real(im))
    return _real(line)


def _lit(rng, lo=0.25, hi=3.0) -> float:
    return round(rng.uniform(lo, hi), 2)


class ScriptGenerator:
    """Paper-style script: constants, definitions, aliases, evaluations.

    Each definition calls at most one earlier user definition, once, and
    chains are at most MAX_DEPTH deep: `evaluate` shares no work, so two
    calls per definition make statement cost grow exponentially.  Bodies
    of even-numbered definitions avoid builtins so that they can be
    evaluated at complex and quaternion points; divisors are literals.
    Statement kinds, body sizes, call depths and argument kinds follow a
    fixed pattern and only the details are drawn, so the cost of a pass
    varies little between seeds.
    """

    PATTERN = ("const", "def", "def", "alias", "eval", "def", "eval", "eval", "eval", "eval")
    CYCLES = 50
    MAX_DEPTH = 3
    BODY_SIZE = 3
    VECTOR_LEN = 5
    BUILTINS = ("Sin", "Cos", "Atan", "Tanh", "Abs")
    KINDS = ("scalar", "vector", "complex", "quaternion")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.consts: list[tuple[str, float]] = []
        self.funcs: list[dict] = []  # name, arity, spec, tower, depth, uses
        self.lines: list[str] = []
        self.expected: list = []  # (value, exact) for eval lines, else None
        self.n_evals = 0
        for _ in range(self.CYCLES):
            for kind in self.PATTERN:
                getattr(self, "_" + kind)()

    def _emit(self, text, expected=None):
        self.lines.append(text)
        self.expected.append(expected)

    def _const(self):
        rng, name = self.rng, f"c{len(self.consts)}"
        value = _lit(rng)
        if self.consts and rng.random() < 0.5:
            other, v = rng.choice(self.consts)
            lit = _lit(rng)
            op = rng.choice("+*")
            value = v + lit if op == "+" else v * lit
            self._emit(f"{name} = {other} {op} {lit!r}")
        else:
            self._emit(f"{name} = {value!r}")
        self.consts.append((name, value))

    def _expr(self, size, params, tower):
        """(text, spec) of a random body expression over `params`."""
        rng = self.rng
        if size == 0:
            r = rng.random()
            if r < 0.6:
                i = rng.randrange(len(params))
                return params[i], ("arg", i)
            if r < 0.8 or not self.consts:
                v = _lit(rng)
                return repr(v), C(v)
            name, v = rng.choice(self.consts)
            return name, C(v)
        r = rng.random()
        if not tower and r < 0.3:
            name = rng.choice(self.BUILTINS)
            t, s = self._expr(size - 1, params, tower)
            return f"{name}({t})", call(("prim", name.lower()), s)
        if r < 0.4:
            t, s = self._expr(size - 1, params, tower)
            return f"({t})^2", B("^", s, C(2.0))
        if r < 0.5:
            t, s = self._expr(size - 1, params, tower)
            v = _lit(rng)
            return f"({t} / {v!r})", B("/", s, C(v))
        op = rng.choice("+-*")
        left = rng.randint(0, size - 1)
        ta, sa = self._expr(left, params, tower)
        tb, sb = self._expr(size - 1 - left, params, tower)
        return f"({ta} {op} {tb})", B(op, sa, sb)

    def _pick(self, depth: int, tower: bool) -> dict | None:
        """A least-used user definition of the given depth (usable at complex
        and quaternion points if `tower`), ties broken at random; spreading
        uses evenly keeps the cost of a pass steady across seeds."""
        fits = [f for f in self.funcs if f["depth"] == depth and (f["tower"] or not tower)]
        if not fits:
            return None
        least = min(f["uses"] for f in fits)
        f = self.rng.choice([f for f in fits if f["uses"] == least])
        f["uses"] += 1
        return f

    def _def(self):
        rng, k = self.rng, len(self.funcs)
        tower = k % 2 == 0
        arity = 1 + (k // 2) % 2
        params = ("x", "y")[:arity]
        text, spec = self._expr(self.BODY_SIZE, params, tower)
        callee = self._pick(k % self.MAX_DEPTH, tower)
        if callee is not None:  # exactly one call of an earlier definition
            args = [self._expr(0, params, tower) for _ in range(callee["arity"])]
            op = rng.choice("+-*")
            text = f"({text} {op} {callee['name']}({', '.join(t for t, _ in args)}))"
            spec = B(op, spec, ("call", callee["spec"], tuple(s for _, s in args)))
        depth = 1 + (callee["depth"] if callee else 0)
        name = f"f{k}"
        self._emit(f"{name}({', '.join(params)}) = {text}")
        self.funcs.append(dict(name=name, arity=arity, spec=spec, tower=tower, depth=depth,
                               uses=0))

    def _alias(self):
        rng = self.rng
        f = rng.choice([f for f in self.funcs if f["depth"] < self.MAX_DEPTH])
        name = f"h{len(self.lines)}"
        op = rng.choice("+-*")
        if f["arity"] == 1 and not f["tower"]:
            b = rng.choice(self.BUILTINS)
            other_t, other_s = b, ("prim", b.lower())
        else:
            v = _lit(rng)
            other_t, other_s = repr(v), C(v)
        self._emit(f"{name} = {f['name']} {op} {other_t}")
        self.funcs.append(dict(name=name, arity=f["arity"], spec=B(op, f["spec"], other_s),
                               tower=f["tower"], depth=f["depth"], uses=0))

    def _arg(self, kind):
        rng = self.rng
        if kind == "scalar":
            if self.consts and rng.random() < 0.3:
                name, v = rng.choice(self.consts)
                return name, C(v)
            v = round(rng.uniform(-2, 2), 2)
            return repr(v), C(v)
        if kind == "vector":
            vs = [round(rng.uniform(-2, 2), 2) for _ in range(self.VECTOR_LEN)]
            return "[" + ", ".join(map(repr, vs)) + "]", C(vs)
        a = round(rng.uniform(-1.5, 1.5), 2)
        text, spec = repr(a), C(a)
        units = (("im", 1j),) if kind == "complex" else (
            ("qi", Quat(0.0, 1.0, 0.0, 0.0)), ("qj", Quat(0.0, 0.0, 1.0, 0.0)),
            ("qk", Quat(0.0, 0.0, 0.0, 1.0)))
        for unit, u in units:
            b, op = _lit(rng, 0.25, 1.5), rng.choice("+-")
            text += f" {op} {b!r}*{unit}"
            spec = B(op, spec, B("*", C(b), C(u)))
        return f"({text})", spec

    def _eval(self):
        rng = self.rng
        kind = self.KINDS[self.n_evals % len(self.KINDS)]
        tower = kind in ("complex", "quaternion")
        f = self._pick(1 + self.n_evals % self.MAX_DEPTH, tower) or self._pick(1, tower)
        self.n_evals += 1
        text, spec = f["name"], f["spec"]
        wrap = (self.n_evals // len(self.KINDS)) % 3  # none, a builtin, a literal
        if wrap == 1 and f["arity"] == 1 and not tower:
            b, op = rng.choice(self.BUILTINS), rng.choice("+-*")
            text, spec = f"({text} {op} {b})", B(op, spec, ("prim", b.lower()))
        elif wrap:
            v, op = _lit(rng), rng.choice("+-*")
            text, spec = f"({text} {op} {v!r})", B(op, spec, C(v))
        args = [self._arg(kind) for _ in range(f["arity"])]
        text = f"{text}({', '.join(t for t, _ in args)})"
        value, exact = oracle.expect(("call", spec, tuple(s for _, s in args)), (0.0,))
        self._emit(text, (value, exact))


class _Lines(io.StringIO):
    """Session output sink; `take()` returns and clears what was printed."""

    def take(self) -> list[str]:
        lines = self.getvalue().splitlines()
        self.seek(0)
        self.truncate()
        return lines


class ScriptSession:
    """A seeded few-hundred-statement script, one Session per backend."""

    name = "script-session"
    LINES_PER_SLICE = 50

    def build(self) -> None:
        self.out = {b: _Lines() for b in ("tree", "vm")}
        self.sessions = {
            b: fa.Session(fa.SessionConfig(backend=b, digits=17), out=self.out[b])
            for b in ("tree", "vm")
        }

    def generate(self, seed: int) -> None:
        gen = ScriptGenerator(random.Random(seed))
        self.lines, self.expected = gen.lines, gen.expected
        n = len(self.lines)
        self.ops = self.lines
        self.slices = [range(i, min(i + self.LINES_PER_SLICE, n))
                       for i in range(0, n, self.LINES_PER_SLICE)]

    def parsed(self) -> tuple[list, dict]:
        """Each line's (tokens, statement), parsed against the environment
        of a scratch Session that runs the script alongside, and each
        definition's body keyed by the leaf that session binds to its name
        (so a walk can follow calls into definitions)."""
        scratch = fa.Session(fa.SessionConfig(), out=io.StringIO())
        lines, bodies = [], {}
        for line in self.lines:
            tokens = fa.tokenize(line)
            stmt = fa.parse_statement(tokens, scratch.env)
            scratch.execute_line(line)
            if isinstance(stmt, fa.FunctionDef):
                bodies[scratch.env.lookup(stmt.name)] = stmt.body
            lines.append((tokens, stmt))
        return lines, bodies

    def compile_targets(self) -> list:
        """Trees of the evaluation lines, as the vm backend compiles them."""
        return [stmt.expr for _, stmt in self.parsed()[0]
                if isinstance(stmt, fa.BareExpression)]

    def run_slice(self, backend: str, k: int) -> tuple[list[str], set]:
        execute, lines = self.sessions[backend].execute_line, self.lines
        failed = set()
        for i in self.slices[k]:
            try:
                execute(lines[i])
            except Exception:  # counted as a failed op
                failed.add(i)
        return self.out[backend].take(), failed

    def check_slice(self, k: int, tree_out, vm_out, check: Check) -> None:
        results = {}
        for backend, (printed, failed) in (("tree", tree_out), ("vm", vm_out)):
            printed = iter(printed)
            for i in self.slices[k]:
                check.attempted += 1
                if i in failed:
                    check.failed += 1
                    continue
                want = self.expected[i]
                if want is None:
                    continue
                line = next(printed, None)
                if line is None:
                    check.wrong_result(f"line {i} {backend}: printed nothing")
                    continue
                got = parse_printed(line)
                results.setdefault(i, []).append(got)
                if not oracle.matches(got, *want):
                    check.wrong_result(f"line {i} {backend}: {self.lines[i]!r} printed {line}")
            if next(printed, None) is not None:
                check.wrong_result(f"slice {k} {backend}: unexpected output")
        for i, pair in results.items():
            if len(pair) == 2 and not fa.same_value(to_value(pair[0]), to_value(pair[1])):
                check.wrong_result(f"line {i}: tree and vm disagree")


WORKLOADS = {w.name: w for w in (ScalarCalls, TowerCalls, WideVectors, ScriptSession)}
