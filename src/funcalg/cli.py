"""Operator-facing front end: REPL, one-shot evaluation and script runner.

Exit statuses: 0 success, 1 lex/parse error, 2 evaluation error (or any
other exception from a line, reported in one line), 3 script file not
readable.  Results go to stdout (one per line), diagnostics to
stderr.  Bench reports are emitted as one JSON object per backend.

REPL commands:

    :quit                 leave the session
    :env                  list user bindings
    :ast <expr>           show the canonical parenthesized form
    :bench <expr>(<args>) time tree vs vm backends on a call
    :backend tree|vm|check
    :digits N             print precision (1..17)
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .algebra import Apply, Arity, Def, FuncExpr, evaluate_constant
from .errors import (
    ArityMismatchError,
    FuncalgError,
    LexError,
    NestingError,
    ParseError,
)
from .parser import (
    BareExpression,
    ConstDef,
    Env,
    FunctionDef,
    ReplCommand,
    parse_command,
    parse_expression,
    parse_statement,
    print_expr,
    statement_runs,
    tokenize,
)
from .values import Scalar, Value, format_value
from .vm import bench, check_agreement, compile_expr, run

BACKENDS = ("tree", "vm", "check")


@dataclass
class SessionConfig:
    backend: str = "tree"
    digits: int = 7
    bench_iterations: int = 100_000

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {', '.join(BACKENDS)}")
        if not 1 <= self.digits <= 17:
            raise ValueError("digits must be between 1 and 17")
        if self.bench_iterations < 1:
            raise ValueError("bench iterations must be at least 1")


class Session:
    """One environment plus configuration; executes statement lines."""

    def __init__(self, config: SessionConfig | None = None, out=None):
        self.config = config or SessionConfig()
        self.env = Env()
        self.out = out if out is not None else sys.stdout

    def execute_line(self, text: str, line_no: int = 1) -> bool:
        """Run one input line (possibly several ';'-separated statements).

        Returns False when the line asked to quit, True otherwise."""
        try:
            command = parse_command(text, line_no)
            if command is not None:
                return self._run_command(command, text, line_no)
            for tokens in statement_runs(tokenize(text, line_no)):
                self._run_statement(parse_statement(tokens, self.env))
        except RecursionError:
            raise FuncalgError(f"line {line_no}: expression nested too deeply") from None
        return True

    # -- statements

    def _run_statement(self, stmt) -> None:
        if isinstance(stmt, FunctionDef):
            n = len(stmt.params) or stmt.body.arity.n
            self.env.define(stmt.name, Def(stmt.name, Arity(n), stmt.body))
        elif isinstance(stmt, ConstDef):
            self.env.define(stmt.name, stmt.value)
        elif isinstance(stmt, BareExpression):
            expr = stmt.expr
            if expr.arity.is_fixed:
                self._print(f"<function/{expr.arity.n}> {print_expr(expr)}")
            else:
                self._print(format_value(self._eval_tree(expr), self.config.digits))
        else:
            raise TypeError(f"unknown statement {stmt!r}")

    def _eval_tree(self, tree: FuncExpr) -> Value:
        dummy = (Scalar(0.0),)
        backend = self.config.backend
        if backend == "tree":
            return evaluate_constant(tree)
        if backend == "vm":
            return run(compile_expr(tree), dummy)
        return check_agreement(evaluate_constant(tree), run(compile_expr(tree), dummy))

    # -- commands

    def _run_command(self, cmd: ReplCommand, text: str, line_no: int) -> bool:
        name = cmd.name.lower()
        # an argument is parsed, and its errors located, where it stands in the line
        col = len(text.rstrip()) - len(cmd.args) + 1
        args = " " * (col - 1) + cmd.args
        at = f"line {line_no}, column {col}: "
        if name == "quit":
            return False
        if name == "env":
            for key, binding in sorted(self.env.bindings().items()):
                if isinstance(binding, Value):
                    self._print(f"{key} = {format_value(binding, self.config.digits)}")
                else:
                    self._print(f"{key} = <function/{binding.arity.n}>")
            return True
        if name == "ast":
            self._print(print_expr(parse_expression(args, self.env, line_no)))
            return True
        if name == "backend":
            choice = cmd.args.strip()
            if choice not in BACKENDS:
                raise ParseError(f"{at}backend must be one of {', '.join(BACKENDS)}")
            self.config.backend = choice
            return True
        if name == "digits":
            try:
                digits = int(cmd.args.strip())
            except ValueError:
                raise ParseError(f"{at}':digits' needs an integer") from None
            if not 1 <= digits <= 17:
                raise ParseError(f"{at}digits must be between 1 and 17")
            self.config.digits = digits
            return True
        if name == "bench":
            tree = parse_expression(args, self.env, line_no)
            if not (isinstance(tree, Apply) and not tree.arity.is_fixed):
                raise ParseError(
                    f"{at}':bench' needs a call with constant arguments, "
                    "e.g. :bench (f+g)(1.5)"
                )
            argvals = [evaluate_constant(a) for a in tree.args]
            for report in bench(tree.callee, argvals, self.config.bench_iterations):
                self._print(report.as_json(self.config.digits))
            return True
        col = len(text) - len(text.lstrip()) + 1
        raise ParseError(f"line {line_no}, column {col}: unknown command ':{cmd.name}'")

    def _print(self, line: str) -> None:
        print(line, file=self.out)


def _status_of(err: FuncalgError) -> int:
    if isinstance(err, NestingError):
        return 2  # a resource limit, like a tree too deep to evaluate
    if isinstance(err, (LexError, ParseError, ArityMismatchError)):
        return 1
    return 2


def _execute(session: Session, text: str, line_no: int = 1) -> bool:
    """`session.execute_line`, with any other exception turned into a
    one-line `FuncalgError` that names its type (exit status 2)."""
    try:
        return session.execute_line(text, line_no)
    except FuncalgError:
        raise
    except Exception as err:
        raise FuncalgError(f"line {line_no}: {type(err).__name__}: {err}") from err


def _eval_in(session: Session, text: str) -> int:
    try:
        _execute(session, text)
    except FuncalgError as err:
        print(err, file=sys.stderr)
        return _status_of(err)
    return 0


def _run_script_in(session: Session, path: str) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        print(f"cannot read script '{path}': {err}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as err:
        print(f"script '{path}' is not UTF-8: {err}", file=sys.stderr)
        return 3
    for line_no, line in enumerate(text.splitlines(), 1):
        try:
            if not _execute(session, line, line_no):
                break
        except FuncalgError as err:
            print(f"{path}: {err}", file=sys.stderr)
            return _status_of(err)
    return 0


def _repl_in(session: Session) -> int:
    interactive = sys.stdin.isatty()
    if interactive:
        print("funcalg 0.1.0 (:quit to exit)")
    line_no = 0
    while True:
        if interactive:
            print("> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        line_no += 1
        try:
            if not _execute(session, line.rstrip("\n"), line_no):
                break
        except FuncalgError as err:
            print(err, file=sys.stderr)
        except KeyboardInterrupt:  # Ctrl-C ends the line, not the session
            print(f"line {line_no}: interrupted", file=sys.stderr)
    return 0


def run_repl(config: SessionConfig) -> int:
    """Interactive read-parse-evaluate-print loop; errors, and Ctrl-C during
    a line, keep the loop alive."""
    return _repl_in(Session(config))


def eval_once(config: SessionConfig, text: str) -> int:
    """Evaluate one expression line and print its result."""
    return _eval_in(Session(config), text)


def run_script(config: SessionConfig, path: str) -> int:
    """Execute a script of statements in one environment, stopping at the
    first error (diagnostics carry the script line number)."""
    return _run_script_in(Session(config), path)


def _joined_eval(argv: list[str]) -> list[str]:
    """argv with `-e EXPR` and `--eval EXPR` as `--eval=EXPR`, so that an EXPR
    starting with "-" (-2^2, say) is taken as it stands, not as an option."""
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in ("-e", "--eval") else None
        out.append(arg if value is None else f"--eval={value}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="funcalg",
        description="Function algebra engine: arithmetic on functions, "
        "composition by application, and a quaternion-aware numeric tower.",
    )
    ap.add_argument(
        "mode",
        nargs="?",
        choices=["repl"],
        help="force an interactive session after any scripts run",
    )
    ap.add_argument("-e", "--eval", metavar="EXPR", help="evaluate one expression")
    ap.add_argument(
        "-f",
        "--script",
        action="append",
        default=[],
        metavar="PATH",
        help="run a script (repeatable; executed in order before --eval or the REPL)",
    )
    ap.add_argument("--backend", choices=BACKENDS, default="tree")
    ap.add_argument("--digits", type=int, default=7, help="print precision (1..17)")
    ap.add_argument(
        "--bench",
        type=int,
        default=100_000,
        metavar="ITERS",
        help="iteration count used by :bench",
    )
    args = ap.parse_args(_joined_eval(sys.argv[1:] if argv is None else argv))

    try:
        config = SessionConfig(
            backend=args.backend, digits=args.digits, bench_iterations=args.bench
        )
    except ValueError as err:
        ap.error(str(err))

    session = Session(config)
    for path in args.script:
        status = _run_script_in(session, path)
        if status != 0:
            return status
    if args.eval is not None:
        return _eval_in(session, args.eval)
    if args.script and args.mode != "repl":
        return 0
    return _repl_in(session)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
