"""CLI front end: eval, scripts, REPL loop, backends and exit codes."""

import io
import json
import subprocess
import sys

import pytest

from funcalg import FuncalgError, Session, SessionConfig, eval_once, lift_function, main, run_repl, run_script
from funcalg.cli import _eval_in, _repl_in


def _config(**kw):
    return SessionConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(backend="llvm")
    with pytest.raises(ValueError):
        SessionConfig(digits=0)
    with pytest.raises(ValueError):
        SessionConfig(digits=18)
    with pytest.raises(ValueError):
        SessionConfig(bench_iterations=0)


def test_eval_once_prints_result(capsys):
    assert eval_once(_config(), "(Sin+Cos)(0)") == 0
    assert capsys.readouterr().out == "1\n"


def test_eval_once_parse_error(capsys):
    assert eval_once(_config(), "1 +") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1" in captured.err


def test_eval_once_eval_error(capsys):
    assert eval_once(_config(), "[1,2] + [1,2,3]") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "length" in captured.err.lower()


def test_function_display(capsys):
    assert eval_once(_config(), "Sin + Cos") == 0
    assert capsys.readouterr().out == "<function/1> (Sin + Cos)\n"


def test_digits_config(capsys):
    assert eval_once(_config(digits=3), "pi") == 0
    assert capsys.readouterr().out == "3.14\n"


def test_definitions_print_nothing(capsys):
    session = Session(_config())
    session.execute_line("f(x) = x^2")
    session.execute_line("x0 = 2")
    assert capsys.readouterr().out == ""
    session.execute_line("f(x0 + 1)")
    assert capsys.readouterr().out == "9\n"


def test_rebinding_user_names(capsys):
    session = Session(_config())
    session.execute_line("f(x) = x^2")
    session.execute_line("g(x) = f(x) + 1")
    session.execute_line("f(x) = x^3")  # does not affect g (early binding)
    session.execute_line("g(2); f(2)")
    assert capsys.readouterr().out == "5\n8\n"


def test_run_script_golden(tmp_path, capsys):
    script = tmp_path / "defs.fa"
    script.write_text(
        "f(x) = x^2\n"
        "g(x) = 1/(1-x)\n"
        "# bare expressions print\n"
        "(f+g)(1:10)\n"
    )
    assert run_script(_config(), str(script)) == 0
    out = capsys.readouterr().out
    assert out == "[Inf 3 8.5 15.66667 24.75 35.8 48.83333 63.85714 80.875 99.88889]\n"


def test_run_script_empty(tmp_path, capsys):
    script = tmp_path / "empty.fa"
    script.write_text("")
    assert run_script(_config(), str(script)) == 0
    assert capsys.readouterr().out == ""


def test_run_script_missing_file(capsys):
    assert run_script(_config(), "/no/such/file.fa") == 3
    assert "cannot read" in capsys.readouterr().err


def test_run_script_error_names_line(tmp_path, capsys):
    script = tmp_path / "bad.fa"
    script.write_text("f(x) = x^2\ng(x) = x + 1\nf(2) + nope\n")
    assert run_script(_config(), str(script)) == 1
    assert "line 3" in capsys.readouterr().err


def test_run_script_stops_at_first_error(tmp_path, capsys):
    script = tmp_path / "stop.fa"
    script.write_text("1 + 1\nundefined_name\n2 + 2\n")
    assert run_script(_config(), str(script)) == 1
    captured = capsys.readouterr()
    assert captured.out == "2\n"  # first line ran, third never did


def test_eval_error_exit_code_from_script(tmp_path, capsys):
    script = tmp_path / "len.fa"
    script.write_text("[1,2] + [1,2,3]\n")
    assert run_script(_config(), str(script)) == 2


def test_repl_loop(monkeypatch, capsys):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO("f(x) = x^2\nf(3)\nbroken +\nf(4)\n:quit\nf(5)\n")
    )
    assert run_repl(_config()) == 0
    captured = capsys.readouterr()
    assert captured.out == "9\n16\n"  # loop survived the error, quit stopped it
    assert captured.err == "line 3, column 1: unknown identifier 'broken'\n"


def test_repl_numbers_each_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 + 1\n2 +\n"))
    assert run_repl(_config()) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    assert captured.err == "line 2, column 4: expected expression\n"


def test_repl_commands(monkeypatch, capsys):
    lines = (
        "f(x) = x^2\n"
        "x0 = 1.5\n"
        ":env\n"
        ":ast (f + Sin)(2)\n"
        ":digits 3\n"
        "pi\n"
        ":backend vm\n"
        "f(3)\n"
        ":backend check\n"
        "f(4)\n"
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
    assert run_repl(_config()) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "f = <function/1>",
        "x0 = 1.5",
        "(f + Sin)(2.0)",
        "3.14",
        "9",
        "16",
    ]


def test_repl_command_errors_keep_the_loop(monkeypatch, capsys):
    lines = ":nosuch\n:backend warp\n:digits many\n:digits 99\n1+1\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
    assert run_repl(_config()) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    assert captured.err.count("\n") == 4


def test_command_arguments_are_located_in_their_line(monkeypatch, capsys):
    lines = (
        "1\n:ast 1 +\n  :bench f(\n:ast\n:backend warp\n:digits x\n"
        ":nosuch\n:bench 1+2\n  :\n :digits 99\n"
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
    assert run_repl(_config()) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert captured.err.splitlines() == [
        "line 2, column 9: expected expression",
        "line 3, column 10: unknown identifier 'f'",
        "line 4, column 1: expected expression",
        "line 5, column 10: backend must be one of tree, vm, check",
        "line 6, column 9: ':digits' needs an integer",
        "line 7, column 1: unknown command ':nosuch'",
        "line 8, column 8: ':bench' needs a call with constant arguments, "
        "e.g. :bench (f+g)(1.5)",
        "line 9, column 3: missing command name after ':'",
        "line 10, column 10: digits must be between 1 and 17",
    ]


def test_bench_command_emits_json(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("f(x) = x^2\n:bench f(2)\n"))
    assert run_repl(_config(bench_iterations=5)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    reports = [json.loads(line) for line in lines]
    assert [r["backend"] for r in reports] == ["tree", "vm"]
    assert all(r["iterations"] == 5 for r in reports)
    assert all(r["result"] == "4" for r in reports)


def test_bench_command_needs_a_call(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(":bench 1 + 1\n"))
    run_repl(_config())
    assert "call" in capsys.readouterr().err


def test_main_scripts_then_eval(tmp_path, capsys):
    script = tmp_path / "defs.fa"
    script.write_text(
        "f(x,y,z) = x + x*y - x/z\n"
        "g(x,y,z) = x^2 - z\n"
    )
    status = main(["-f", str(script), "-e", "((f + g)*(f + 4 - 2*f*g))(1.2, 1.7, 4.3)"])
    assert status == 0
    assert capsys.readouterr().out == "2.411975\n"


def test_main_script_only_exits_without_repl(tmp_path, capsys):
    script = tmp_path / "one.fa"
    script.write_text("1 + 1\n")
    assert main(["-f", str(script)]) == 0
    assert capsys.readouterr().out == "2\n"


def test_main_script_failure_stops_pipeline(tmp_path, capsys):
    bad = tmp_path / "bad.fa"
    bad.write_text("nope\n")
    assert main(["-f", str(bad), "-e", "1+1"]) == 1
    assert capsys.readouterr().out == ""


def test_main_eval_takes_an_expression_that_starts_with_minus(capsys):
    assert main(["-e", "-2^2"]) == 0
    assert capsys.readouterr().out == "-4\n"
    assert main(["--digits", "3", "--eval", "-pi"]) == 0
    assert capsys.readouterr().out == "-3.14\n"
    assert main(["-e", "-", "--digits", "3"]) == 1  # "-" is the expression, not an option
    assert "expected expression" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["-e"])  # a bare trailing -e is still a usage error
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_main_backend_flag(tmp_path, capsys):
    script = tmp_path / "defs.fa"
    script.write_text("f(x) = x^2\nf(1:4)\n")
    for backend in ("tree", "vm", "check"):
        assert main(["--backend", backend, "-f", str(script)]) == 0
        assert capsys.readouterr().out == "[1 4 9 16]\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "funcalg", "-e", "(Sin+Cos)(0)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


DEEP = "(" * 400 + "1" + ")" * 400  # beyond the recursive parser's reach


def test_deep_nesting_is_a_one_line_error(capsys):
    assert eval_once(_config(), DEEP) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "nested too deeply" in captured.err


def test_deep_nesting_stops_a_script(tmp_path, capsys):
    script = tmp_path / "deep.fa"
    script.write_text(f"1 + 1\n{DEEP}\n2 + 2\n")
    assert run_script(_config(), str(script)) == 2
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    assert captured.err.count("\n") == 1 and "line 2" in captured.err


def test_repl_survives_deep_nesting(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{DEEP}\n1 + 1\n"))
    assert run_repl(_config()) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    assert "nested too deeply" in captured.err


@pytest.mark.parametrize("backend", ["tree", "vm", "check"])
def test_a_long_definition_chain_is_an_error_and_the_session_survives(backend):
    out = io.StringIO()
    session = Session(_config(backend=backend), out=out)
    session.execute_line("f0(x) = x + 1")
    for i in range(1, 3000):
        session.execute_line(f"f{i}(x) = f{i - 1}(x) + 1")
    with pytest.raises(FuncalgError):
        session.execute_line("f2999(0)")
    session.execute_line("1 + 1")
    assert out.getvalue() == "2\n"


def _fail_once(monkeypatch, exc):
    """Make the first statement a session runs raise `exc`."""
    original = Session._run_statement
    calls = []

    def run_statement(self, stmt):
        calls.append(stmt)
        if len(calls) == 1:
            raise exc
        return original(self, stmt)

    monkeypatch.setattr(Session, "_run_statement", run_statement)


def test_eval_reports_an_unexpected_exception_in_one_line(monkeypatch, capsys):
    _fail_once(monkeypatch, ValueError("math domain error"))
    assert eval_once(_config(), "1 + 1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "line 1: ValueError: math domain error\n"


def test_script_stops_at_an_unexpected_exception(monkeypatch, tmp_path, capsys):
    script = tmp_path / "s.fa"
    script.write_text("1 + 1\n2 + 2\n")
    _fail_once(monkeypatch, ValueError("boom"))
    assert run_script(_config(), str(script)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{script}: line 1: ValueError: boom\n"


def test_repl_survives_an_unexpected_exception(monkeypatch, capsys):
    _fail_once(monkeypatch, ValueError("boom"))
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 + 1\n2 + 2\n"))
    assert run_repl(_config()) == 0
    captured = capsys.readouterr()
    assert captured.out == "4\n"
    assert captured.err == "line 1: ValueError: boom\n"


def test_repl_survives_a_keyboard_interrupt_inside_a_line(monkeypatch, capsys):
    def stop(v):
        raise KeyboardInterrupt

    session = Session(_config())
    session.env.define("stop", lift_function("stop", 1, stop))
    monkeypatch.setattr(sys, "stdin", io.StringIO("stop(1)\n1 + 1\n"))
    assert _repl_in(session) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    assert captured.err == "line 1: interrupted\n"


@pytest.mark.parametrize("backend", ["tree", "vm", "check"])
def test_a_leafs_own_exception_is_reported_in_one_line(backend, capsys):
    def fails(v):
        raise ZeroDivisionError("host leaf failed")

    session = Session(_config(backend=backend))
    session.env.define("fails", lift_function("fails", 1, fails))
    assert _eval_in(session, "fails(2) + 1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "line 1: ZeroDivisionError: host leaf failed\n"


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    _fail_once(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        eval_once(_config(), "1 + 1")


def test_a_script_that_is_not_utf8_exits_3(tmp_path, capsys):
    script = tmp_path / "latin1.fa"
    script.write_bytes("1 + 1 # caf\xe9\n".encode("latin-1"))
    assert main(["-f", str(script)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "is not UTF-8" in captured.err


def test_quit_stops_a_script_with_status_0(tmp_path, capsys):
    script = tmp_path / "quit.fa"
    script.write_text("1 + 1\n:quit\n2 + 2\n")
    assert main(["-f", str(script)]) == 0
    assert capsys.readouterr().out == "2\n"


def test_an_invalid_config_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--digits", "0", "-e", "1"])
    assert exit_info.value.code == 2
    assert "digits" in capsys.readouterr().err


def test_main_without_arguments_reads_the_repl_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 * 3\n"))
    assert main([]) == 0
    assert capsys.readouterr().out == "6\n"
