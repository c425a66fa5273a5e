import gc
import io
import os
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import fraglang

from fraglang import cli
from fraglang.cli import main
from goldens import EVAL_EXP_SEXPR, EXP_TEXT, PRESERVED_SEXPR, WT_EXP_SEXPR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_worked_example(capsys):
    code, out, _ = run(capsys, "check", EXP_TEXT)
    assert code == 0
    assert out.splitlines() == ["TOption", WT_EXP_SEXPR]


def test_check_ill_typed(capsys):
    code, out, _ = run(capsys, "check", "0 + nil")
    assert code == 1
    assert out.strip() == "ill-typed"


def test_check_syntax_error(capsys):
    code, out, err = run(capsys, "check", "some(")
    assert code == 1
    assert "offset 5" in err


def test_eval_normal_form(capsys):
    code, out, _ = run(capsys, "eval", EXP_TEXT)
    assert code == 0
    assert out.strip() == "none"


def test_eval_trace(capsys):
    code, out, _ = run(capsys, "eval", EXP_TEXT, "--trace")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0] == f"--> nil[0] := 1 ! 1    {EVAL_EXP_SEXPR}"
    assert lines[1] == "--> none    (step[] lookup)"
    assert lines[2] == "none"


def test_eval_value_input(capsys):
    code, out, _ = run(capsys, "eval", "42")
    assert code == 0
    assert out.strip() == "42"


def test_eval_fuel_exhaustion(capsys):
    code, _, err = run(capsys, "eval", "1 + 2 + 3", "--fuel", "1")
    assert code == 1
    assert "fuel" in err


def test_eval_default_fuel_is_generous(capsys):
    expr = " + ".join(["1"] * 40)
    code, out, _ = run(capsys, "eval", expr)
    assert code == 0
    assert out.strip() == "40"


def test_preserve_prints_the_three_derivations(capsys):
    code, out, _ = run(capsys, "preserve", EXP_TEXT)
    assert code == 0
    assert out.splitlines() == [WT_EXP_SEXPR, EVAL_EXP_SEXPR, PRESERVED_SEXPR]


def test_preserve_on_normal_form_is_user_error(capsys):
    code, _, err = run(capsys, "preserve", "5")
    assert code == 1
    assert "normal form" in err


def test_preserve_on_ill_typed_is_user_error(capsys):
    code, out, _ = run(capsys, "preserve", "0 + nil")
    assert code == 1
    assert out.strip() == "ill-typed"


def test_oracle_diff(capsys):
    code, out, _ = run(capsys, "oracle-diff", "--depth", "1")
    assert code == 0
    assert out.startswith("PASS oracle-equivalence")


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--depth", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)


def test_depth_above_cap_is_user_error(capsys):
    code, _, err = run(capsys, "selftest", "--depth", "9")
    assert code == 1
    assert "cap" in err


def test_usage_error_is_user_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_escaping_exception_is_internal_error(capsys, monkeypatch):
    def boom(term):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "infer", boom)
    code, _, err = run(capsys, "check", "1 + 2")
    assert code == 2
    assert err.splitlines() == ["internal error: RuntimeError: boom (argv ['check', '1 + 2'])"]


def test_check_writes_no_partial_answer(capsys, monkeypatch):
    # The type is not written before the derivation that follows it renders.
    def overflow(derivation):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "render_derivation", overflow)
    code, out, err = run(capsys, "check", "some(1)")
    assert code == 2
    assert out == ""
    assert err.startswith("internal error: RecursionError")


def test_long_argument_is_echoed_cut_short(capsys, monkeypatch):
    def boom(term):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "infer", boom)
    arg = "1 + " * 30 + "1"
    code, _, err = run(capsys, "check", arg)
    assert code == 2
    assert err.splitlines() == [
        f"internal error: RuntimeError: boom (argv ['check', {arg[:cli.ECHO_CHARS]!r}… (121 chars)])"
    ]


def test_deep_input_exits_without_traceback(capsys):
    code, out, _ = run(capsys, "check", "(" * 3000 + "1" + ")" * 3000)
    assert code == 0
    assert out.splitlines()[0] == "TNat"
    # Options nested this deep still overflow the recursion in render.
    code, _, err = run(capsys, "check", "some(" * 1500 + "1" + ")" * 1500)
    assert code in (1, 2)
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert len(err.encode()) < 400


def test_check_takes_a_10000_term_chain():
    # infer runs the typing rows in a loop, and parse and render_derivation
    # keep explicit stacks, so check reaches no recursion limit on a chain.
    code, out, err = _run_first(["check", " + ".join(["1"] * 10_000)])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "TNat"


def test_preserve_takes_a_400_term_chain(capsys):
    n = 400
    code, out, _ = run(capsys, "preserve", " + ".join(["1"] * n))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("(lift-wt-sum (ok-sum " * (n - 2) + "(lift-wt-nat 2) (lift-wt-nat 1)")


def test_check_takes_an_800_term_chain(capsys):
    n = 800
    code, out, _ = run(capsys, "check", " + ".join(["1"] * n))
    assert code == 0
    assert out.splitlines() == [
        "TNat",
        "(lift-wt-sum (ok-sum " * (n - 1) + "(lift-wt-nat 1)" + " (lift-wt-nat 1)))" * (n - 1),
    ]


def test_check_takes_a_900_assignment_chain(capsys):
    # Left-nested: infer spends one frame a level on array premises, as on sums.
    code, out, _ = run(capsys, "check", "nil" + "[0] := 1" * 900)
    assert code == 0
    assert out.splitlines()[0] == "TArray"


# CPython's integer-string limit; 0 (or no such function) means none.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(LIMIT == 0, reason="no integer-string limit")


@needs_limit
def test_literal_past_the_limit_is_a_syntax_error(capsys):
    code, out, err = run(capsys, "check", "1" * (LIMIT + 700))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"syntax error: literal of {LIMIT + 700} digits is past the integer-string limit of {LIMIT} at offset 0"
    ]


@needs_limit
@pytest.mark.parametrize("command", ["eval", "preserve"])
def test_result_literal_past_the_limit_is_user_error(capsys, command):
    # The input literal is at the limit; its successor is one digit past it.
    code, _, err = run(capsys, command, "9" * LIMIT + " + 1")
    assert code == 1
    assert err.splitlines() == [f"error: a literal has more digits than the integer-string limit of {LIMIT}"]


@needs_limit
@pytest.mark.parametrize(
    "argv",
    [
        ("preserve", "9" * LIMIT + " + 1"),
        ("eval", "--trace", "0 + " + "9" * LIMIT + " + 1"),
    ],
)
def test_answer_past_the_limit_writes_no_partial_answer(capsys, argv):
    # Steps or derivations before the one that cannot print are not written.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: a literal has more digits than the integer-string limit of {LIMIT}"]


def test_non_decimal_digit_is_a_syntax_error(capsys):
    code, _, err = run(capsys, "check", "1 + ²")
    assert code == 1
    assert err.splitlines() == ["syntax error: unexpected character '²' at offset 4"]


@pytest.mark.parametrize(
    "argv",
    [
        ("selftest", "--depth", "-1"),
        ("oracle-diff", "--depth", "-3"),
        ("eval", "1+2", "--fuel", "-1"),
    ],
)
def test_negative_count_is_user_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "non-negative" in err


def _run_caught(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_first(argv):
    # The same call as the first one in a fresh interpreter.
    src = str(Path(fraglang.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from fraglang.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    return done.returncode, done.stdout, done.stderr


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    # Build the shared parser while other streams are installed, so the
    # calls below show that it reports on the streams current at the call.
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        main(["check", "1"])
    calls = [
        ["bogus"],
        ["check", "1 + 2"],
        ["eval", "1+2", "--trace"],
        ["eval", "1+2", "--fuel", "-1"],
    ]
    seen = [_run_caught(capsys, argv) for argv in calls]
    assert "invalid choice" in seen[0][2]
    assert seen == [_run_first(argv) for argv in calls]


def test_shared_parser_parses_from_several_threads():
    parser = cli._build_parser()
    argvs = [["eval", str(i), "--fuel", str(i)] for i in range(200)]
    results = [None] * 4

    def work(k):
        results[k] = [(ns.command, ns.expr, ns.fuel, ns.trace) for ns in map(parser.parse_args, argvs)]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = [("eval", str(i), i, False) for i in range(200)]
    assert results == [expected] * len(results)


@pytest.fixture(params=[True, False], ids=["caller-collects", "caller-disabled"])
def collector(request):
    """The caller's collector setting, with thresholds main must not touch."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(701, 11, 12)
    (gc.enable if request.param else gc.disable)()
    yield (request.param, (701, 11, 12))
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()


def _raise(exc):
    def command(args):
        raise exc

    return command


@pytest.mark.parametrize(
    "argv, command, code",
    [
        (["check", "1 + 2"], None, 0),
        (["check", "0 + nil"], None, 1),
        (["check", "1 + 2"], _raise(RuntimeError("boom")), 2),
        (["bogus"], None, SystemExit),
        (["check", "1 + 2"], _raise(KeyboardInterrupt()), KeyboardInterrupt),
    ],
    ids=["exit-0", "exit-1", "exit-2", "usage-error", "interrupt"],
)
def test_main_restores_the_callers_collector(capsys, monkeypatch, collector, argv, command, code):
    if command is not None:
        monkeypatch.setitem(cli._COMMANDS, argv[0], command)
    if isinstance(code, int):
        assert main(argv) == code
    else:
        with pytest.raises(code):
            main(argv)
    assert (gc.isenabled(), gc.get_threshold()) == collector


def test_command_runs_with_the_collector_off(capsys, monkeypatch, collector):
    seen = []

    def record(args):
        seen.append((gc.isenabled(), gc.get_threshold()))
        return 0

    monkeypatch.setitem(cli._COMMANDS, "check", record)
    assert main(["check", "1"]) == 0
    assert seen == [(False, collector[1])]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", EXP_TEXT], 0),
        (["eval", "--trace", "--fuel", "100", " + ".join(["1"] * 100)], 0),
        (["preserve", EXP_TEXT], 0),
        (["selftest", "--depth", "1"], 0),
        (["oracle-diff", "--depth", "1"], 0),
        # Overflows the recursion in render: the exit-2 path.
        (["check", "some(" * 1500 + "1" + ")" * 1500], 2),
    ],
    ids=["check", "eval-trace", "preserve", "selftest", "oracle-diff", "recursion-error"],
)
def test_command_leaves_no_cyclic_garbage(argv, code):
    # main turns the collector off because no command makes cycles; one
    # that starts to would grow memory until the caller's next collection.
    def quiet():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(argv)

    assert quiet() == code  # warms the caches a first call fills
    gc.collect()
    assert quiet() == code
    assert gc.collect() == 0


def test_overlapping_calls_restore_the_callers_collector(collector):
    # A call reads and switches the collector under one lock. Without it, a
    # call could read "off" while another runs, then switch the collector
    # off again just after that other call has turned it back on.
    codes = []

    def work():
        codes.extend(main(["check", "1"]) for _ in range(300))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            threads = [threading.Thread(target=work) for _ in range(4)]
            with redirect_stdout(io.StringIO()):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            assert (gc.isenabled(), gc.get_threshold()) == collector
    finally:
        sys.setswitchinterval(interval)
    assert codes == [0] * 12_000
