import pytest

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


def test_deep_input_exits_without_traceback(capsys):
    code, _, err = run(capsys, "check", "(" * 3000 + "1" + ")" * 3000)
    assert code in (1, 2)
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


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
