"""Command-line entry points.

Exit status: 0 on success, 1 on user error (syntax or an ill-typed term),
2 on an internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import gc
import random
import sys
import threading

from .generate import DEPTH_CAP, enumerate_terms, random_term
from .preservation import preserve
from .semantics import FuelExhaustedError, drive_step, trace
from .sexpr import parse_derivation, render_derivation
from .surface import LiteralLimitError, ParseError, parse, render
from .sweeps import SweepReport, driver_sweep, oracle_sweep, preservation_sweep, sweep, trace_sweep
from .typecheck import infer, validate_typing

USER_ERROR = 1
INTERNAL_ERROR = 2
# The internal-error line shows at most this many characters of each
# argument, then the argument's length, so it stays one short line.
ECHO_CHARS = 40
# Held while main reads or switches the process-wide collector, so calls
# that overlap in several threads, once all have returned, leave it as the
# first of them found it.
_COLLECTOR = threading.Lock()


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the user-error exit status."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USER_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state on the parser, and
    # usage errors go to sys.stderr as it is when they are reported.
    parser = _ArgumentParser(prog="fraglang", description="modular language workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="infer a type and its derivation")
    check.add_argument("expr")

    evaluate = sub.add_parser("eval", help="drive an expression to normal form")
    evaluate.add_argument("expr")
    evaluate.add_argument("--trace", action="store_true")
    evaluate.add_argument("--fuel", type=int, default=64)

    preserve_cmd = sub.add_parser(
        "preserve", help="type, step once, and rewrite the typing derivation"
    )
    preserve_cmd.add_argument("expr")

    diff = sub.add_parser("oracle-diff", help="compare against the monolithic twin")
    diff.add_argument("--depth", type=int, default=1)

    selftest = sub.add_parser("selftest", help="run the property sweeps")
    selftest.add_argument("--depth", type=int, default=1)

    return parser


def _parse_expr(text: str) -> "Term | None":
    try:
        return parse(text)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return None


def _cmd_check(args: argparse.Namespace) -> int:
    term = _parse_expr(args.expr)
    if term is None:
        return USER_ERROR
    result = infer(term)
    if result is None:
        print("ill-typed")
        return USER_ERROR
    ty, derivation = result
    # Rendered in full before any is written, as in eval.
    print("\n".join([ty.value, render_derivation(derivation)]))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if not _non_negative("--fuel", args.fuel):
        return USER_ERROR
    term = _parse_expr(args.expr)
    if term is None:
        return USER_ERROR
    try:
        steps = trace(term, args.fuel)
    except FuelExhaustedError as exc:
        print(f"fuel exhausted: {exc}", file=sys.stderr)
        return USER_ERROR
    # The whole answer is rendered before any of it is written, so a
    # literal too long to print leaves stdout empty.
    lines = []
    if args.trace:
        lines = [f"--> {render(target)}    {render_derivation(d)}" for target, d in steps]
    lines.append(render(steps[-1][0] if steps else term))
    print("\n".join(lines))
    return 0


def _cmd_preserve(args: argparse.Namespace) -> int:
    term = _parse_expr(args.expr)
    if term is None:
        return USER_ERROR
    typed = infer(term)
    if typed is None:
        print("ill-typed")
        return USER_ERROR
    ty, wt = typed
    stepped = drive_step(term)
    if stepped is None:
        print("normal form: nothing to preserve", file=sys.stderr)
        return USER_ERROR
    target, step = stepped
    wt_after = preserve(step, wt)
    # Rendered in full before any is written, as in eval.
    print("\n".join([render_derivation(wt), render_derivation(step), render_derivation(wt_after)]))
    if not validate_typing(wt_after, target, ty):
        print("internal error: rewritten derivation does not validate", file=sys.stderr)
        return INTERNAL_ERROR
    return 0


def _non_negative(option: str, value: int) -> bool:
    if value < 0:
        print(f"{option} must be non-negative, got {value}", file=sys.stderr)
        return False
    return True


def _depth_ok(depth: int) -> bool:
    if not _non_negative("--depth", depth):
        return False
    if depth > DEPTH_CAP:
        print(f"depth {depth} exceeds the cap of {DEPTH_CAP}", file=sys.stderr)
        return False
    return True


def _cmd_oracle_diff(args: argparse.Namespace) -> int:
    if not _depth_ok(args.depth):
        return USER_ERROR
    # stream: the depth-2 population runs to millions of terms
    return _print_reports(sweep(enumerate_terms(args.depth), {"oracle-equivalence": oracle_sweep}))


def _cmd_selftest(args: argparse.Namespace) -> int:
    if not _depth_ok(args.depth):
        return USER_ERROR
    checks = {
        "driver": driver_sweep,
        "preservation": preservation_sweep,
        "oracle-equivalence": oracle_sweep,
        "trace-equivalence": trace_sweep,
    }
    rng = random.Random(20240601)
    draws = (random_term(rng, rng.randrange(8)) for _ in range(500))
    reports = sweep(enumerate_terms(args.depth), checks)
    reports += sweep(draws, {"round-trips": _round_trips})
    return _print_reports(reports)


def _round_trips(t: "Term", typed, stepped) -> list[str]:
    """Surface text and typing derivations read back as what was printed."""
    if parse(render(t)) != t:
        return ["surface round trip failed"]
    if typed is not None and parse_derivation(render_derivation(typed[1])) != typed[1]:
        return ["typing derivation round trip failed"]
    return []


def _print_reports(reports: list[SweepReport]) -> int:
    for report in reports:
        print(report.line())
    return 0 if all(r.ok for r in reports) else INTERNAL_ERROR


_COMMANDS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "preserve": _cmd_preserve,
    "oracle-diff": _cmd_oracle_diff,
    "selftest": _cmd_selftest,
}


def _echo(argv: "list[str]") -> str:
    shown = (
        repr(arg) if len(arg) <= ECHO_CHARS else f"{arg[:ECHO_CHARS]!r}… ({len(arg)} chars)"
        for arg in argv
    )
    return f"[{', '.join(shown)}]"


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    # The command runs with the cyclic collector off: a trace keeps Θ(n²)
    # targets and derivations live, each full collection would rescan them
    # all, and the commands make no cycles for it to free. The setting is
    # process-wide; the caller's is restored on every exit path.
    with _COLLECTOR:
        collecting = gc.isenabled()
        gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except LiteralLimitError as exc:
        # A computed literal too long to print: the input asked for it.
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    except Exception as exc:
        # The exit-status contract holds for every input: an exception that
        # escapes a command is an internal error, reported on one line.
        shown = sys.argv[1:] if argv is None else argv
        print(
            f"internal error: {type(exc).__name__}: {exc} (argv {_echo(shown)})",
            file=sys.stderr,
        )
        return INTERNAL_ERROR
    finally:
        if collecting:
            with _COLLECTOR:
                gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
