"""One sweep engine and the property checks it runs.

``sweep`` makes one pass over a term population.  It runs ``infer`` and
``drive_step`` once per term and hands both results to every check, so the
CLI's selftest and oracle-diff commands and the acceptance gate's
exhaustive criteria share a single pass per term.

A check is called as ``check(t, typed, stepped)``.  It returns None when
it does not take the term up, and otherwise the notes of the failures it
found on the term (none when the property held).  Each check gets a
report: how many terms were swept, how many the check took up, and the
first few offenders rendered in surface syntax (none means the property
held everywhere).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from .functor import Term
from .lang import is_value
from .oracle import embed, mono_infer, mono_step, project
from .preservation import preserve
from .semantics import ComposedStep, drive_step, trace, validate_step
from .surface import render
from .typecheck import ComposedTyping, LangType, infer, validate_typing

_MAX_OFFENDERS = 10
_TRACE_FUEL = 32

Typed = tuple[LangType, ComposedTyping] | None
Stepped = tuple[Term, ComposedStep] | None
Check = Callable[[Term, Typed, Stepped], Sequence[str] | None]


@dataclass(slots=True)
class SweepReport:
    name: str
    checked: int = 0
    exercised: int = 0
    offenders: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.offenders

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        summary = f"{status} {self.name}: {self.exercised}/{self.checked} terms exercised"
        if self.offenders:
            summary += "; first offenders: " + "; ".join(self.offenders)
        return summary


def sweep(terms: Iterable[Term], checks: dict[str, Check]) -> list[SweepReport]:
    """One pass over ``terms`` running every check; one report per check, in order."""
    runs = [(SweepReport(name), check) for name, check in checks.items()]
    checked = 0
    for t in terms:
        checked += 1
        typed, stepped = infer(t), drive_step(t)
        for report, check in runs:
            notes = check(t, typed, stepped)
            if notes is None:
                continue
            report.exercised += 1
            for note in notes:
                if len(report.offenders) < _MAX_OFFENDERS:
                    report.offenders.append(f"{render(t)}: {note}")
    for report, _ in runs:
        report.checked = checked
    return [report for report, _ in runs]


def preservation_sweep(t: Term, typed: Typed, stepped: Stepped) -> list[str] | None:
    """Stepping a well-typed term preserves its type, with a valid derivation."""
    if typed is None or stepped is None:
        return None
    ty, wt = typed
    target, step = stepped
    try:
        wt_after = preserve(step, wt)
    except Exception as exc:  # report, don't abort the sweep
        return [f"preserve raised {exc!r}"]
    if not validate_typing(wt_after, target, ty):
        return ["rewritten derivation does not validate"]
    return []


def driver_sweep(t: Term, typed: Typed, stepped: Stepped) -> list[str] | None:
    """Driver soundness, determinism, and normality of values."""
    if drive_step(t) != stepped:
        return ["two invocations disagree"]
    if stepped is None:
        return None
    target, step = stepped
    notes = []
    if not validate_step(step, t, target):
        notes.append("driver produced an invalid derivation")
    if is_value(t):
        notes.append("a value stepped")
    return notes


def oracle_sweep(t: Term, typed: Typed, stepped: Stepped) -> list[str]:
    """Typing and single-step agreement with the monolithic twin."""
    m = embed(t)
    if project(m) != t:
        return ["embed/project round trip failed"]
    mono_ty = mono_infer(m)
    if (None if typed is None else typed[0]) is not mono_ty:
        return [f"typing disagrees: {typed} vs {mono_ty}"]
    if (None if stepped is None else embed(stepped[0])) != mono_step(m):
        return ["single step disagrees"]
    return []


def trace_sweep(t: Term, typed: Typed, stepped: Stepped) -> list[str]:
    """Full traces correspond pointwise under the embedding."""
    steps = trace(t, _TRACE_FUEL)
    m = embed(t)
    for target, _ in steps:
        m = mono_step(m)
        if m is None or m != embed(target):
            return ["traces diverge"]
    if mono_step(m) is not None:
        return ["monolithic trace keeps going"]
    return []
