"""Bulk property sweeps behind the CLI's selftest and oracle-diff commands.

The acceptance tests do not use them: they run their own fused pass.

Each sweep walks a term population and returns a report: how many terms it
looked at, how many exercised the property, and the first few offenders
rendered in surface syntax (empty means the property held everywhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .functor import Term
from .lang import is_value
from .oracle import embed, mono_infer, mono_step, project
from .preservation import preserve
from .semantics import drive_step, trace, validate_step
from .surface import render
from .typecheck import infer, validate_typing

_MAX_OFFENDERS = 10


@dataclass(slots=True)
class SweepReport:
    name: str
    checked: int = 0
    exercised: int = 0
    offenders: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.offenders

    def blame(self, t: Term, note: str) -> None:
        if len(self.offenders) < _MAX_OFFENDERS:
            self.offenders.append(f"{render(t)}: {note}")

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        summary = f"{status} {self.name}: {self.exercised}/{self.checked} terms exercised"
        if self.offenders:
            summary += "; first offenders: " + "; ".join(self.offenders)
        return summary


def preservation_sweep(terms: Iterable[Term]) -> SweepReport:
    """Stepping a well-typed term preserves its type, with a valid derivation."""
    report = SweepReport("preservation")
    for t in terms:
        report.checked += 1
        typed = infer(t)
        if typed is None:
            continue
        stepped = drive_step(t)
        if stepped is None:
            continue
        report.exercised += 1
        ty, wt = typed
        target, step = stepped
        try:
            wt_after = preserve(step, wt)
        except Exception as exc:  # report, don't abort the sweep
            report.blame(t, f"preserve raised {exc!r}")
            continue
        if not validate_typing(wt_after, target, ty):
            report.blame(t, "rewritten derivation does not validate")
    return report


def driver_sweep(terms: Iterable[Term]) -> SweepReport:
    """Driver soundness, determinism, and normality of values."""
    report = SweepReport("driver")
    for t in terms:
        report.checked += 1
        first = drive_step(t)
        if first != drive_step(t):
            report.blame(t, "two invocations disagree")
            continue
        if first is None:
            continue
        report.exercised += 1
        target, step = first
        if not validate_step(step, t, target):
            report.blame(t, "driver produced an invalid derivation")
        if is_value(t):
            report.blame(t, "a value stepped")
    return report


def oracle_sweep(terms: Iterable[Term]) -> SweepReport:
    """Typing and single-step agreement with the monolithic twin."""
    report = SweepReport("oracle-equivalence")
    for t in terms:
        report.checked += 1
        report.exercised += 1
        m = embed(t)
        if project(m) != t:
            report.blame(t, "embed/project round trip failed")
            continue
        modular_ty = infer(t)
        mono_ty = mono_infer(m)
        if (None if modular_ty is None else modular_ty[0]) is not mono_ty:
            report.blame(t, f"typing disagrees: {modular_ty} vs {mono_ty}")
            continue
        stepped = drive_step(t)
        mono_target = mono_step(m)
        modular_target = None if stepped is None else embed(stepped[0])
        if modular_target != mono_target:
            report.blame(t, "single step disagrees")
    return report


def trace_sweep(terms: Iterable[Term], fuel: int = 32) -> SweepReport:
    """Full traces correspond pointwise under the embedding."""
    report = SweepReport("trace-equivalence")
    for t in terms:
        report.checked += 1
        report.exercised += 1
        steps = trace(t, fuel)
        m = embed(t)
        for target, _ in steps:
            m = mono_step(m)
            if m is None or m != embed(target):
                report.blame(t, "traces diverge")
                break
        else:
            if mono_step(m) is not None:
                report.blame(t, "monolithic trace keeps going")
    return report
