"""Derivation transformers witnessing type preservation.

Each fragment supplies only its axiom case, and gets what it needs of the
composed language (how to type a literal or an option) as explicit hooks.
One congruence case, read off each case's step and typing rows, serves
every fragment, and ``preserve`` runs it in one loop: the induction.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import fields
from operator import attrgetter
from typing import Callable

from .functor import Term, is_natural, record
from .lang import array_lookup, nat_value
from .semantics import STEPS, ComposedStep, Lookup, StepV, layout
from .typecheck import RULES, ComposedTyping, LiftWtOption, OkLookup, OkSum, wt_nat


class SubjectMismatchError(Exception):
    """A step and a typing derivation disagree about their subject term."""


def _is_literal(t: Term, n: int) -> bool:
    # Read through nat_value: a non-natural n builds no literal and matches no term.
    return is_natural(n) and isinstance(t, Term) and nat_value(t) == n


@record
class PreservationHooks:
    """What a fragment's axiom case assumes about the composed language."""

    wt_nat: Callable[[int], ComposedTyping]
    wt_option: Callable[[Term], ComposedTyping]


def preservation_sum(hooks: PreservationHooks, step: StepV, wt: OkSum) -> ComposedTyping:
    """The sum axiom: two literals step to their sum, a natural."""
    if not isinstance(wt, OkSum):
        raise SubjectMismatchError(f"sum step against non-sum typing {type(wt).__name__}")
    if not isinstance(step, StepV) or not _is_literal(wt.left, step.n) or not _is_literal(wt.right, step.m):
        raise SubjectMismatchError("literal-reduction subject mismatch")
    return hooks.wt_nat(step.n + step.m)


def preservation_array(hooks: PreservationHooks, step: Lookup, wt: OkLookup) -> ComposedTyping:
    """The array axiom: a lookup at a literal index steps to an option."""
    ok = isinstance(step, Lookup) and isinstance(wt, OkLookup) and _is_literal(wt.index, step.idx)
    if not ok or wt.array != step.array:
        raise SubjectMismatchError("lookup subject mismatch")
    return hooks.wt_option(array_lookup(step.array, step.idx))


# Each step row's axiom record, with the case of its fragment that rewrites it.
AXIOMS = {StepV: preservation_sum, Lookup: preservation_array}

# A congruence record's case: the typing row's lift and record, the reader of
# that record's fields (premise derivations, then terms), where the stepped
# slot's premise and term sit in them, the reader of the step field holding
# that slot's target, and each premise term's place with the reader of the
# step field holding its source and whether that field holds a literal.
Congruence = namedtuple("Congruence", "lift rule held k at after sources")


def _congruence(case: str, slot: int, step_record: type, text: str) -> Congruence:
    row, named = RULES[case], layout(step_record, text)
    slots = [s for s, _ in row.premises]
    n, k = len(slots), slots.index(slot)
    after = attrgetter(*(name for kind, name, j in named if (kind, j) == ("after", slot)))
    sources = [(n + slots.index(j), attrgetter(name), kind == "nat") for kind, name, j in named if kind != "after"]
    held = attrgetter(*(f.name for f in fields(row.rule)))
    return Congruence(row.lift, row.rule, held, k, n + k, after, sources)


# Each step record's level: its step lift, the typing lift its case pairs
# with, and its congruence case, or None for an axiom record, whose
# fragment's case AXIOMS holds.
Level = namedtuple("Level", "via lift congruence")
LEVELS = {
    record: Level(row.lift, RULES[case].lift, None if slot is None else _congruence(case, slot, record, text))
    for case, row in STEPS.items()
    for slot, record, text in (*row.context, (None, *row.axiom[:2]))
}


def preserve(step: ComposedStep, wt: ComposedTyping) -> ComposedTyping:
    """Rewrite a composed typing across a composed step.

    The walk goes down the congruences, checking each level's subject, to
    the axiom, which its fragment's case rewrites.  The typing is rebuilt
    up the frames the walk stacked, each replacing the premise at its
    stepped slot and keeping every other premise and term as it was.
    """
    frames = []
    while True:
        kind = type(getattr(step, "step", None))
        level = LEVELS.get(kind)
        if level is None or type(step) is not level.via or not isinstance(wt, level.lift):
            via = type(step)
            lift = next((other.lift for other in LEVELS.values() if other.via is via), None)
            if lift is None or not isinstance(wt, lift):
                raise SubjectMismatchError(f"step {via.__name__} cannot pair with typing {type(wt).__name__}")
            raise SubjectMismatchError(f"not a {via.__name__} step: {kind.__name__}")
        step, wt, c = step.step, wt.inner, level.congruence
        if c is None:
            break
        if not isinstance(wt, c.rule):
            raise SubjectMismatchError(f"{kind.__name__} against typing {type(wt).__name__}")
        held = list(c.held(wt))
        for at, read, nat in c.sources:
            have, want = held[at], read(step)
            if not (_is_literal(have, want) if nat else have is want or have == want):
                raise SubjectMismatchError(f"{kind.__name__} subject mismatch")
        held[c.at] = c.after(step)
        frames.append((c, held))
        step, wt = step.inner, held[c.k]
    wt = AXIOMS[kind](COMPOSED_HOOKS, step, wt)
    while frames:
        c, held = frames.pop()
        held[c.k] = wt
        wt = c.lift(c.rule(*held))
    return wt


# Instantiated once: the composed language supplies its own constructors as its hooks.
COMPOSED_HOOKS = PreservationHooks(wt_nat=wt_nat, wt_option=LiftWtOption)
