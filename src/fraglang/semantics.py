"""Reified small-step derivations and the deterministic driver.

Each fragment owns its own derivation constructors; the composed relation
wraps them.  Derivations store the terms they mention, so a derivation can
be checked against a claimed (source, target) pair with no extra context.
"""

from __future__ import annotations

from .functor import Pair, Payload, Slot, Term, is_natural, record
from .lang import FRAGMENTS, View, array_lookup, enat, lift_index, lift_plus, nat_value, view


class FuelExhaustedError(Exception):
    """A trace ran out of fuel while its term could still step."""


@record
class StepL:
    """Congruence on the left summand: e1 + e2 steps to e1' + e2."""

    inner: "ComposedStep"
    left: Term
    left_after: Term
    right: Term


@record
class StepR:
    """Congruence on the right summand once the left is a literal."""

    inner: "ComposedStep"
    left_nat: int
    right: Term
    right_after: Term


@record
class StepV:
    """Reduction of two literals: n + m steps to their sum."""

    n: int
    m: int


SumStep = StepL | StepR | StepV


@record
class StepI:
    """Congruence on the index operand of a lookup."""

    inner: "ComposedStep"
    array: Term
    idx: Term
    idx_after: Term


@record
class Lookup:
    """Resolution of a lookup on an array and a literal index."""

    array: Term
    idx: int


ArrayStep = StepI | Lookup


@record
class ViaSum:
    step: SumStep


@record
class ViaArray:
    step: ArrayStep


ComposedStep = ViaSum | ViaArray


def validate_step(d: ComposedStep, source: Term, target: Term) -> bool:
    """True iff d is well-formed, recursively valid, and relates source to target.

    Each rule is checked against one ``view`` of the source and one of the
    target: literals against the viewed literal values, stored terms against
    the viewed slot terms, and a lookup's result against ``array_lookup`` on
    the source's own array.  Premises are checked against those slot
    terms, so no claimed endpoint is rebuilt.
    """
    sv = view(source) if isinstance(source, Term) else None
    tv = view(target) if isinstance(target, Term) else None
    if sv is None or tv is None:
        return False
    if isinstance(d, ViaSum):
        return sv[0] == "plus" and _valid_sum(d.step, sv[1], tv)
    if isinstance(d, ViaArray):
        return sv[0] == "index" and _valid_array(d.step, sv[1], tv)
    return False


def _valid_sum(s: SumStep, p: Payload, tv: View) -> bool:
    left, right = p.fst.term, p.snd.term
    if isinstance(s, StepV):
        return (
            is_natural(s.n)
            and is_natural(s.m)
            and nat_value(left) == s.n
            and nat_value(right) == s.m
            and tv[0] == "nat"
            and tv[1].value == s.n + s.m
        )
    if tv[0] != "plus":
        return False
    left_after, right_after = tv[1].fst.term, tv[1].snd.term
    if isinstance(s, StepL):
        return (
            s.left == left
            and s.left_after == left_after
            and s.right == right
            and s.right == right_after
            and validate_step(s.inner, left, left_after)
        )
    if not isinstance(s, StepR):
        return False
    n = s.left_nat
    return (
        is_natural(n)
        and nat_value(left) == n
        and nat_value(left_after) == n
        and s.right == right
        and s.right_after == right_after
        and validate_step(s.inner, right, right_after)
    )


def _valid_array(s: ArrayStep, p: Payload, tv: View) -> bool:
    array, idx = p.fst.term, p.snd.term
    if isinstance(s, StepI):
        if tv[0] != "index":
            return False
        array_after, idx_after = tv[1].fst.term, tv[1].snd.term
        return (
            s.array == array
            and s.array == array_after
            and s.idx == idx
            and s.idx_after == idx_after
            and validate_step(s.inner, idx, idx_after)
        )
    if isinstance(s, Lookup):
        array_v = view(array)
        return (
            is_natural(s.idx)
            and nat_value(idx) == s.idx
            and s.array == array
            and array_v is not None
            and array_v[0] in FRAGMENTS["array"]
            and tv == view(array_lookup(array, s.idx))
        )
    return False


def drive_step(t: Term) -> tuple[Term, ComposedStep] | None:
    """One deterministic step, or None on a normal form.

    Strategy: addition reduces its left operand to a literal, then its
    right, then the pair; lookup reduces its index to a literal, then
    resolves when the array operand is an array.
    """
    return _drive(view(t))


def _drive(v: View | None) -> tuple[Term, ComposedStep] | None:
    # Steps the term whose view is v; each operand is viewed once, and the
    # view both tests for a literal and drives the operand's own step.  The
    # target shares the Slot of the operand a congruence leaves alone, and
    # is still built by its case's lifter, shape check included.
    if v is None:
        return None
    case, p = v
    if case == "plus":
        left, right = p.fst.term, p.snd.term
        left_v = view(left)
        if left_v is None or left_v[0] != "nat":
            inner = _drive(left_v)
            if inner is None:
                return None
            left_after, d = inner
            target = lift_plus(Pair(Slot(left_after), p.snd))
            return target, ViaSum(StepL(d, left, left_after, right))
        n1 = left_v[1].value
        right_v = view(right)
        if right_v is None or right_v[0] != "nat":
            inner = _drive(right_v)
            if inner is None:
                return None
            right_after, d = inner
            target = lift_plus(Pair(p.fst, Slot(right_after)))
            return target, ViaSum(StepR(d, n1, right, right_after))
        n2 = right_v[1].value
        return enat(n1 + n2), ViaSum(StepV(n1, n2))
    if case == "index":
        array, idx = p.fst.term, p.snd.term
        idx_v = view(idx)
        if idx_v is None or idx_v[0] != "nat":
            inner = _drive(idx_v)
            if inner is None:
                return None
            idx_after, d = inner
            target = lift_index(Pair(p.fst, Slot(idx_after)))
            return target, ViaArray(StepI(d, array, idx, idx_after))
        n = idx_v[1].value
        array_v = view(array)
        if array_v is None or array_v[0] not in FRAGMENTS["array"]:
            return None
        return array_lookup(array, n), ViaArray(Lookup(array, n))
    return None


def trace(t: Term, fuel: int) -> list[tuple[Term, ComposedStep]]:
    """Iterate the driver at most ``fuel`` times, stopping at a normal form.

    Raises ValueError when ``fuel`` is negative, and FuelExhaustedError when
    the final term still steps.
    """
    if fuel < 0:
        raise ValueError(f"fuel must be non-negative, got {fuel}")
    steps: list[tuple[Term, ComposedStep]] = []
    current = t
    for _ in range(fuel):
        result = drive_step(current)
        if result is None:
            return steps
        current, derivation = result
        steps.append((current, derivation))
    if drive_step(current) is not None:
        raise FuelExhaustedError(f"term still steps after {fuel} steps")
    return steps
