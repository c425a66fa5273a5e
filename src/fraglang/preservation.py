"""Derivation transformers witnessing type preservation.

Each fragment's transformer rewrites its own typing derivations across
its own step derivations.  Everything about the outside world (how to
type literals, how to re-enter the composed relation, and the induction
hypothesis itself) arrives as explicit hooks, and the composed
transformer is the one-time instantiation of those hooks with the
composed constructors.
"""

from __future__ import annotations

from typing import Callable

from .functor import Term, is_natural, record
from .lang import array_lookup, nat_value
from .semantics import (
    ArrayStep,
    ComposedStep,
    Lookup,
    StepI,
    StepL,
    StepR,
    StepV,
    SumStep,
    ViaArray,
    ViaSum,
)
from .typecheck import (
    ArrayTyping,
    ComposedTyping,
    LiftWtArray,
    LiftWtOption,
    LiftWtSum,
    OkLookup,
    OkSum,
    SumTyping,
    wt_nat,
)


class SubjectMismatchError(Exception):
    """A step and a typing derivation disagree about their subject term."""


def _is_literal(t: Term, n: int) -> bool:
    # Read through nat_value: a non-natural n builds no literal and matches no term.
    return is_natural(n) and isinstance(t, Term) and nat_value(t) == n


@record
class PreservationHooks:
    """What a fragment transformer assumes about the composed language."""

    wt_nat: Callable[[int], ComposedTyping]
    wt_option: Callable[[Term], ComposedTyping]
    lift_sum_wt: Callable[[SumTyping], ComposedTyping]
    lift_array_wt: Callable[[ArrayTyping], ComposedTyping]
    induction: Callable[[ComposedStep, ComposedTyping], ComposedTyping]


def preservation_sum(
    hooks: PreservationHooks, step: SumStep, wt: SumTyping
) -> ComposedTyping:
    """Rewrite a sum typing across a sum step."""
    if not isinstance(wt, OkSum):
        raise SubjectMismatchError(f"sum step against non-sum typing {type(wt).__name__}")
    if isinstance(step, StepL):
        if wt.left != step.left or wt.right != step.right:
            raise SubjectMismatchError("left-congruence subject mismatch")
        rewritten = hooks.induction(step.inner, wt.left_wt)
        return hooks.lift_sum_wt(OkSum(rewritten, wt.right_wt, step.left_after, step.right))
    if isinstance(step, StepR):
        if not _is_literal(wt.left, step.left_nat) or wt.right != step.right:
            raise SubjectMismatchError("right-congruence subject mismatch")
        rewritten = hooks.induction(step.inner, wt.right_wt)
        return hooks.lift_sum_wt(OkSum(wt.left_wt, rewritten, wt.left, step.right_after))
    if isinstance(step, StepV):
        if not _is_literal(wt.left, step.n) or not _is_literal(wt.right, step.m):
            raise SubjectMismatchError("literal-reduction subject mismatch")
        return hooks.wt_nat(step.n + step.m)
    raise SubjectMismatchError(f"not a sum step: {type(step).__name__}")


def preservation_array(
    hooks: PreservationHooks, step: ArrayStep, wt: ArrayTyping
) -> ComposedTyping:
    """Rewrite an array typing across an array step."""
    if isinstance(step, StepI):
        if not isinstance(wt, OkLookup) or wt.array != step.array or wt.index != step.idx:
            raise SubjectMismatchError("index-congruence subject mismatch")
        rewritten = hooks.induction(step.inner, wt.index_wt)
        return hooks.lift_array_wt(OkLookup(wt.array_wt, rewritten, step.array, step.idx_after))
    if isinstance(step, Lookup):
        if not isinstance(wt, OkLookup) or wt.array != step.array or not _is_literal(wt.index, step.idx):
            raise SubjectMismatchError("lookup subject mismatch")
        return hooks.wt_option(array_lookup(step.array, step.idx))
    raise SubjectMismatchError(f"not an array step: {type(step).__name__}")


def preserve(step: ComposedStep, wt: ComposedTyping) -> ComposedTyping:
    """Rewrite a composed typing across a composed step.

    Recursion is structural on the step derivation, so the knot-tied
    induction terminates.
    """
    if isinstance(step, ViaSum) and isinstance(wt, LiftWtSum):
        return preservation_sum(COMPOSED_HOOKS, step.step, wt.inner)
    if isinstance(step, ViaArray) and isinstance(wt, LiftWtArray):
        return preservation_array(COMPOSED_HOOKS, step.step, wt.inner)
    raise SubjectMismatchError(
        f"step {type(step).__name__} cannot pair with typing {type(wt).__name__}"
    )


# Instantiated once: the composed language supplies its own constructors
# as every hook, closing the induction with preserve itself.
COMPOSED_HOOKS = PreservationHooks(
    wt_nat=wt_nat,
    wt_option=LiftWtOption,
    lift_sum_wt=LiftWtSum,
    lift_array_wt=LiftWtArray,
    induction=preserve,
)
