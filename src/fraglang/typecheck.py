"""Reified typing derivations, their validator, and the inferencer.

Fragment rules (sums, arrays) know nothing about the composed language;
the lift constructors tie them to it.  The option rule is deliberately
shallow: any option term is well-typed, with no demand on what it holds.
"""

from __future__ import annotations

from enum import Enum

from .functor import Term, is_natural, record
from .lang import FRAGMENTS, SHARED_NATS, view


class LangType(Enum):
    NAT = "TNat"
    OPTION = "TOption"
    ARRAY = "TArray"


@record
class OkSum:
    """Addition of two naturals is a natural."""

    left_wt: "ComposedTyping"
    right_wt: "ComposedTyping"
    left: Term
    right: Term


@record
class OkNil:
    """The empty array is an array."""


@record
class OkIns:
    """Assignment of a natural at a natural index preserves array-ness."""

    array_wt: "ComposedTyping"
    value_wt: "ComposedTyping"
    index_wt: "ComposedTyping"
    array: Term
    value: Term
    index: Term


@record
class OkLookup:
    """Lookup of a natural index in an array yields an option."""

    array_wt: "ComposedTyping"
    index_wt: "ComposedTyping"
    array: Term
    index: Term


SumTyping = OkSum
ArrayTyping = OkNil | OkIns | OkLookup


@record
class LiftWtNat:
    n: int


@record
class LiftWtOption:
    term: Term


@record
class LiftWtSum:
    inner: SumTyping


@record
class LiftWtArray:
    inner: ArrayTyping


ComposedTyping = LiftWtNat | LiftWtOption | LiftWtSum | LiftWtArray


# Typing leaves are shared as their terms are (``lang.enat``, ``lang.nil``):
# one LiftWtNat per small literal, one typing of the empty array.
_WT_NATS = tuple(map(LiftWtNat, range(SHARED_NATS)))
WT_NIL = LiftWtArray(OkNil())


def wt_nat(n: int) -> LiftWtNat:
    """The typing of literal ``n``; equal small ones are one object, by enat's rule."""
    if type(n) is int and 0 <= n < SHARED_NATS:
        return _WT_NATS[n]
    return LiftWtNat(n)


def validate_typing(d: ComposedTyping, t: Term, ty: LangType) -> bool:
    """True iff d is recursively well-formed and claims exactly (t, ty).

    Each rule is checked against one ``view`` of the term it is given:
    literals against the view's payload, stored terms against the view's
    slot terms, and an option's stored term by its own view.  Premises are
    checked against those slot terms, so no claimed term is rebuilt, and a
    term outside the language (a bool literal, say) is rejected rather than
    compared equal.
    """
    v = view(t) if isinstance(t, Term) else None
    if v is None:
        return False
    case, q = v
    if case == "nat":
        return (
            isinstance(d, LiftWtNat)
            and ty is LangType.NAT
            and is_natural(d.n)
            and d.n == q.value
        )
    if case in FRAGMENTS["option"]:
        # What the option holds is deliberately unconstrained; view
        # shape-checks the stored term.
        return (
            isinstance(d, LiftWtOption)
            and ty is LangType.OPTION
            and isinstance(d.term, Term)
            and view(d.term) == v
        )
    if case == "plus":
        w = d.inner if isinstance(d, LiftWtSum) else None
        left, right = q.fst.term, q.snd.term
        return (
            isinstance(w, OkSum)
            and ty is LangType.NAT
            and w.left == left
            and w.right == right
            and validate_typing(w.left_wt, left, LangType.NAT)
            and validate_typing(w.right_wt, right, LangType.NAT)
        )
    if not isinstance(d, LiftWtArray):
        return False
    w = d.inner
    if case == "index":
        array, idx = q.fst.term, q.snd.term
        return (
            isinstance(w, OkLookup)
            and ty is LangType.OPTION
            and w.array == array
            and w.index == idx
            and validate_typing(w.array_wt, array, LangType.ARRAY)
            and validate_typing(w.index_wt, idx, LangType.NAT)
        )
    if case == "nil":
        return isinstance(w, OkNil) and ty is LangType.ARRAY
    array, idx, value = q.fst.term, q.snd.fst.term, q.snd.snd.term
    return (
        isinstance(w, OkIns)
        and ty is LangType.ARRAY
        and w.array == array
        and w.index == idx
        and w.value == value
        and validate_typing(w.array_wt, array, LangType.ARRAY)
        and validate_typing(w.value_wt, value, LangType.NAT)
        and validate_typing(w.index_wt, idx, LangType.NAT)
    )


def infer(t: Term) -> tuple[LangType, ComposedTyping] | None:
    """The unique type and derivation for t, or None.

    The rules are syntax-directed, so no search is needed: the term's case
    picks the rule.  A rule's premises are inferred in order, and the first
    one that fails ends it; infer is pure, so the premises after it could
    not change the answer.
    """
    v = view(t)
    if v is None:
        return None
    case, q = v
    if case == "nat":
        return LangType.NAT, wt_nat(q.value)
    if case in FRAGMENTS["option"]:
        return LangType.OPTION, LiftWtOption(t)
    if case == "plus":
        left, right = q.fst.term, q.snd.term
        left_result = infer(left)
        if left_result is None or left_result[0] is not LangType.NAT:
            return None
        right_result = infer(right)
        if right_result is None or right_result[0] is not LangType.NAT:
            return None
        return LangType.NAT, LiftWtSum(
            OkSum(left_result[1], right_result[1], left, right)
        )
    if case == "index":
        array, idx = q.fst.term, q.snd.term
        wa = infer(array)
        if wa is None or wa[0] is not LangType.ARRAY:
            return None
        wn = infer(idx)
        if wn is None or wn[0] is not LangType.NAT:
            return None
        return LangType.OPTION, LiftWtArray(OkLookup(wa[1], wn[1], array, idx))
    if case == "nil":
        return LangType.ARRAY, WT_NIL
    array, idx, value = q.fst.term, q.snd.fst.term, q.snd.snd.term
    wa = infer(array)
    if wa is None or wa[0] is not LangType.ARRAY:
        return None
    we = infer(value)
    if we is None or we[0] is not LangType.NAT:
        return None
    wn = infer(idx)
    if wn is None or wn[0] is not LangType.NAT:
        return None
    return LangType.ARRAY, LiftWtArray(OkIns(wa[1], we[1], wn[1], array, value, idx))
