"""Reified typing derivations, their validator, and the inferencer.

Fragment rules (sums, arrays) know nothing about the composed language;
the lift constructors tie them to it.  The option rule is deliberately
shallow: any shape-correct option payload is well-typed, with no demand on
the payload's contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .functor import (
    InL,
    InR,
    Pair,
    Payload,
    ShapeError,
    Slot,
    Term,
    is_natural,
    validator,
)
from .lang import (
    OPTION,
    MalformedDerivationError,
    assign,
    enat,
    index,
    lift_option,
    nil,
    plus,
    view,
)


class LangType(Enum):
    NAT = "TNat"
    OPTION = "TOption"
    ARRAY = "TArray"


@dataclass(frozen=True)
class OkSum:
    """Addition of two naturals is a natural."""

    left_wt: "ComposedTyping"
    right_wt: "ComposedTyping"
    left: Term
    right: Term


@dataclass(frozen=True)
class OkNil:
    """The empty array is an array."""


@dataclass(frozen=True)
class OkIns:
    """Assignment of a natural at a natural index preserves array-ness."""

    array_wt: "ComposedTyping"
    value_wt: "ComposedTyping"
    index_wt: "ComposedTyping"
    array: Term
    value: Term
    index: Term


@dataclass(frozen=True)
class OkLookup:
    """Lookup of a natural index in an array yields an option."""

    array_wt: "ComposedTyping"
    index_wt: "ComposedTyping"
    array: Term
    index: Term


SumTyping = OkSum
ArrayTyping = Union[OkNil, OkIns, OkLookup]


@dataclass(frozen=True)
class LiftWtNat:
    n: int


@dataclass(frozen=True)
class LiftWtOption:
    payload: Payload


@dataclass(frozen=True)
class LiftWtSum:
    inner: SumTyping


@dataclass(frozen=True)
class LiftWtArray:
    inner: ArrayTyping


ComposedTyping = Union[LiftWtNat, LiftWtOption, LiftWtSum, LiftWtArray]


def sum_subject(w: SumTyping) -> tuple[Term, LangType]:
    if isinstance(w, OkSum):
        return plus(w.left, w.right), LangType.NAT
    raise MalformedDerivationError(f"not a sum typing: {w!r}")


def array_subject(w: ArrayTyping) -> tuple[Term, LangType]:
    match w:
        case OkNil():
            return nil(), LangType.ARRAY
        case OkIns(_, _, _, array, value, idx):
            return assign(array, idx, value), LangType.ARRAY
        case OkLookup(_, _, array, idx):
            return index(array, idx), LangType.OPTION
    raise MalformedDerivationError(f"not an array typing: {w!r}")


def typing_subject(d: ComposedTyping) -> tuple[Term, LangType]:
    """The (term, type) pair a derivation claims."""
    match d:
        case LiftWtNat(n):
            return enat(n), LangType.NAT
        case LiftWtOption(payload):
            return lift_option(payload), LangType.OPTION
        case LiftWtSum(inner):
            return sum_subject(inner)
        case LiftWtArray(inner):
            return array_subject(inner)
    raise MalformedDerivationError(f"not a composed typing: {d!r}")


def validate_typing(d: ComposedTyping, t: Term, ty: LangType) -> bool:
    """True iff d is recursively well-formed and claims exactly (t, ty)."""
    try:
        subject, subject_ty = typing_subject(d)
    except (MalformedDerivationError, ShapeError, TypeError):
        return False
    if subject != t or subject_ty is not ty:
        return False
    return _valid(d)


_option_ok = validator(OPTION)


def _valid(d: ComposedTyping) -> bool:
    match d:
        case LiftWtNat(n):
            return is_natural(n)
        case LiftWtOption(payload):
            # The payload's contents are deliberately unconstrained.
            return _option_ok(payload)
        case LiftWtSum(OkSum(left_wt, right_wt, left, right)):
            return validate_typing(left_wt, left, LangType.NAT) and validate_typing(
                right_wt, right, LangType.NAT
            )
        case LiftWtArray(OkNil()):
            return True
        case LiftWtArray(OkIns(array_wt, value_wt, index_wt, array, value, idx)):
            return (
                validate_typing(array_wt, array, LangType.ARRAY)
                and validate_typing(value_wt, value, LangType.NAT)
                and validate_typing(index_wt, idx, LangType.NAT)
            )
        case LiftWtArray(OkLookup(array_wt, index_wt, array, idx)):
            return validate_typing(array_wt, array, LangType.ARRAY) and validate_typing(
                index_wt, idx, LangType.NAT
            )
    return False


def infer(t: Term) -> Optional[tuple[LangType, ComposedTyping]]:
    """The unique type and derivation for t, or None.

    The rules are syntax-directed, so no search is needed: the injection
    spine of the term picks the rule.
    """
    v = view(t)
    if v is None:
        return None
    tag, p = v
    if tag == "nat":
        return LangType.NAT, LiftWtNat(p.value)
    if tag == "option":
        return LangType.OPTION, LiftWtOption(p)
    if tag == "sum":
        left, right = p.fst.term, p.snd.term
        left_result = infer(left)
        right_result = infer(right)
        if (
            left_result is None
            or right_result is None
            or left_result[0] is not LangType.NAT
            or right_result[0] is not LangType.NAT
        ):
            return None
        return LangType.NAT, LiftWtSum(
            OkSum(left_result[1], right_result[1], left, right)
        )
    return _infer_array(p)


def _infer_array(p: Payload) -> Optional[tuple[LangType, ComposedTyping]]:
    match p:
        case InL(InR(_)):
            return LangType.ARRAY, LiftWtArray(OkNil())
        case InL(InL(Pair(Slot(array), Pair(Slot(idx), Slot(value))))):
            wa = _infer_at(array, LangType.ARRAY)
            we = _infer_at(value, LangType.NAT)
            wn = _infer_at(idx, LangType.NAT)
            if wa is None or we is None or wn is None:
                return None
            return LangType.ARRAY, LiftWtArray(OkIns(wa, we, wn, array, value, idx))
        case InR(Pair(Slot(array), Slot(idx))):
            wa = _infer_at(array, LangType.ARRAY)
            wn = _infer_at(idx, LangType.NAT)
            if wa is None or wn is None:
                return None
            return LangType.OPTION, LiftWtArray(OkLookup(wa, wn, array, idx))
    return None


def _infer_at(t: Term, want: LangType) -> Optional[ComposedTyping]:
    result = infer(t)
    if result is None or result[0] is not want:
        return None
    return result[1]
