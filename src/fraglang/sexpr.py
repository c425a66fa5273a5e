"""Symbolic form for derivations.

Derivations print as s-expressions over the rule names, with the terms the
rules mention left implicit, exactly as the proof trees are displayed.
Typing derivations re-derive those terms from their premises, so they
round-trip on their own; step derivations round-trip as a skeleton that
elaborate_step completes against the source term, the same way implicit
arguments are recovered from an expected type.

Terms appear in one place only (the payload of lift-wt-option) and are
embedded as a double-quoted surface-syntax string.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .functor import InR, Pair, Slot, Term
from .lang import (
    array_lookup,
    array_payload,
    enat,
    index,
    lift_option,
    nat_value,
    option_payload,
    plus,
    plus_parts,
)
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
from .surface import parse, render
from .typecheck import (
    ArrayTyping,
    ComposedTyping,
    LiftWtArray,
    LiftWtNat,
    LiftWtOption,
    LiftWtSum,
    OkIns,
    OkLookup,
    OkNil,
    OkSum,
    SumTyping,
    typing_subject,
)

Derivation = Union[ComposedStep, SumStep, ArrayStep, ComposedTyping, SumTyping, ArrayTyping]


class SexprError(Exception):
    """Malformed derivation text or an unknown constructor name."""


@dataclass(frozen=True, slots=True)
class StepSkeleton:
    """A step derivation as printed: rule names only, terms erased."""

    name: str
    inner: Optional["StepSkeleton"] = None


def render_derivation(d: Derivation) -> str:
    """The symbolic form of a step or typing derivation."""
    match d:
        case ViaSum(s):
            return f"(step⁺ {render_derivation(s)})"
        case ViaArray(s):
            return f"(step[] {render_derivation(s)})"
        case StepL(inner, _, _, _):
            return f"(stepl {render_derivation(inner)})"
        case StepR(inner, _, _, _):
            return f"(stepr {render_derivation(inner)})"
        case StepV(_, _):
            return "stepv"
        case StepI(inner, _, _, _):
            return f"(stepi {render_derivation(inner)})"
        case Lookup(_, _):
            return "lookup"
        case LiftWtNat(n):
            return f"(lift-wt-nat {n})"
        case LiftWtOption(payload):
            term_text = render(lift_option(payload))
            return f'(lift-wt-option "{term_text}")'
        case LiftWtSum(inner):
            return f"(lift-wt-sum {render_derivation(inner)})"
        case LiftWtArray(inner):
            return f"(lift-wt-array {render_derivation(inner)})"
        case OkSum(left_wt, right_wt, _, _):
            return f"(ok-sum {render_derivation(left_wt)} {render_derivation(right_wt)})"
        case OkNil():
            return "ok-nil"
        case OkIns(array_wt, value_wt, index_wt, _, _, _):
            return (
                f"(ok-ins {render_derivation(array_wt)}"
                f" {render_derivation(value_wt)} {render_derivation(index_wt)})"
            )
        case OkLookup(array_wt, index_wt, _, _):
            return f"(ok-lookup {render_derivation(array_wt)} {render_derivation(index_wt)})"
    raise SexprError(f"not a derivation: {d!r}")


# -- reading ------------------------------------------------------------

_Sexpr = Union[str, "_Quoted", list]


@dataclass(frozen=True, slots=True)
class _Quoted:
    text: str


def _read_sexpr(text: str) -> _Sexpr:
    # One pass over the tokens with an explicit stack of open lists, so
    # nesting depth is bounded by memory, not by the recursion limit.
    tokens = _lex_sexpr(text)
    if not tokens:
        raise SexprError("unexpected end of derivation text")
    stack: list[list] = []
    for pos, token in enumerate(tokens):
        if token == "(":
            stack.append([])
            continue
        if token == ")":
            if not stack:
                raise SexprError("unexpected ')'")
            token = stack.pop()
        if stack:
            stack[-1].append(token)
        elif pos + 1 != len(tokens):
            raise SexprError("trailing input after derivation")
        else:
            return token
    raise SexprError("missing ')'")


# One token per match: a parenthesis, a quoted term, an atom, or a lone
# quote (one with no closing partner).  Whitespace matches nothing.
_TOKEN = re.compile(r'[()]|"[^"]*"|[^\s()"]+|"')


def _lex_sexpr(text: str) -> list:
    tokens: list = _TOKEN.findall(text)
    for i, token in enumerate(tokens):
        if token[0] == '"':
            if len(token) == 1:
                raise SexprError("unterminated quoted term")
            tokens[i] = _Quoted(token[1:-1])
    return tokens


_STEP_NAMES = {"step⁺", "step[]", "stepl", "stepr", "stepv", "stepi", "lookup"}
_LEAF_STEPS = {"stepv", "lookup"}
_TYPING_NAMES = {
    "lift-wt-nat",
    "lift-wt-option",
    "lift-wt-sum",
    "lift-wt-array",
    "ok-sum",
    "ok-nil",
    "ok-ins",
    "ok-lookup",
}


def parse_derivation(text: str) -> Union[ComposedTyping, SumTyping, ArrayTyping, StepSkeleton]:
    """Read a derivation back from its symbolic form.

    Typing derivations come back complete.  Step derivations come back as
    a StepSkeleton; apply elaborate_step with the source term to finish.
    """
    return _decode(_read_sexpr(text))


def _decode(tree: _Sexpr):
    head, args = _split(tree)
    if head in _STEP_NAMES:
        return _decode_step(tree)
    match head, args:
        case ("lift-wt-nat", [str(digits)]) if digits.isdigit():
            return LiftWtNat(int(digits))
        case ("lift-wt-option", [_Quoted(text)]):
            payload = option_payload(parse(text))
            if payload is None:
                raise SexprError(f"not an option term: {text!r}")
            return LiftWtOption(payload)
        case ("lift-wt-sum", [inner]):
            wt = _decode(inner)
            if not isinstance(wt, OkSum):
                raise SexprError("lift-wt-sum expects a sum rule")
            return LiftWtSum(wt)
        case ("lift-wt-array", [inner]):
            wt = _decode(inner)
            if not isinstance(wt, (OkNil, OkIns, OkLookup)):
                raise SexprError("lift-wt-array expects an array rule")
            return LiftWtArray(wt)
        case ("ok-sum", [left, right]):
            left_wt, right_wt = _decode(left), _decode(right)
            return OkSum(
                left_wt,
                right_wt,
                typing_subject(left_wt)[0],
                typing_subject(right_wt)[0],
            )
        case ("ok-nil", []):
            return OkNil()
        case ("ok-ins", [array, value, idx]):
            wa, we, wn = _decode(array), _decode(value), _decode(idx)
            return OkIns(
                wa,
                we,
                wn,
                typing_subject(wa)[0],
                typing_subject(we)[0],
                typing_subject(wn)[0],
            )
        case ("ok-lookup", [array, idx]):
            wa, wn = _decode(array), _decode(idx)
            return OkLookup(wa, wn, typing_subject(wa)[0], typing_subject(wn)[0])
    if head in _TYPING_NAMES:
        raise SexprError(f"malformed {head} form")
    raise SexprError(f"unknown constructor name {head!r}")


def _split(tree: _Sexpr) -> tuple[str, list]:
    if isinstance(tree, str):
        return tree, []
    if isinstance(tree, list) and tree and isinstance(tree[0], str):
        return tree[0], tree[1:]
    raise SexprError(f"malformed derivation form: {tree!r}")


def _decode_step(tree: _Sexpr) -> StepSkeleton:
    head, args = _split(tree)
    if head not in _STEP_NAMES:
        raise SexprError(f"unknown constructor name {head!r}")
    if head in _LEAF_STEPS:
        if args:
            raise SexprError(f"{head} takes no premises")
        return StepSkeleton(head)
    if len(args) != 1:
        raise SexprError(f"{head} takes exactly one premise")
    return StepSkeleton(head, _decode_step(args[0]))


def elaborate_step(skeleton: StepSkeleton, source: Term) -> ComposedStep:
    """Recover the full step derivation from its skeleton and source term."""
    return _elaborate(skeleton, source)[0]


def _elaborate(skeleton: StepSkeleton, source: Term) -> tuple[ComposedStep, Term]:
    # The derivation and its target; a congruence rule stores its premise's
    # target, so each target is built once, where its rule is elaborated.
    if skeleton.name == "step⁺":
        parts = plus_parts(source)
        if parts is None or skeleton.inner is None:
            raise SexprError(f"step⁺ needs an addition source, got {render(source)!r}")
        step, target = _elaborate_sum(skeleton.inner, *parts)
        return ViaSum(step), target
    if skeleton.name == "step[]":
        match array_payload(source):
            case InR(Pair(Slot(a), Slot(i))) if skeleton.inner is not None:
                step, target = _elaborate_array(skeleton.inner, a, i)
                return ViaArray(step), target
        raise SexprError(f"step[] needs a lookup source, got {render(source)!r}")
    raise SexprError(f"{skeleton.name!r} is not a composed step")


def _elaborate_sum(skeleton: StepSkeleton, left: Term, right: Term) -> tuple[SumStep, Term]:
    if skeleton.name in ("stepl", "stepr") and skeleton.inner is None:
        raise SexprError(f"{skeleton.name} needs a premise")
    if skeleton.name == "stepl":
        inner, left_after = _elaborate(skeleton.inner, left)
        return StepL(inner, left, left_after, right), plus(left_after, right)
    if skeleton.name == "stepr":
        inner, right_after = _elaborate(skeleton.inner, right)
        n1 = nat_value(left)
        if n1 is None:
            raise SexprError("stepr needs a literal left operand")
        return StepR(inner, n1, right, right_after), plus(left, right_after)
    if skeleton.name == "stepv":
        n, m = nat_value(left), nat_value(right)
        if n is None or m is None:
            raise SexprError("stepv needs two literal operands")
        return StepV(n, m), enat(n + m)
    raise SexprError(f"{skeleton.name!r} is not a sum step")


def _elaborate_array(skeleton: StepSkeleton, array: Term, idx: Term) -> tuple[ArrayStep, Term]:
    if skeleton.name == "stepi":
        if skeleton.inner is None:
            raise SexprError("stepi needs a premise")
        inner, idx_after = _elaborate(skeleton.inner, idx)
        return StepI(inner, array, idx, idx_after), index(array, idx_after)
    if skeleton.name == "lookup":
        chain = array_payload(array)
        n = nat_value(idx)
        if chain is None or n is None:
            raise SexprError("lookup needs a lifted array and a literal index")
        return Lookup(chain, n), lift_option(array_lookup(chain, n))
    raise SexprError(f"{skeleton.name!r} is not an array step")
