"""Symbolic form for derivations.

Derivations print as s-expressions over the rule names, with the terms the
rules mention left implicit, exactly as the proof trees are displayed.
Typing derivations decode bottom-up: each rule builds the term it types
once, from the terms its premises returned, so they round-trip on their
own.  Step derivations round-trip as a skeleton of rule names; a source
term has at most one step derivation, so elaborate_step runs the driver on
the source and accepts its derivation when the skeleton names its rules.

Terms appear in one place only (the payload of lift-wt-option) and are
embedded as a double-quoted surface-syntax string.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Optional, Union

from .functor import Term
from .lang import assign, enat, index, lift_option, nil, option_payload, plus
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
    drive_step,
)
from .surface import ParseError, literal_text, parse, render
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
)

Derivation = Union[ComposedStep, SumStep, ArrayStep, ComposedTyping, SumTyping, ArrayTyping]


class SexprError(Exception):
    """Malformed derivation text or an unknown constructor name."""


@dataclass(frozen=True, slots=True)
class StepSkeleton:
    """A step derivation as printed: rule names only, terms erased."""

    name: str
    inner: Optional["StepSkeleton"] = None


# Each rule's printed name and the fields that hold its premises, in the
# order they print.  The two rules that print a value of their own,
# lift-wt-nat and lift-wt-option, are rendered in place instead.
_RULES = {
    ViaSum: ("step⁺", ("step",)),
    ViaArray: ("step[]", ("step",)),
    StepL: ("stepl", ("inner",)),
    StepR: ("stepr", ("inner",)),
    StepV: ("stepv", ()),
    StepI: ("stepi", ("inner",)),
    Lookup: ("lookup", ()),
    LiftWtSum: ("lift-wt-sum", ("inner",)),
    LiftWtArray: ("lift-wt-array", ("inner",)),
    OkSum: ("ok-sum", ("left_wt", "right_wt")),
    OkNil: ("ok-nil", ()),
    OkIns: ("ok-ins", ("array_wt", "value_wt", "index_wt")),
    OkLookup: ("ok-lookup", ("array_wt", "index_wt")),
}


class _Text(str):
    """Text stacked between premises; a premise that is a plain str is still rejected."""

    __slots__ = ()


_SPACE, _CLOSE = _Text(" "), _Text(")")


def render_derivation(d: Derivation) -> str:
    """The symbolic form of a step or typing derivation."""
    # One pass with an explicit stack, so nesting depth is bounded by
    # memory, not by the recursion limit, and each character is written
    # once: the parts are joined at the end.
    parts: list[str] = []
    todo: list = [d]  # what is left to print, last first: derivations and text
    while todo:
        d = todo.pop()
        if type(d) is _Text:
            parts.append(d)
            continue
        rule = _RULES.get(type(d))
        if rule is not None:
            name, premises = rule
            if not premises:
                parts.append(name)
                continue
            parts.append("(" + name)
            todo.append(_CLOSE)
            for field in reversed(premises):
                todo.append(getattr(d, field))
                todo.append(_SPACE)
        elif type(d) is LiftWtNat:
            parts.append(f"(lift-wt-nat {literal_text(d.n)})")
        elif type(d) is LiftWtOption:
            parts.append(f'(lift-wt-option "{render(lift_option(d.payload))}")')
        else:
            raise SexprError(f"not a derivation: {d!r}")
    return "".join(parts)


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


_STEP_NAMES = {_RULES[rule][0] for rule in (ViaSum, ViaArray, StepL, StepR, StepV, StepI, Lookup)}
_LEAF_STEPS = {"stepv", "lookup"}
# The typing rules by the premise positions they may fill.
_LIFTS = {"lift-wt-nat", "lift-wt-option", "lift-wt-sum", "lift-wt-array"}
_SUM_RULES = {"ok-sum"}
_ARRAY_RULES = {"ok-nil", "ok-ins", "ok-lookup"}
_TYPING_NAMES = _LIFTS | _SUM_RULES | _ARRAY_RULES
# A literal as render_derivation prints it: ASCII digits, no leading zero.
_NATURAL = re.compile(r"0|[1-9][0-9]*")


def parse_derivation(text: str) -> Union[ComposedTyping, SumTyping, ArrayTyping, StepSkeleton]:
    """Read a derivation back from its symbolic form.

    Typing derivations come back complete.  Step derivations come back as
    a StepSkeleton; apply elaborate_step with the source term to finish.
    """
    tree = _read_sexpr(text)
    if _split(tree)[0] in _STEP_NAMES:
        return _decode_step(tree)
    return _decode(tree, _TYPING_NAMES)[0]


def _decode(tree: _Sexpr, allowed: set) -> tuple[Union[ComposedTyping, SumTyping, ArrayTyping], Term]:
    # Bottom-up: the typing derivation and the term it types, built once
    # from the terms its premises returned.  ``allowed`` names the rules
    # that may stand where ``tree`` stands.
    head, args = _split(tree)
    if head not in allowed:
        if head in _TYPING_NAMES or head in _STEP_NAMES:
            raise SexprError(f"expected {' or '.join(sorted(allowed))}, got {head}")
        raise SexprError(f"unknown constructor name {head!r}")
    match head, args:
        case ("lift-wt-nat", [str(digits)]) if _NATURAL.fullmatch(digits):
            try:
                n = int(digits)
            except ValueError:  # past the integer-string limit
                raise SexprError(
                    f"lift-wt-nat literal of {len(digits)} digits is past the"
                    f" integer-string limit of {sys.get_int_max_str_digits()}"
                ) from None
            return LiftWtNat(n), enat(n)
        case ("lift-wt-option", [_Quoted(text)]):
            try:
                t = parse(text)
            except ParseError as exc:
                raise SexprError(f"not a term: {text!r} ({exc})") from None
            payload = option_payload(t)
            if payload is None:
                raise SexprError(f"not an option term: {text!r}")
            return LiftWtOption(payload), t
        case ("lift-wt-sum", [inner]):
            w, t = _decode(inner, _SUM_RULES)
            return LiftWtSum(w), t
        case ("lift-wt-array", [inner]):
            w, t = _decode(inner, _ARRAY_RULES)
            return LiftWtArray(w), t
        case ("ok-sum", [left, right]):
            (wl, l), (wr, r) = _decode(left, _LIFTS), _decode(right, _LIFTS)
            return OkSum(wl, wr, l, r), plus(l, r)
        case ("ok-nil", []):
            return OkNil(), nil()
        case ("ok-ins", [array, value, idx]):
            wa, a = _decode(array, _LIFTS)
            we, e = _decode(value, _LIFTS)
            wn, i = _decode(idx, _LIFTS)
            return OkIns(wa, we, wn, a, e, i), assign(a, i, e)
        case ("ok-lookup", [array, idx]):
            (wa, a), (wn, i) = _decode(array, _LIFTS), _decode(idx, _LIFTS)
            return OkLookup(wa, wn, a, i), index(a, i)
    raise SexprError(f"malformed {head} form")


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
    """The step derivation from ``source`` whose rules ``skeleton`` names.

    A source has at most one step derivation, the driver's, so elaboration
    runs the driver and checks the skeleton against its rules.
    """
    result = drive_step(source)
    if result is None:
        raise SexprError(f"the source does not step, so no {skeleton.name} derivation elaborates")
    derivation = result[1]
    if not _names_rules_of(skeleton, derivation):
        raise SexprError(
            f"the source steps by {render_derivation(derivation)},"
            f" not by the given {skeleton.name} skeleton"
        )
    return derivation


def _names_rules_of(skeleton: Optional[StepSkeleton], d) -> bool:
    # Walks both trees together, one rule and its one premise at a time.
    while d is not None:
        name, premises = _RULES[type(d)]
        if skeleton is None or skeleton.name != name:
            return False
        skeleton = skeleton.inner
        d = getattr(d, premises[0]) if premises else None  # stepv, lookup
    return skeleton is None
