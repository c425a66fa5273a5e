"""Symbolic form for derivations.

Derivations print as s-expressions over the rule names, with the terms the
rules mention left implicit, exactly as the proof trees are displayed.
Typing derivations decode bottom-up: each rule builds the term it types
once, from the terms its premises returned, so they round-trip on their
own.  Step derivations round-trip as a skeleton of rule names, which
elaborate_step follows down a source term through the step rows of
``semantics.STEPS``, never running the driver: each name must be the one
the row allows at its level, and the derivation is built back up the path.

Terms appear in one place only (the term of an option's typing) and are
embedded as a double-quoted surface-syntax string.
"""

from __future__ import annotations

import re
import sys
from dataclasses import fields
from typing import Callable, NoReturn, get_args

from .functor import Term, record
from .lang import BUILDERS, FRAGMENTS, SHARED_NATS, enat, nil, view
from .semantics import (
    ArrayStep,
    ComposedStep,
    RUNS,
    SumStep,
    ViaArray,
    ViaSum,
)
from .surface import ParseError, literal_text, parse, render
from .typecheck import (
    RULES as TYPING_RULES,
    WT_NIL,
    ArrayTyping,
    ComposedTyping,
    LiftWtNat,
    LiftWtOption,
    OkNil,
    SumTyping,
    TypingRule,
    wt_nat,
)

Derivation = ComposedStep | SumStep | ArrayStep | ComposedTyping | SumTyping | ArrayTyping


class SexprError(Exception):
    """Malformed derivation text or an unknown constructor name."""


@record
class StepSkeleton:
    """A step derivation as printed: rule names only, terms erased."""

    name: str
    inner: StepSkeleton | None = None


# Each rule's printed name and the fields that hold its premises, in the
# order they print.  A rule's come from its row: a step record's class name
# in lower case, and a congruence's inner step; a typing record's in kebab
# case, and its first fields, a lift's one for its rule.  The two rules
# that print a value of their own are named in _NAMES and rendered in place.
_KEBAB = re.compile(r"(?<!^)(?=[A-Z])")
_RULES = {
    ViaSum: ("step⁺", ("step",)),
    ViaArray: ("step[]", ("step",)),
    **{
        record: (record.__name__.lower(), ("inner",) if rule is not run.axiom else ())
        for run in RUNS.values()
        for record, rule in run.rules.items()
    },
    **{
        record: (_KEBAB.sub("-", record.__name__).lower(), tuple(f.name for f in fields(record))[:n])
        for row in TYPING_RULES.values()
        if row.rule is not None
        for record, n in ((row.lift, 1), (row.rule, len(row.premises)))
    },
}
_NAMES = {rule: name for rule, (name, _) in _RULES.items()}
_NAMES.update({row.lift: _KEBAB.sub("-", row.lift.__name__).lower() for row in TYPING_RULES.values()})


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
            parts.append(f"({_NAMES[LiftWtNat]} {literal_text(d.n)})")
        elif type(d) is LiftWtOption:
            parts.append(f'({_NAMES[LiftWtOption]} "{render(d.term)}")')
        else:
            raise SexprError(f"not a derivation: {d!r}")
    return "".join(parts)


# -- reading ------------------------------------------------------------


@record
class _Quoted:
    """A quoted term in derivation text, kept apart from names and literals."""

    text: str


# The canonical typing of a literal, as render_derivation prints it: ASCII
# digits, no leading zero.
_NATURAL = re.compile(r"0|[1-9][0-9]*")
_LITERAL = f"({_NAMES[LiftWtNat]} "
# One token per match: an opening parenthesis with a canonical literal's
# typing after it, or else with the name after it if any; a closing one; an
# atom; a quoted term; or a lone quote (one with no closing partner).
# Whitespace matches nothing.
_TOKEN = re.compile(
    rf'\((?:{re.escape(_LITERAL[1:])}(?:{_NATURAL.pattern})\)|[^\s()"]*)|\)|[^\s()"]+|"[^"]*"|"'
)

# The rules by the premise positions they may fill: any lift where a rule
# has a premise, and a step rule under a step rule.
_LIFTS = frozenset(row.lift for row in TYPING_RULES.values())
_STEPS = frozenset(get_args(ComposedStep) + get_args(SumStep) + get_args(ArrayStep))
_NIL_TYPED = (WT_NIL.inner, nil())
# The rules with no premises print as their bare name, which is read as the
# rule wherever it stands; a form headed by one is malformed.
_LEAVES = {
    _NAMES[OkNil]: _NIL_TYPED,
    **{_NAMES[rule]: StepSkeleton(_NAMES[rule]) for rule in _STEPS if not _RULES[rule][1]},
}


def parse_derivation(text: str) -> ComposedTyping | SumTyping | ArrayTyping | StepSkeleton:
    """Read a derivation back from its symbolic form.

    Typing derivations come back complete.  Step derivations come back as
    a StepSkeleton; apply elaborate_step with the source term to finish.
    """
    # One pass over the tokens with an explicit stack of open forms, so
    # nesting depth is bounded by memory, not by the recursion limit.  A
    # form is decoded when it closes, from premises already decoded: a
    # typing premise as (derivation, the term it types), a step premise as
    # its skeleton, a quoted term as a _Quoted, a rule with no premises as
    # itself, and any other literal or bare name as its text.  A canonical
    # literal's typing is one token, decoded where it stands.
    tokens = _TOKEN.findall(text)
    if len(tokens) == 1 and tokens[0] in _LEAVES:  # the whole text is one such rule
        leaf = _LEAVES[tokens[0]]
        return leaf[0] if type(leaf) is tuple else leaf
    stack: list[list] = []  # each open form: its rule name, then its premises
    tokens = iter(tokens)
    for token in tokens:
        if token == ")":
            if not stack:
                raise SexprError("unexpected ')'")
            form = stack.pop()
            if not form:
                raise SexprError("malformed derivation form: ()")
        elif token[0] == "(":
            if stack and not stack[-1]:
                raise SexprError("malformed derivation form: a form where a rule name belongs")
            if token[-1] != ")":
                stack.append([token[1:]] if len(token) > 1 else [])
            elif stack:
                stack[-1].append(_literal(token))
            elif next(tokens, None) is not None:
                raise SexprError("trailing input after derivation")
            else:
                return _literal(token)[0]
            continue
        else:
            if token[0] == '"':
                if len(token) == 1:
                    raise SexprError("unterminated quoted term")
                token = _Quoted(token[1:-1])
            elif stack and stack[-1]:  # a premise
                token = _LEAVES.get(token, token)
            if stack:
                stack[-1].append(token)
                continue
            form = [token]  # the whole text is one bare name
        # What follows the outermost form is an error before the form is.
        if not stack and next(tokens, None) is not None:
            raise SexprError("trailing input after derivation")
        rule = _DECODERS.get(form[0])
        if rule is None:
            if type(form[0]) is _Quoted:
                raise SexprError(f'a quoted term "{form[0].text}" where a rule name belongs')
            raise SexprError(f"unknown constructor name {form[0]!r}")
        size, decode = rule
        if len(form) != size:
            raise SexprError(f"malformed {form[0]} form: {size - 1} premises expected")
        value = decode(form)
        if stack:
            stack[-1].append(value)
        else:
            return value[0] if type(value) is tuple else value
    raise SexprError("missing ')'" if stack else "unexpected end of derivation text")


def _misplaced(premise, kinds) -> SexprError:
    # The error for a decoded premise in a position that takes the rules ``kinds``.
    if type(premise) is str:
        name = premise
    elif type(premise) is StepSkeleton:
        name = premise.name
    elif type(premise) is tuple:
        name = _NAMES[type(premise[0])]
    else:
        return SexprError(f'a quoted term "{premise.text}" where a derivation belongs')
    allowed = [_NAMES[rule] for rule in kinds]
    if name in allowed:  # a bare name where its form belongs
        return SexprError(f"malformed {name} form")
    if name in _DECODERS:
        return SexprError(f"expected {' or '.join(sorted(allowed))}, got {name}")
    return SexprError(f"unknown constructor name {name!r}")


def _untyped(premises, kinds: frozenset) -> SexprError:
    # The error for the first premise that is no typing by one of ``kinds``.
    premise = next(p for p in premises if type(p) is not tuple or type(p[0]) not in kinds)
    return _misplaced(premise, kinds)


# The small literals' typings and terms by their token, shared as enat
# shares the terms.
_LITERALS = {f"{_LITERAL}{n})": (wt_nat(n), enat(n)) for n in range(SHARED_NATS)}


def _literal(token: str) -> tuple:
    # A canonical literal's typing and term, from its token.
    typed = _LITERALS.get(token)
    if typed is not None:
        return typed
    digits = token[len(_LITERAL):-1]
    try:
        n = int(digits)
    except ValueError:  # past the integer-string limit
        raise SexprError(
            f"{_NAMES[LiftWtNat]} literal of {len(digits)} digits is past the"
            f" integer-string limit of {sys.get_int_max_str_digits()}"
        ) from None
    return wt_nat(n), enat(n)


# Each decoder takes a closed form: the rule name, then the premises.


def _lift_wt_nat(form) -> tuple:
    name, digits = form
    if type(digits) is not str or not _NATURAL.fullmatch(digits):
        raise SexprError(f"malformed {name} form")
    return _literal(f"{_LITERAL}{digits})")


def _lift_wt_option(form) -> tuple:
    name, quoted = form
    if type(quoted) is not _Quoted:
        raise SexprError(f"malformed {name} form")
    try:
        t = parse(quoted.text)
    except ParseError as exc:
        raise SexprError(f"not a term: {quoted.text!r} ({exc})") from None
    if view(t)[0] not in FRAGMENTS["option"]:
        raise SexprError(f"not an option term: {quoted.text!r}")
    return LiftWtOption(t), t


def _lifted(lift: type) -> Callable:
    # A lift's decoder: its premise is a typing by a rule its rows name.  The
    # empty array's typing comes back as the one shared object, as in infer.
    kinds = frozenset(row.rule for row in TYPING_RULES.values() if row.lift is lift)

    def decode(form) -> tuple:
        inner = form[1]
        if type(inner) is tuple and type(inner[0]) in kinds:
            return (WT_NIL if inner is _NIL_TYPED else lift(inner[0])), inner[1]
        raise _misplaced(inner, kinds)

    return decode


def _ruled(case: str, row: TypingRule) -> Callable:
    # A rule's decoder: each premise is a typing, and the term is the case's,
    # built from the premises' terms in slot order: form[i], form[j], form[k].
    # Of fixed arity, none, two or three, so no premise is looped over.
    rule, build = row.rule, BUILDERS.get(case)
    slots = [slot for slot, _ in row.premises]
    i, j, k = [1 + slots.index(s) for s in range(len(slots))] + [0] * (3 - len(slots))

    def decode2(form) -> tuple:
        _, x, y = form
        if type(x) is type(y) is tuple and type(x[0]) in _LIFTS and type(y[0]) in _LIFTS:
            return rule(x[0], y[0], x[1], y[1]), build(form[i][1], form[j][1])
        raise _untyped(form[1:], _LIFTS)

    def decode3(form) -> tuple:
        _, x, y, z = form
        if type(x) is type(y) is type(z) is tuple and {type(x[0]), type(y[0]), type(z[0])} <= _LIFTS:
            return rule(x[0], y[0], z[0], x[1], y[1], z[1]), build(form[i][1], form[j][1], form[k][1])
        raise _untyped(form[1:], _LIFTS)

    return {0: _leaf_form, 2: decode2, 3: decode3}[len(slots)]


def _step(form) -> StepSkeleton:
    # Any step rule may stand under any other: elaboration checks the names.
    name, inner = form
    if type(inner) is not StepSkeleton:
        raise _misplaced(inner, _STEPS)
    return StepSkeleton(name, inner)


def _leaf_form(form) -> NoReturn:
    raise SexprError(f"malformed {form[0]} form")


# Each rule's decoder by its printed name, with the length of its form: the
# rule name and one premise per field _RULES lists (one, the literal or the
# quoted term, for the two rules rendered in place).
_DECODERS = {
    _NAMES[rule]: (1 + (len(_RULES[rule][1]) if rule in _RULES else 1), decode)
    for rule, decode in {
        LiftWtNat: _lift_wt_nat,
        LiftWtOption: _lift_wt_option,
        **{row.lift: _lifted(row.lift) for row in TYPING_RULES.values() if row.rule is not None},
        **{row.rule: _ruled(case, row) for case, row in TYPING_RULES.items() if row.rule is not None},
        **{rule: _step if _RULES[rule][1] else _leaf_form for rule in _STEPS},
    }.items()
}


def elaborate_step(skeleton: StepSkeleton, source: Term) -> ComposedStep:
    """The step derivation from ``source`` whose rules ``skeleton`` names.

    The skeleton is followed down the source through ``semantics.STEPS``:
    at each level the term's case picks its row and the row its rule, which
    the skeleton must name after the row's lift.  The derivation is then
    built back up the path.  SexprError names rules, never a term.
    """
    frames, v, at = (), view(source), skeleton  # frames as drive_step stacks them
    while True:
        run = RUNS.get(v[0]) if v is not None else None
        if run is None:
            raise SexprError("the skeleton names a step where no rule steps the term")
        p, (v, found) = v[1], run.scan(v[1])  # the row's congruence here, or else its axiom fired
        rule = run.axiom if v is None else found
        for name in (_NAMES[run.lift], _NAMES[rule.record]):
            if at is None or at.name != name:
                raise SexprError(f"expected {name}, got {'nothing' if at is None else at.name}")
            at = at.inner
        if v is None:
            if at is not None or found is None:
                raise SexprError(f"the term does not step by {_NAMES[rule.record]} alone")
            break
        frames = rule.apply, p, frames
    target, d = found
    while frames:
        apply, p, frames = frames
        target, d = apply(p, target, d)
    return d
