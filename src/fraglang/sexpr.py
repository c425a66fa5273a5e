"""Symbolic form for derivations.

Derivations print as s-expressions over the rule names, with the terms the
rules mention left implicit, exactly as the proof trees are displayed.
Typing derivations decode bottom-up: each rule builds the term it types
once, from the terms its premises returned, so they round-trip on their
own.  Step derivations round-trip as a skeleton of rule names, which
elaborate_step follows down a source term through the step rows of
``semantics.STEPS``, never running the driver: each name must be the one
the row allows at its level, and the derivation is built back up the path
by each congruence's ``apply`` in ``semantics.APPLY``.  The renderer, the
reader and elaborate_step are generated from the rows at import.

Terms appear in one place only (the term of an option's typing) and are
embedded as a double-quoted surface-syntax string.
"""

from __future__ import annotations

import re
import sys
from dataclasses import fields
from typing import Callable, get_args

from .functor import Term, define, record
from .lang import BUILDERS, SHARED_NATS, enat, nil, read_view, view
from .semantics import APPLY, STEPS, ArrayStep, ComposedStep, SumStep, ViaArray, ViaSum, scanned
from .surface import ParseError, literal_text, parse, render
from .typecheck import (
    RULES as TYPING_RULES,
    WT_NIL,
    LiftWtNat,
    LiftWtOption,
    OkNil,
    wt_nat,
)


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
    **{
        record: (_KEBAB.sub("-", record.__name__).lower(), tuple(f.name for f in fields(record))[:n])
        for row in TYPING_RULES.values()
        if row.rule is not None
        for record, n in ((row.lift, 1), (row.rule, len(row.premises)))
    },
    ViaSum: ("step⁺", ("step",)),
    ViaArray: ("step[]", ("step",)),
    **{
        record: (record.__name__.lower(), () if record is row.axiom[0] else ("inner",))
        for row in STEPS.values()
        for record in (*(c[1] for c in row.context), row.axiom[0])
    },
}
_NAMES = {rule: name for rule, (name, _) in _RULES.items()}
_NAMES.update({row.lift: _KEBAB.sub("-", row.lift.__name__).lower() for row in TYPING_RULES.values()})


class _Text(str):
    """Text stacked between premises; a premise that is a plain str is still rejected."""

    __slots__ = ()


# A literal's typing as printed, up to its digits, and the small literals'
# whole, by their value.
_LITERAL = f"({_NAMES[LiftWtNat]} "
_LITERAL_TEXTS = tuple(f"{_LITERAL}{n})" for n in range(SHARED_NATS))


def _not_a_derivation(d) -> SexprError:
    # A str by its repr; anything else by its class, as a deep term's repr recurses too far.
    return SexprError(f"not a derivation: {d!r}" if isinstance(d, str) else f"not a derivation: {type(d).__name__}")


def _compile_render() -> Callable:
    # render_derivation for the rules of _RULES: one loop that writes each
    # record's opener and descends into its first premise, with the text
    # after it, the other premises and the closer, stacked; the two rules
    # rendered in place print their value.  Each test is of the record's class.
    names = dict(Text=_Text, SPACE=_Text(" "), CLOSE=_Text(")"), not_a_derivation=_not_a_derivation)
    names.update(LITERAL=LiftWtNat, OPTION=LiftWtOption, texts=_LITERAL_TEXTS, literal_text=literal_text, render=render)
    option = f'({_NAMES[LiftWtOption]} "'
    loop = [
        "if c is LITERAL:",
        "    n = d.n",
        f"    small = type(n) is int and 0 <= n < {SHARED_NATS}",
        f"    parts.append(texts[n] if small else {_LITERAL!r} + literal_text(n) + ')')",
        "elif c is OPTION:",
        f"    parts.append({option!r} + render(d.term) + '\")')",
    ]
    for i, (record, (name, premises)) in enumerate(_RULES.items()):
        names[f"rule{i}"] = record
        if not premises:
            loop += [f"elif c is rule{i}:", f"    parts.append({name!r})"]
            continue
        later = [f"todo.append(d.{field}); todo.append(SPACE)" for field in reversed(premises[1:])]
        body = [f"parts.append({'(' + name + ' '!r})", "todo.append(CLOSE)", *later, f"d = d.{premises[0]}", "continue"]
        loop += [f"elif c is rule{i}:", *("    " + line for line in body)]
    loop += ["else:", "    raise not_a_derivation(d)"]
    # After a premise, the text stacked above the next one is written.
    loop += ["while todo:", "    d = todo.pop()", "    if type(d) is not Text:", "        break", "    parts.append(d)"]
    loop += ["else:", "    return ''.join(parts)"]
    lines = ["parts, todo = [], []", "while True:", "    c = type(d)", *("    " + line for line in loop)]
    return define("render_derivation", "d", lines, names)


render_derivation = _compile_render()
render_derivation.__module__, render_derivation.__doc__ = __name__, """The symbolic form of a step or typing derivation.

One pass with an explicit stack, so nesting depth is bounded by memory, not
by the recursion limit, and each character is written once: the parts are
joined at the end.  The body is generated from ``_RULES`` at import, with
each record's opener and premises inline.
"""


# -- reading ------------------------------------------------------------


@record
class _Quoted:
    """A quoted term in derivation text, kept apart from names and literals."""

    text: str


# The canonical typing of a literal, as render_derivation prints it: ASCII
# digits, no leading zero.
_NATURAL = re.compile(r"0|[1-9][0-9]*")
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
    if name in _NAMES.values():
        return SexprError(f"expected {' or '.join(sorted(allowed))}, got {name}")
    return SexprError(f"unknown constructor name {name!r}")


def _untyped(premises, kinds: frozenset) -> SexprError:
    # The error for the first premise that is no typing by one of ``kinds``.
    premise = next(p for p in premises if type(p) is not tuple or type(p[0]) not in kinds)
    return _misplaced(premise, kinds)


# The small literals' typings and terms by their token, shared as enat
# shares the terms.
_LITERALS = {text: (wt_nat(n), enat(n)) for n, text in enumerate(_LITERAL_TEXTS)}


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


def _read(token: str, tokens, stack: list[list]) -> list | None:
    # A token the reading loop's tables leave: an opener with no rule's name;
    # a bare '(', whose rule name is the next token; a literal's typing past
    # the table, or the whole text; an atom; or a quoted term.  Gives the
    # form to decode when the token is the whole derivation, else None.
    if token[0] == "(":
        if token[-1] == ")":  # a canonical literal's typing
            if not stack:
                return [_NAMES[LiftWtNat], token[len(_LITERAL):-1]]
            stack[-1].append(_literal(token))
        elif len(token) > 1:
            stack.append([token[1:]])
        else:
            name = next(tokens, None)
            if name is None:
                raise SexprError("missing ')'")
            if name == ")":
                raise SexprError("malformed derivation form: ()")
            if name[0] == "(":
                raise SexprError("malformed derivation form: a form where a rule name belongs")
            stack.append([_atom(name)])
        return None
    if stack:
        stack[-1].append(_atom(token))
        return None
    return [_atom(token)]


def _atom(token: str) -> str | _Quoted:
    if token[0] != '"':
        return token
    if len(token) == 1:
        raise SexprError("unterminated quoted term")
    return _Quoted(token[1:-1])


def _decoder(rule: type, name: str, i: int, names: dict) -> list[str]:
    # The lines that decode a closed form of ``rule``, held in ``form``, to
    # its value: a typing as (derivation, the term it types), a step as its
    # skeleton.  ``names`` receives what they call, numbered by ``i``.
    premises = _RULES[rule][1] if rule in _RULES else (None,)
    size = 1 + len(premises)
    arity = f"malformed {name} form: {size - 1} premises expected"
    lines = [f"if len(form) != {size}:", f"    raise SexprError({arity!r})"]
    malformed = f"raise SexprError({f'malformed {name} form'!r})"
    if not premises:  # a rule with no premises is its bare name only
        return [*lines, malformed]
    xs = [f"x{k}" for k in range(len(premises))]
    lines.append(f"_, {', '.join(xs)} = form")
    if rule is LiftWtNat:
        names["prefix"] = _LITERAL
        test = "type(x0) is not str or not natural(x0)"
        return [*lines, f"if {test}:", "    " + malformed, "value = literal(prefix + x0 + ')')"]
    if rule is LiftWtOption:
        names["options"] = frozenset(case for case, row in TYPING_RULES.items() if row.lift is rule)
        return [
            *lines, "if type(x0) is not Quoted:", "    " + malformed,
            "try:", "    t = parse(x0.text)",
            "except ParseError as exc:", "    raise SexprError(f'not a term: {x0.text!r} ({exc})') from None",
            "if view(t)[0] not in options:", "    raise SexprError(f'not an option term: {x0.text!r}')",
            f"value = rule{i}(t), t",
        ]
    if rule in _STEPS:  # any step rule may stand under any other: elaboration checks the names
        stepped = ["if type(x0) is StepSkeleton:", "    value = StepSkeleton(name, x0)"]
        return [*lines, *stepped, "else:", "    raise misplaced(x0, STEPS)"]
    kinds = frozenset(row.rule for row in TYPING_RULES.values() if row.lift is rule)
    if kinds:  # a lift: its premise is a typing by a rule its rows name
        names[f"kinds{i}"] = kinds
        # The empty array's typing comes back as the one shared object, as in infer.
        lifted = "WT_NIL if x0 is NIL_TYPED else " * (type(_NIL_TYPED[0]) in kinds) + f"rule{i}(x0[0])"
        test = f"type(x0) is tuple and type(x0[0]) in kinds{i}"
        return [*lines, f"if {test}:", f"    value = ({lifted}), x0[1]", "else:", f"    raise misplaced(x0, kinds{i})"]
    # A rule: each premise is a typing, and the term is the case's, built
    # from the premises' terms in slot order.
    case, row = next((case, row) for case, row in TYPING_RULES.items() if row.rule is rule)
    names[f"build{i}"] = BUILDERS[case]
    slots = [slot for slot, _ in row.premises]
    typed = " and ".join([f"type({x}) is tuple" for x in xs] + [f"type({x}[0]) in LIFTS" for x in xs])
    built = ", ".join(f"x{slots.index(slot)}[1]" for slot in range(len(slots)))
    value = f"value = rule{i}({', '.join([x + '[0]' for x in xs] + [x + '[1]' for x in xs])}), build{i}({built})"
    return [*lines, f"if {typed}:", f"    {value}", "else:", "    raise untyped(form[1:], LIFTS)"]


def _compile_parse() -> Callable:
    # parse_derivation for the rules _NAMES names: one loop over the tokens
    # with an explicit stack of open forms, each closed form decoded inline
    # under a test of its rule name.  The openers of named rules, and the
    # tokens that stand for a premise whole (a small literal's typing, a
    # rule with no premises), are read from tables; _read takes the rest.
    names = dict(
        TOKEN=_TOKEN, LEAVES=_LEAVES, PREMISES={**_LITERALS, **_LEAVES},
        OPENERS={"(" + name: name for name in _NAMES.values()},
        SexprError=SexprError, StepSkeleton=StepSkeleton, Quoted=_Quoted, read=_read, literal=_literal,
        natural=_NATURAL.fullmatch, misplaced=_misplaced, untyped=_untyped, LIFTS=_LIFTS, STEPS=_STEPS,
        WT_NIL=WT_NIL, NIL_TYPED=_NIL_TYPED, parse=parse, ParseError=ParseError, view=view,
    )
    decode, test = [], "if"
    for i, (rule, name) in enumerate(_NAMES.items()):
        names[f"rule{i}"] = rule
        decode += [f"{test} name == {name!r}:", *("    " + line for line in _decoder(rule, name, i, names))]
        test = "elif"
    quoted = "raise SexprError(f'a quoted term \"{name.text}\" where a rule name belongs')"
    decode += ["elif type(name) is Quoted:", "    " + quoted]
    decode += ["else:", "    raise SexprError(f'unknown constructor name {name!r}')", "if stack:"]
    decode += ["    stack[-1].append(value)", "    continue", "return value[0] if type(value) is tuple else value"]
    loop = [
        "if token == ')':",
        "    if not stack:",
        "        raise SexprError(\"unexpected ')'\")",
        "    form = stack.pop()",
        "else:",
        "    name = OPENERS.get(token)",
        "    if name is not None:",
        "        stack.append([name])",
        "        continue",
        "    premise = PREMISES.get(token)",
        "    if premise is not None and stack:",
        "        stack[-1].append(premise)",
        "        continue",
        "    form = read(token, tokens, stack)",
        "    if form is None:",
        "        continue",
        # What follows the outermost form is an error before the form is.
        "if not stack and next(tokens, None) is not None:",
        "    raise SexprError('trailing input after derivation')",
        "name = form[0]",
        *decode,
    ]
    lines = [
        "tokens = TOKEN.findall(text)",
        "if len(tokens) == 1 and tokens[0] in LEAVES:",  # the whole text is one rule with no premises
        "    leaf = LEAVES[tokens[0]]",
        "    return leaf[0] if type(leaf) is tuple else leaf",
        "stack = []",
        "tokens = iter(tokens)",
        "for token in tokens:",
        *("    " + line for line in loop),
        "raise SexprError(\"missing ')'\" if stack else 'unexpected end of derivation text')",
    ]
    return define("parse_derivation", "text", lines, names)


parse_derivation = _compile_parse()
parse_derivation.__module__, parse_derivation.__doc__ = __name__, """Read a derivation back from its symbolic form.

Typing derivations come back complete.  Step derivations come back as a
StepSkeleton; apply elaborate_step with the source term to finish.

One pass over the tokens with an explicit stack of open forms, so nesting
depth is bounded by memory, not by the recursion limit.  A form is decoded
when it closes, from premises already decoded: a typing premise as
(derivation, the term it types), a step premise as its skeleton, a quoted
term as a _Quoted, a rule with no premises as itself, and any other literal
or bare name as its text.  A canonical literal's typing is one token,
decoded where it stands.  The body is generated from ``_RULES`` and the
typing rows at import, with each rule's decoder inline.
"""


def _expected(name: str, at: StepSkeleton | None) -> SexprError:
    return SexprError(f"expected {name}, got {'nothing' if at is None else at.name}")


def _compile_elaborate() -> Callable:
    # elaborate_step for the rows of STEPS: one loop down the source whose
    # body is each row's scan inline, under a test of the node's case, as
    # in drive_step.  Each level checks the skeleton's next names, the row's
    # lift's and the rule's the scan picks, and the derivation is built
    # back up the frames by each congruence's apply in APPLY.
    names = dict(view=view, SexprError=SexprError, expected=_expected)

    def named(name: str) -> list[str]:
        # The skeleton at ``at`` names ``name``, the name of a global; ``at`` goes past it.
        return [f"if at is None or at.name != {name}:", f"    raise expected({name}, at)", "at = at.inner"]

    lines = [*read_view("source", "tag", "p"), "frames, at = (), skeleton", "while True:"]
    for i, (case, row) in enumerate(STEPS.items()):
        for slot, record, _ in row.context:
            names[f"apply{i}_{slot}"], names[f"name{i}_{slot}"] = APPLY[record], _NAMES[record]
        stepped = [*named(f"name{i}_{{slot}}"), f"frames = apply{i}_{{slot}}, p, frames"]
        stepped += ["tag, p = tag{slot}, p{slot}", "continue"]
        record, _, names[f"reduce{i}"] = row.axiom
        names.update({f"via{i}": row.lift, f"rule{i}": record})
        names.update({f"name{i}": _NAMES[record], f"vianame{i}": _NAMES[row.lift]})
        alone = f"the term does not step by {_NAMES[record]} alone"
        body = [*named(f"vianame{i}"), *scanned(case, row, stepped), f"target = reduce{i}(*a)", *named(f"name{i}")]
        body += ["if at is not None or target is None:"]
        body += [f"    raise SexprError({alone!r})", f"d = via{i}(rule{i}(*a))", "break"]
        lines += [f"    if tag == {case!r}:", *("        " + line for line in body)]
    lines += ["    raise SexprError('the skeleton names a step where no rule steps the term')"]
    lines += ["while frames:", "    apply, p, frames = frames", "    target, d = apply(p, target, d)", "return d"]
    return define("elaborate_step", "skeleton, source", lines, names)


elaborate_step = _compile_elaborate()
elaborate_step.__module__ = __name__
elaborate_step.__doc__ = """The step derivation from ``source`` whose rules ``skeleton`` names.

The skeleton is followed down the source through ``semantics.STEPS``: at
each level the term's case picks its row and the row's scan its rule, and
the skeleton must name the row's lift and then that rule.  The derivation
is then built back up the path by each congruence's ``apply`` in
``APPLY``.  The body is generated from ``STEPS`` at import, with each row's
scan inline, as in ``drive_step``, which it never calls.  SexprError names
rules, never a term.
"""
