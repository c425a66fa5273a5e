"""Reified small-step derivations, the step rules as data, and the driver.

Each fragment owns its own derivation constructors; the composed relation
wraps them.  Derivations store the terms they mention, so a derivation can
be checked against a claimed (source, target) pair with no extra context.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import fields
from typing import Callable

from .functor import Pair, Slot, Term, define, is_natural, record
from .lang import FRAGMENTS, LIFTERS, LITERAL, SLOT_PATHS, array_lookup, enat, nat_value, read_view, view


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


# Each stepping case's rule as a row of data; a case with no row never
# steps.  A row holds its lift; its evaluation context: each payload slot
# (as lang.SLOT_PATHS numbers them) that steps once the slots before it hold
# literals (terms of case LITERAL), with its congruence record; and its
# axiom for when all do: its record, and its reduct from the record's
# fields, or None.  A layout names what those fields after the premise hold
# of a slot j: "termj" its term in the source, "afterj" its term in the
# target, "natj" its literal.
StepRule = namedtuple("StepRule", "lift context axiom")


def _lookup(array: Term, n: int) -> Term | None:
    v = view(array)  # a lookup fires on an array only
    return array_lookup(array, n) if v is not None and v[0] in FRAGMENTS["array"] else None


STEPS = {
    "plus": StepRule(
        ViaSum,
        ((0, StepL, "term0 after0 term1"), (1, StepR, "nat0 term1 after1")),
        (StepV, "nat0 nat1", lambda n, m: enat(n + m)),
    ),
    "index": StepRule(ViaArray, ((1, StepI, "term0 term1 after1"),), (Lookup, "term0 nat1", _lookup)),
}


def layout(record: type, text: str) -> list[tuple[str, str, int]]:
    """What a layout names: each field of ``record`` after its premise, as (kind, field, slot)."""
    tokens = text.split()
    return [(at[:-1], f.name, int(at[-1])) for at, f in zip(tokens, fields(record)[-len(tokens):])]


# Each kind of field a layout names: its record's argument, as a
# congruence's apply reads it from payload p; what the field must be on its
# own, checked once per record, or None; and its check against payload
# {2}, a stored term by identity before ==.
FIELD_CODE = {
    "term": ("p.{1}", None, "(s.{0} is {2}.{1} or s.{0} == {2}.{1})"),
    "after": ("after", None, "(s.{0} is q.{1} or s.{0} == q.{1})"),
    "nat": ("view(p.{1})[1].value", "is_natural(s.{0})", "nat_value({2}.{1}) == s.{0}"),
}


def _rebuilt(path: str, at: str = "p") -> str:
    # The payload at ``at`` with the Slot ``path`` reaches holding ``after``.
    head, _, rest = path.partition(".")
    inner = rest and _rebuilt(rest, f"{at}.{head}")
    return {"term": "Slot(after)", "fst": f"Pair({inner}, {at}.snd)", "snd": f"Pair({at}.fst, {inner})"}[head]


# Each kind of field the axiom's record holds: the argument that fills it,
# a slot's term in payload p or the literal the scan read from the slot's
# view, and its check, a stored term by identity before ==.
_AXIOM_CODE = {
    "term": ("p.{path}", "(s.{field} is {arg} or s.{field} == {arg})"),
    "nat": ("p{slot}.value", "is_natural(s.{field}) and s.{field} == {arg}"),
}


def _axiom_args(case: str, row: StepRule) -> list[tuple[str, str]]:
    # Each field of the axiom's record, as (the argument that fills it, its check).
    paths, args = SLOT_PATHS[case], []
    for kind, name, j in layout(*row.axiom[:2]):
        arg, check = _AXIOM_CODE[kind]
        arg = arg.format(path=paths[j], slot=j)
        args.append((arg, check.format(field=name, arg=arg)))
    return args


def scanned(case: str, row: StepRule, stepped: list[str]) -> list[str]:
    """Lines of code that scan payload ``p`` of a ``case`` node by its row.

    Each context slot's view is read, in row order, and the lines
    ``stepped`` (formatted with the slot) run on the first that holds no
    literal; past them, ``a`` holds the axiom's arguments, with the literals
    the scan read.  The driver, ``validate_step`` and ``elaborate_step`` run
    these lines.
    """
    paths, lines = SLOT_PATHS[case], []
    for slot, _, _ in row.context:
        lines += [f"x = p.{paths[slot]}", *read_view("x", f"tag{slot}", f"p{slot}"), f"if tag{slot} != {LITERAL!r}:"]
        lines += ["    " + line.format(slot=slot) for line in stepped]
    return [*lines, f"a = {', '.join(arg for arg, _ in _axiom_args(case, row))},"]


def _compile_apply(case: str, slot: int, record: type, text: str) -> Callable:
    # A congruence's apply(p, after, d): the target, payload p with the slot
    # holding after, and the derivation of the step to it from d.
    paths, row = SLOT_PATHS[case], STEPS[case]
    args = ", ".join(FIELD_CODE[kind][0].format(name, paths[j]) for kind, name, j in layout(record, text))
    names = dict(lift=LIFTERS[case], via=row.lift, rule=record, Pair=Pair, Slot=Slot, view=view)
    return define("apply", "p, after, d", [f"return lift({_rebuilt(paths[slot])}), via(rule(d, {args}))"], names)


# Each congruence record's apply, which builds a step back up one level.
APPLY = {rule[1]: _compile_apply(case, *rule) for case, row in STEPS.items() for rule in row.context}


def _compile_driver() -> Callable:
    # drive_step for the rows of STEPS: one loop whose body is each row's
    # scan and axiom inline, under a test of the node's case.
    names, lines = {"view": view}, [*read_view("t", "tag", "p"), "frames = ()", "while True:"]
    for i, (case, row) in enumerate(STEPS.items()):
        for slot, record, _ in row.context:  # each context slot that holds no literal is stepped
            names[f"apply{i}_{slot}"] = APPLY[record]
        stepped = [f"frames = apply{i}_{{slot}}, p, frames", "tag, p = tag{slot}, p{slot}", "continue"]
        record, _, names[f"reduce{i}"] = row.axiom
        names[f"via{i}"], names[f"rule{i}"] = row.lift, record
        body = [*scanned(case, row, stepped), f"target = reduce{i}(*a)"]
        body += ["if target is None:", "    return None", f"d = via{i}(rule{i}(*a))", "break"]
        lines += [f"    if tag == {case!r}:", *("        " + line for line in body)]
    lines += ["    return None", "while frames:", "    apply, p, frames = frames"]
    return define("drive_step", "t", [*lines, "    target, d = apply(p, target, d)", "return target, d"], names)


def _compile_validate() -> Callable:
    # validate_step for the rows of STEPS: one loop down the derivation's
    # premises, with each row's rules inline under a test of the source's
    # case.  A congruence's fields are checked against both endpoints'
    # payloads; the axiom's against the literals the row's scan reads, and
    # its reduct against the target.
    names = {"Term": Term, "view": view, "is_natural": is_natural, "nat_value": nat_value}
    loop = []
    for i, (case, row) in enumerate(STEPS.items()):
        paths, body = SLOT_PATHS[case], [f"if not isinstance(d, via{i}):", "    return False", "s = d.step"]
        names[f"via{i}"] = row.lift
        for slot, record, text in row.context:
            held = layout(record, text)
            # Each field on its own and against the source, and one in a slot
            # the congruence leaves alone against the target.
            checks = [c.format(name, paths[j], "p") for kind, name, j in held for c in FIELD_CODE[kind][1:] if c]
            checks += [FIELD_CODE[kind][2].format(name, paths[j], "q") for kind, name, j in held if j != slot]
            names[f"rule{i}_{slot}"] = record
            body += [f"if type(s) is rule{i}_{slot}:", f"    if tag_t != tag or not ({' and '.join(checks)}):"]
            body += ["        return False", f"    d, source, target = s.inner, p.{paths[slot]}, q.{paths[slot]}"]
            body += ["    continue"]
        record, _, names[f"reduce{i}"] = row.axiom
        names[f"rule{i}"] = record
        checks = " and ".join(check for _, check in _axiom_args(case, row))
        axiom = [*scanned(case, row, ["return False"]), f"if not ({checks}):", "    return False"]
        axiom += [f"reduct = reduce{i}(*a)", "return isinstance(reduct, Term) and reduct == target"]
        body += [f"if type(s) is rule{i}:", *("    " + line for line in axiom), "return False"]
        loop += [f"if tag == {case!r}:", *("    " + line for line in body)]
    lines = ["if not (isinstance(source, Term) and isinstance(target, Term)):", "    return False", "while True:"]
    lines += ["    " + line for line in [*read_view("source", "tag", "p"), *read_view("target", "tag_t", "q")]]
    lines += ["    if tag_t is None:", "        return False", *("    " + line for line in loop), "    return False"]
    return define("validate_step", "d, source, target", lines, names)


validate_step = _compile_validate()
validate_step.__module__ = __name__
validate_step.__doc__ = """True iff d is well-formed throughout and relates source to target.

Each node is checked by its source's row against one view of each endpoint,
so none is rebuilt: literals against viewed values, stored terms against
viewed slot terms, an axiom's reduct against the row's.  The body is
generated from ``STEPS`` at import, with each row's rules inline; a node's
view is the one its lifter recorded, or ``view``'s.
"""

drive_step = _compile_driver()
drive_step.__module__, drive_step.__doc__ = __name__, """One deterministic step of a term, or None on a normal form.

The walk goes down each row's first context slot that holds no literal to
a node whose context slots all do; there the axiom fires on the literals
the walk read, and the targets and derivations are built back up the
frames it stacked, by each congruence's ``apply`` in ``APPLY``.  The body
is generated from ``STEPS`` at import, with each row's case test, scan and
axiom inline; a node's view is the one its lifter recorded, or ``view``'s.
"""


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
