"""Reified small-step derivations, the step rules as data, and the driver.

Each fragment owns its own derivation constructors; the composed relation
wraps them.  Derivations store the terms they mention, so a derivation can
be checked against a claimed (source, target) pair with no extra context.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import fields

from .functor import Pair, Slot, Term, define, is_natural, record
from .lang import FRAGMENTS, LIFTERS, SLOT_PATHS, array_lookup, enat, nat_value, view


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
# literals, with its congruence record; and its axiom for when all do: its
# record, and its reduct from the record's fields, or None.  A layout names
# what those fields after the premise hold of a slot j: "termj" its term in
# the source, "afterj" its term in the target, "natj" its literal.
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

# The rows as they run.  A Run holds a row's lift; scan(p), which gives the
# view of payload p's first context slot that holds no literal, with its
# Rule, or None once all do; the axiom's Rule; and each Rule by its record.
# A Rule holds its record; check(s, p, q), false or None unless record s
# holds what source payload p (and a congruence's target payload q) does,
# and then the axiom's reduct, or a congruence's premise with its slot's
# terms in p and q; and apply: a congruence's apply(p, after, d) gives the
# target, p with its slot holding after, and the derivation; the axiom's
# apply(p) its reduct and derivation, or None.
Run = namedtuple("Run", "lift scan axiom rules")
Rule = namedtuple("Rule", "record check apply")
# Each kind of field: its record's argument (a literal's once it holds one),
# and its check against payload {2}, a stored term by identity before ==.
_CODE = {
    "term": ("p.{1}", "(s.{0} is {2}.{1} or s.{0} == {2}.{1})"),
    "after": ("after", "(s.{0} is q.{1} or s.{0} == q.{1})"),
    "nat": ("view(p.{1})[1].value", "is_natural(s.{0}) and nat_value({2}.{1}) == s.{0}"),
}


def _rebuilt(path: str, at: str = "p") -> str:
    # The payload at ``at`` with the Slot ``path`` reaches holding ``after``.
    head, _, rest = path.partition(".")
    inner = rest and _rebuilt(rest, f"{at}.{head}")
    return {"term": "Slot(after)", "fst": f"Pair({inner}, {at}.snd)", "snd": f"Pair({at}.fst, {inner})"}[head]


def _compile(case: str, row: StepRule) -> Run:
    paths, rules, scan = SLOT_PATHS[case], {}, []
    names = dict(lift=LIFTERS[case], via=row.lift, reduce=row.axiom[2], Pair=Pair, Slot=Slot, view=view)
    names.update(is_natural=is_natural, nat_value=nat_value)  # what the generated code calls
    for slot, record, layout in (*row.context, (None, *row.axiom[:2])):
        tokens = layout.split()  # what each field after the premise holds
        held = [(_CODE[at[:-1]], f.name, int(at[-1])) for at, f in zip(tokens, fields(record)[-len(tokens):])]
        args = ", ".join(code[0].format(name, paths[j]) for code, name, j in held)
        # Each field against the source, and one in a slot a congruence leaves alone against the target.
        checks = [code[1].format(name, paths[j], "p") for code, name, j in held]
        checks += [code[1].format(name, paths[j], "q") for code, name, j in held if slot not in (None, j)]
        ns, checked = dict(names, rule=record), " and ".join(checks)
        if slot is None:
            check = define("check", "s, p, q", [f"return {checked} and reduce({args})"], ns)
            fire = [f"a = {args},", "reduct = reduce(*a)"]
            fire.append("return None if reduct is None else (reduct, via(rule(*a)))")
            rules[record] = Rule(record, check, define("fire", "p", fire, ns))
            continue
        premise = f"s.inner, p.{paths[slot]}, q.{paths[slot]}"
        check = define("check", "s, p, q", [f"return ({premise}) if {checked} else None"], ns)
        line = f"return lift({_rebuilt(paths[slot])}), via(rule(d, {args}))"
        names[f"rule{slot}"] = rules[record] = Rule(record, check, define("apply", "p, after, d", [line], ns))
        scan += [f"v = view(p.{paths[slot]})", 'if v is None or v[0] != "nat":', f"    return v, rule{slot}"]
    return Run(row.lift, define("scan", "p", scan, names), rules[row.axiom[0]], rules)


RUNS = {case: _compile(case, row) for case, row in STEPS.items()}


def validate_step(d: ComposedStep, source: Term, target: Term) -> bool:
    """True iff d is well-formed throughout and relates source to target.

    Each node is checked by its source's row against one ``view`` of each
    endpoint, so none is rebuilt: literals against viewed values, stored terms
    against viewed slot terms, an axiom's reduct against the row's.
    """
    while True:
        sv = view(source) if isinstance(source, Term) else None
        tv = view(target) if isinstance(target, Term) else None
        run = RUNS.get(sv[0]) if sv is not None and tv is not None else None
        rule = run.rules.get(type(d.step)) if run is not None and isinstance(d, run.lift) else None
        if rule is None:
            return False
        if rule is run.axiom:  # its check gives the reduct, which the target must equal
            reduct = rule.check(d.step, sv[1], None)
            return isinstance(reduct, Term) and reduct == target
        premise = rule.check(d.step, sv[1], tv[1]) if tv[0] == sv[0] else None
        if premise is None:
            return False
        d, source, target = premise


def drive_step(t: Term) -> tuple[Term, ComposedStep] | None:
    """One deterministic step, or None on a normal form.

    The walk goes down each row's first context slot that holds no literal
    to a node whose context slots all do; there the axiom fires, and the
    targets and derivations are built back up the frames the walk stacked.
    """
    v, frames = view(t), ()  # frames: (apply, payload, the frames above)
    while True:
        run = RUNS.get(v[0]) if v is not None else None
        if run is None:
            return None
        p = v[1]
        found = run.scan(p)
        if found is None:  # every context slot holds a literal
            break
        v, rule = found
        frames = (rule.apply, p, frames)
    done = run.axiom.apply(p)
    if done is None:
        return None
    target, d = done
    while frames:
        apply, p, frames = frames
        target, d = apply(p, target, d)
    return target, d


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
