"""The interpreted row loops that preserve and elaborate_step replaced.

preserve and elaborate_step are generated from the rows at import.  The
loops below are the ones they replaced, kept unchanged as the specification,
over tables built here from the same rows: each step record's level, read
off the step and typing rows with attrgetter, and each step row's scan and
congruences, interpreted over the rows.  The differential test checks that
the generated bodies give the same outcome (the rendered result, or the
exception's class and message) on matched and mismatched inputs.
"""

import random
from collections import namedtuple
from dataclasses import fields, replace
from functools import reduce
from operator import attrgetter

from fraglang.functor import Pair, Slot, Term, fold, is_natural
from fraglang.generate import random_typed_term
from fraglang.lang import FEXPR, LIFTERS, SLOT_PATHS, nat_value, view
from fraglang.preservation import AXIOMS, COMPOSED_HOOKS, SubjectMismatchError, preserve
from fraglang.semantics import LITERAL, STEPS, ViaArray, ViaSum, layout, trace
from fraglang.sexpr import _NAMES, SexprError, StepSkeleton, elaborate_step, parse_derivation, render_derivation
from fraglang.typecheck import RULES, LangType, LiftWtArray, LiftWtSum, infer

STEP_NAMES = ("step⁺", "step[]", "stepl", "stepr", "stepv", "stepi", "lookup")

# -- the reference preserve ------------------------------------------------


def _is_literal(t, n):
    return is_natural(n) and isinstance(t, Term) and nat_value(t) == n


Congruence = namedtuple("Congruence", "lift rule held k at after sources")


def _congruence(case, slot, step_record, text):
    row, named = RULES[case], layout(step_record, text)
    slots = [s for s, _ in row.premises]
    n, k = len(slots), slots.index(slot)
    after = attrgetter(*(name for kind, name, j in named if (kind, j) == ("after", slot)))
    sources = [(n + slots.index(j), attrgetter(name), kind == "nat") for kind, name, j in named if kind != "after"]
    held = attrgetter(*(f.name for f in fields(row.rule)))
    return Congruence(row.lift, row.rule, held, k, n + k, after, sources)


Level = namedtuple("Level", "via lift congruence")
LEVELS = {
    record: Level(row.lift, RULES[case].lift, None if slot is None else _congruence(case, slot, record, text))
    for case, row in STEPS.items()
    for slot, record, text in (*row.context, (None, *row.axiom[:2]))
}


def reference_preserve(step, wt):
    frames = []
    while True:
        kind = type(getattr(step, "step", None))
        level = LEVELS.get(kind)
        if level is None or type(step) is not level.via or not isinstance(wt, level.lift):
            via = type(step)
            lift = next((other.lift for other in LEVELS.values() if other.via is via), None)
            if lift is None or not isinstance(wt, lift):
                raise SubjectMismatchError(f"step {via.__name__} cannot pair with typing {type(wt).__name__}")
            raise SubjectMismatchError(f"not a {via.__name__} step: {kind.__name__}")
        step, wt, c = step.step, wt.inner, level.congruence
        if c is None:
            break
        if not isinstance(wt, c.rule):
            raise SubjectMismatchError(f"{kind.__name__} against typing {type(wt).__name__}")
        held = list(c.held(wt))
        for at, read, nat in c.sources:
            have, want = held[at], read(step)
            if not (_is_literal(have, want) if nat else have is want or have == want):
                raise SubjectMismatchError(f"{kind.__name__} subject mismatch")
        held[c.at] = c.after(step)
        frames.append((c, held))
        step, wt = step.inner, held[c.k]
    wt = AXIOMS[kind](COMPOSED_HOOKS, step, wt)
    while frames:
        c, held = frames.pop()
        held[c.k] = wt
        wt = c.lift(c.rule(*held))
    return wt


# -- the reference elaborate_step -------------------------------------------
# Each row as it runs: its lift; scan(p), the view of payload p's first
# context slot that holds no literal with its Rule, or once all do None
# with the axiom's reduct and derivation, or None; the axiom's Rule; and
# each Rule by its record, with a congruence's apply(p, after, d).

Run = namedtuple("Run", "lift scan axiom rules")
Rule = namedtuple("Rule", "record apply")


def _at(p, path):
    return reduce(getattr, path.split("."), p)


def _put(p, path, after):
    # Payload p with the slot ``path`` reaches holding ``after``.
    head, _, rest = path.partition(".")
    if head == "term":
        return Slot(after)
    inner = _put(getattr(p, head), rest, after)
    return Pair(inner, p.snd) if head == "fst" else Pair(p.fst, inner)


def _apply(case, slot, record, text):
    paths, via = SLOT_PATHS[case], STEPS[case].lift

    def apply(p, after, d):
        args = [
            after if kind == "after" else view(_at(p, paths[j]))[1].value if kind == "nat" else _at(p, paths[j])
            for kind, _, j in layout(record, text)
        ]
        return LIFTERS[case](_put(p, paths[slot], after)), via(record(d, *args))

    return apply


def _run(case, row):
    paths = SLOT_PATHS[case]
    rules = {record: Rule(record, _apply(case, slot, record, text)) for slot, record, text in row.context}
    rules[row.axiom[0]] = Rule(row.axiom[0], None)

    def scan(p):
        literals = {}
        for slot, record, _ in row.context:
            v = view(_at(p, paths[slot])) or (None, None)
            if v[0] != LITERAL:
                return v, rules[record]
            literals[slot] = v[1].value
        record, text, reduct = row.axiom
        args = [literals[j] if kind == "nat" else _at(p, paths[j]) for kind, _, j in layout(record, text)]
        target = reduct(*args)
        return None, None if target is None else (target, row.lift(record(*args)))

    return Run(row.lift, scan, rules[row.axiom[0]], rules)


RUNS = {case: _run(case, row) for case, row in STEPS.items()}


def reference_elaborate_step(skeleton, source):
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


# -- the differential --------------------------------------------------------


def _outcome(fn, *args):
    # The rendered result, with the result itself for the terms the text
    # leaves implicit; or the exception's class and message.
    try:
        result = fn(*args)
    except Exception as exc:  # every outcome is compared, failures included
        return type(exc), str(exc)
    return render_derivation(result), result


def _steps(rng):
    # (source, step derivation, typing of the source) along seeded traces,
    # on the drawn terms and on view-less copies of them.
    steps = []
    for _ in range(200):
        t = random_typed_term(rng, rng.choice([LangType.NAT, LangType.OPTION]), rng.randrange(2, 10))
        for source in (t, fold(FEXPR, Term, t)):
            for target, d in trace(source, 16):
                steps.append((source, d, infer(source)[1]))
                source = target
    return steps


def _swapped(x, swaps):
    swap = swaps.get(type(x))
    return x if swap is None else swap(x.step if hasattr(x, "step") else x.inner)


def _posing(d):
    # d with each field of its outermost record that holds the literal 1
    # holding True, which == takes for 1; or d, where none does.
    s = d.step
    posing = {f.name: True for f in fields(s) if type(getattr(s, f.name)) is int and getattr(s, f.name) == 1}
    return type(d)(replace(s, **posing))


def _chain(names):
    at = None
    for name in reversed(names):
        at = StepSkeleton(name, at)
    return at


def _skeletons(d, rng):
    # d's skeleton; a copy with one name changed; one cut short; and one
    # with a premise under its axiom.
    names, at = [], parse_derivation(render_derivation(d))
    while at is not None:
        names, at = names + [at.name], at.inner
    k = rng.randrange(len(names))
    renamed = names[:k] + [rng.choice([name for name in STEP_NAMES if name != names[k]])] + names[k + 1:]
    return [_chain(names), _chain(renamed), _chain(names[:-1]), _chain(names + names[-1:])]


def test_generated_bodies_match_the_interpreted_loops():
    rng = random.Random(97)
    steps = _steps(rng)
    vias, lifts = {ViaSum: ViaArray, ViaArray: ViaSum}, {LiftWtSum: LiftWtArray, LiftWtArray: LiftWtSum}
    preserved = elaborated = failed = 0
    for source, d, wt in steps:
        others = [rng.choice(steps) for _ in range(3)]
        pairs = [(d, wt), *((d, other[2]) for other in others)]  # matched, then mismatched typings
        pairs += [(_swapped(d, vias), wt), (d, _swapped(wt, lifts)), (_posing(d), wt)]
        pairs += [(d.step, wt), (d, getattr(wt, "inner", wt)), (d.step, getattr(wt, "inner", wt))]  # bare records
        for step, typing in pairs:
            expected = _outcome(reference_preserve, step, typing)
            assert _outcome(preserve, step, typing) == expected, render_derivation(d)
            preserved += 1
            failed += isinstance(expected[0], type)
        # Each skeleton on the source, a view-less copy of it, and the wrong sources.
        for skeleton in _skeletons(d, rng):
            for term in (source, fold(FEXPR, Term, source), *(other[0] for other in others)):
                expected = _outcome(reference_elaborate_step, skeleton, term)
                assert _outcome(elaborate_step, skeleton, term) == expected, render_derivation(d)
                elaborated += 1
                failed += isinstance(expected[0], type)
    assert preserved > 10_000 and elaborated > 20_000 and failed > 20_000
