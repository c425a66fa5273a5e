"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The preservation and oracle-equivalence criteria share a single exhaustive
pass of the sweep engine over roughly 1.1 million enumerated terms (all
constructor shapes to nesting depth two, literal pool {0, 1}); the pass
takes a few minutes and is cached module-wide.
"""

import random
import time

import pytest

from fraglang.functor import AtomVal, BaseSet, InL, InR, Pair, Slot, UNIT, fmap
from fraglang.generate import enumerate_terms, random_payload, random_term, random_typed_term
from fraglang.lang import (
    ARRAY,
    LIFT_ARRAY,
    LIFT_NAT,
    LIFT_OPTION,
    LIFT_SUM,
    NAT,
    OPTION,
    SUM,
    assign,
    enat,
    index,
    nil,
    none,
    plus,
    some,
)
from fraglang.oracle import embed, mono_infer, mono_step
from fraglang.preservation import preserve
from fraglang.semantics import drive_step, trace
from fraglang.sexpr import elaborate_step, parse_derivation, render_derivation
from fraglang.subobject import downcast, upcast
from fraglang.surface import parse, render
from fraglang.sweeps import preservation_sweep, sweep
from fraglang.typecheck import LangType, infer
from goldens import (
    EVAL_EXP_SEXPR,
    EXP_TEXT,
    PRESERVED_SEXPR,
    WT_EXP_SEXPR,
    eval_exp_derivation,
    exp_after_one_step,
    exp_term,
    preserved_wt_exp,
    wt_exp,
)

SWEEP_DEPTH = 2
SWEEP_LITERALS = (0, 1)


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_worked_example_golden():
    started = time.perf_counter()
    term = parse(EXP_TEXT)
    assert term == exp_term()

    typed = infer(term)
    ok = typed is not None and typed[0] is LangType.OPTION and typed[1] == wt_exp()

    stepped = drive_step(term)
    ok = ok and stepped is not None
    target, step = stepped
    ok = ok and target == exp_after_one_step() == parse("(nil[0] := 1) ! 1")
    ok = ok and step == eval_exp_derivation()
    ok = ok and render_derivation(step) == EVAL_EXP_SEXPR

    rewritten = preserve(step, typed[1])
    ok = ok and rewritten == preserved_wt_exp()
    ok = ok and render_derivation(typed[1]) == WT_EXP_SEXPR
    ok = ok and render_derivation(rewritten) == PRESERVED_SEXPR

    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report(1, ok, f"worked example, {elapsed*1000:.0f} ms")
    assert ok


def _typed_steppable_terms(child_depth, literals):
    """Every well-typed steppable term whose operands have depth <= child_depth.

    Steppable roots are additions and lookups only, and well-typedness pins
    their operand types, so this population is exhaustive for its bound.
    """
    nats = [enat(v) for v in literals]
    arrays = [nil()]
    for _ in range(child_depth):
        new_nats = nats + [plus(a, b) for a in nats for b in nats]
        new_arrays = arrays + [
            assign(a, i, e) for a in arrays for i in nats for e in nats
        ]
        nats, arrays = _dedup(new_nats), _dedup(new_arrays)
    for a in nats:
        for b in nats:
            yield plus(a, b)
    for a in arrays:
        for i in nats:
            yield index(a, i)


def _dedup(terms):
    seen = set()
    out = []
    for t in terms:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _agrees_with_oracle(t, typed, stepped):
    """Criterion 3: typing and one step agree with the monolithic twin."""
    m = embed(t)
    notes = []
    if (None if typed is None else typed[0]) is not mono_infer(m):
        notes.append("typing disagrees")
    if (None if stepped is None else embed(stepped[0])) != mono_step(m):
        notes.append("step disagrees")
    return notes


@pytest.fixture(scope="module")
def exhaustive_sweep():
    checks = {"preservation": preservation_sweep, "oracle": _agrees_with_oracle}
    enumerated, oracle = sweep(enumerate_terms(SWEEP_DEPTH, SWEEP_LITERALS), checks)
    # the complete well-typed steppable population one level deeper
    (deeper,) = sweep(_typed_steppable_terms(2, SWEEP_LITERALS), {"preservation": preservation_sweep})
    preservation_failures = enumerated.offenders + deeper.offenders
    if deeper.exercised != deeper.checked:
        missed = deeper.checked - deeper.exercised
        preservation_failures.append(f"{missed} deeper terms are not typed and steppable")
    return {
        "population": enumerated.checked,
        "exercised": enumerated.exercised + deeper.exercised,
        "preservation_failures": preservation_failures,
        "oracle_failures": oracle.offenders,
    }


def test_criterion_2_desk_scale_preservation(exhaustive_sweep):
    failures = exhaustive_sweep["preservation_failures"]
    detail = (
        f"{exhaustive_sweep['exercised']} well-typed steppable terms, enumerated "
        f"population {exhaustive_sweep['population']}, {len(failures)} failures"
    )
    report(2, not failures, detail)
    assert exhaustive_sweep["population"] > 10_000
    assert exhaustive_sweep["exercised"] > 5_000
    # the exact counts, so a sweep that drops terms cannot pass
    assert exhaustive_sweep["population"] == 1_146_604
    assert exhaustive_sweep["exercised"] == 8_388
    assert not failures, failures


def test_criterion_3_oracle_equivalence(exhaustive_sweep):
    failures = exhaustive_sweep["oracle_failures"]
    detail = f"{exhaustive_sweep['population']} terms, {len(failures)} disagreements"
    report(3, not failures, detail)
    assert not failures, failures


LIFTS = [LIFT_NAT, LIFT_OPTION, LIFT_SUM, LIFT_ARRAY]


def _payloads_for(path):
    pool = list(enumerate_terms(1))
    leaves = list(enumerate_terms(0))
    if path == LIFT_NAT:
        return [AtomVal(BaseSet.NAT, v) for v in (0, 1, 2)]
    if path == LIFT_OPTION:
        return [InR(AtomVal(BaseSet.UNIT, UNIT))] + [InL(Slot(t)) for t in pool]
    if path == LIFT_SUM:
        return [Pair(Slot(a), Slot(b)) for a in pool for b in pool]
    payloads = [InL(InR(AtomVal(BaseSet.UNIT, UNIT)))]
    payloads += [
        InL(InL(Pair(Slot(a), Pair(Slot(i), Slot(e)))))
        for a in leaves
        for i in leaves
        for e in leaves
    ]
    payloads += [InR(Pair(Slot(a), Slot(i))) for a in pool for i in pool]
    return payloads


def test_criterion_4_subobject_algebra():
    checked = 0
    failures = []
    for path in LIFTS:
        seen = {}
        for p in _payloads_for(path):
            checked += 1
            t = upcast(path, p)
            if downcast(path, t) != p:
                failures.append("round trip")
            if seen.setdefault(t, p) != p:
                failures.append("injectivity")
            for other in LIFTS:
                if other != path and downcast(other, t) is not None:
                    failures.append("disjointness")

    # regression: a lift that forgets its argument has no round trip
    forgetful = lambda pair: enat(0)
    p = Pair(Slot(enat(1)), Slot(enat(2)))
    q = Pair(Slot(enat(3)), Slot(enat(4)))
    if forgetful(p) != forgetful(q) or downcast(LIFT_SUM, forgetful(p)) == p:
        failures.append("forgetful lift not caught")

    report(4, not failures, f"{checked} payloads across 4 paths")
    assert not failures, failures


def test_criterion_5_functor_laws():
    rng = random.Random(99)
    transforms = [
        lambda t: t,
        some,
        lambda t: plus(t, enat(0)),
        lambda t: index(t, enat(1)),
        lambda t: assign(nil(), enat(0), t),
    ]
    checked = 0
    failures = 0
    for desc in (NAT, OPTION, SUM, ARRAY):
        for _ in range(1000):
            p = random_payload(rng, desc, rng.randrange(4))
            g = rng.choice(transforms)
            h = rng.choice(transforms)
            checked += 1
            if fmap(desc, lambda t: t, p) != p:
                failures += 1
            if fmap(desc, lambda t: g(h(t)), p) != fmap(desc, g, fmap(desc, h, p)):
                failures += 1
    report(5, failures == 0, f"{checked} payloads, identity and composition")
    assert failures == 0


def test_criterion_6_injection_spine_encodings():
    a, b = enat(6), enat(7)
    e = enat(1)
    checks = {
        "enat": enat(6).node == InL(InL(InL(AtomVal(BaseSet.NAT, 6)))),
        "plus": plus(a, b).node == InL(InR(Pair(Slot(a), Slot(b)))),
        "none": none().node == InL(InL(InR(InR(AtomVal(BaseSet.UNIT, UNIT))))),
        "some": some(e).node == InL(InL(InR(InL(Slot(e))))),
        "nil": nil().node == InR(InL(InR(AtomVal(BaseSet.UNIT, UNIT)))),
        "assign": assign(nil(), enat(0), e).node
        == InR(InL(InL(Pair(Slot(nil()), Pair(Slot(enat(0)), Slot(e)))))),
        "index": index(nil(), enat(0)).node
        == InR(InR(Pair(Slot(nil()), Slot(enat(0))))),
    }
    bad = [name for name, ok in checks.items() if not ok]
    report(6, not bad, f"{len(checks)} injection spines")
    assert not bad, bad


def test_criterion_7_serialization_round_trips():
    rng = random.Random(123)
    failures = []

    surface_cases = 0
    for _ in range(1000):
        t = random_term(rng, rng.randrange(10))
        surface_cases += 1
        if parse(render(t)) != t:
            failures.append(f"surface: {render(t)}")

    typing_cases = 0
    while typing_cases < 1000:
        t = random_typed_term(rng, rng.choice(list(LangType)), rng.randrange(8))
        _, derivation = infer(t)
        typing_cases += 1
        if parse_derivation(render_derivation(derivation)) != derivation:
            failures.append(f"typing: {render(t)}")

    step_cases = 0
    while step_cases < 1000:
        t = random_typed_term(rng, rng.choice(list(LangType)), rng.randrange(2, 10))
        source = t
        for target, derivation in trace(t, 16):
            text = render_derivation(derivation)
            if elaborate_step(parse_derivation(text), source) != derivation:
                failures.append(f"step: {render(source)}")
            source = target
            step_cases += 1

    detail = f"{surface_cases} terms, {typing_cases} typing, {step_cases} step derivations"
    report(7, not failures, detail)
    assert not failures, failures[:5]
