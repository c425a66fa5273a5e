import random
import sys
from dataclasses import fields
from typing import get_args

import pytest

from fraglang.functor import InR, Pair, Prod, Rec, Slot, Term
from fraglang.generate import enumerate_terms, random_term
from fraglang.lang import (
    FRAGMENTS,
    LIFT_ARRAY,
    assign,
    enat,
    index,
    is_value,
    nil,
    none,
    plus,
    some,
    view,
)
from fraglang.semantics import (
    STEPS,
    ArrayStep,
    ComposedStep,
    FuelExhaustedError,
    Lookup,
    StepI,
    StepL,
    StepR,
    StepV,
    SumStep,
    ViaArray,
    ViaSum,
    drive_step,
    trace,
    validate_step,
)
from fraglang.sexpr import elaborate_step, parse_derivation, render_derivation
from fraglang.subobject import downcast
from goldens import eval_exp_derivation, exp_after_one_step, exp_term


def test_validate_worked_example_derivation():
    assert validate_step(eval_exp_derivation(), exp_term(), exp_after_one_step())


def test_validate_rejects_wrong_target():
    d = ViaSum(StepV(0, 1))
    assert not validate_step(d, plus(enat(0), enat(1)), enat(2))


def test_validate_lookup_hit():
    array = assign(nil(), enat(0), enat(1))
    d = ViaArray(Lookup(array, 0))
    source = index(array, enat(0))
    assert validate_step(d, source, some(enat(1)))


def test_validate_compares_a_shared_stored_term_by_identity(monkeypatch):
    # The driver's derivations store the endpoints' own slot terms, so of a
    # stepl and a stepi node's stored terms none reaches Term.__eq__: only
    # each axiom's computed reduct is compared with ==.
    calls = []
    real_eq = Term.__eq__
    monkeypatch.setattr(Term, "__eq__", lambda self, other: calls.append(1) or real_eq(self, other))
    for t in (plus(plus(enat(1), enat(2)), enat(3)), index(nil(), plus(enat(1), enat(2)))):
        target, d = drive_step(t)
        calls.clear()
        assert validate_step(d, t, target)
        assert len(calls) == 1


def test_validate_rejects_invalid_inner():
    bogus = ViaSum(StepV(0, 1))  # relates 0+1 ~> 1, not what StepL stores
    d = ViaSum(StepL(bogus, enat(5), enat(6), enat(7)))
    assert not validate_step(d, plus(enat(5), enat(7)), plus(enat(6), enat(7)))


@pytest.mark.parametrize(
    "d, source, target",
    [
        # a lookup claimed under the sum rule
        (ViaSum(Lookup(nil(), 0)), plus(plus(enat(0), enat(1)), enat(2)), plus(enat(1), enat(2))),
        # an index congruence on an assignment, where no rule steps
        (
            ViaArray(StepI(ViaSum(StepV(0, 1)), nil(), plus(enat(0), enat(1)), enat(1))),
            assign(nil(), enat(0), enat(1)),
            assign(nil(), enat(0), enat(1)),
        ),
        # a sum rule claimed under the array rule
        (ViaArray(StepV(0, 1)), index(nil(), plus(enat(0), enat(1))), index(nil(), enat(1))),
    ],
    ids=["lookup-under-sum", "stepi-on-assignment", "stepv-under-array"],
)
def test_validate_rejects_a_rule_its_source_does_not_take(d, source, target):
    assert validate_step(d, source, target) is False


def test_drive_worked_example():
    result = drive_step(exp_term())
    assert result is not None
    target, derivation = result
    assert target == exp_after_one_step()
    assert derivation == eval_exp_derivation()


def test_drive_literal_is_normal():
    assert drive_step(enat(5)) is None


def test_drive_lookup_miss_goes_to_none():
    t = index(assign(nil(), enat(0), enat(1)), enat(1))
    result = drive_step(t)
    assert result is not None
    target, derivation = result
    assert target == none()
    assert derivation == ViaArray(Lookup(assign(nil(), enat(0), enat(1)), 1))


def test_drive_has_no_congruence_for_assign_or_some():
    # no rule evaluates inside these, so they are stuck (not values)
    stuck = [
        assign(nil(), plus(enat(0), enat(1)), enat(0)),
        some(plus(enat(0), enat(1))),
        index(plus(enat(0), enat(1)), enat(0)),
    ]
    for t in stuck:
        assert not is_value(t)
        assert drive_step(t) is None


def test_drive_steps_right_operand_after_left_literal():
    t = plus(enat(1), plus(enat(2), enat(3)))
    target, derivation = drive_step(t)
    assert target == plus(enat(1), enat(5))
    assert isinstance(derivation.step, StepR)


def test_trace_worked_example():
    steps = trace(exp_term(), 10)
    assert len(steps) == 2
    assert steps[-1][0] == none()


def test_trace_value_is_empty():
    assert trace(enat(3), 10) == []


def test_trace_left_then_outer():
    steps = trace(plus(plus(enat(1), enat(2)), enat(3)), 10)
    assert [t for t, _ in steps] == [plus(enat(3), enat(3)), enat(6)]


def test_trace_fuel_exhaustion_signals():
    t = plus(plus(enat(1), enat(2)), enat(3))
    with pytest.raises(FuelExhaustedError):
        trace(t, 1)
    assert trace(t, 2)[-1][0] == enat(6)


def test_trace_zero_fuel_on_value_is_fine():
    assert trace(enat(0), 0) == []


def test_driver_sound_and_deterministic_small_exhaustive():
    for t in enumerate_terms(1):
        first = drive_step(t)
        assert first == drive_step(t)
        if is_value(t):
            assert first is None
        if first is not None:
            target, derivation = first
            assert validate_step(derivation, t, target)


def test_driver_sound_and_deterministic_deep_exhaustive():
    from fraglang.typecheck import infer, validate_typing

    # one more nesting level, single-literal pool: ~138k terms
    for t in enumerate_terms(2, (0,)):
        typed = infer(t)
        if typed is not None:
            assert validate_typing(typed[1], t, typed[0])
        first = drive_step(t)
        if first is None:
            continue
        assert first == drive_step(t)
        assert not is_value(t)
        target, derivation = first
        assert validate_step(derivation, t, target)


def test_congruence_leaves_frozen_operand_alone():
    from fraglang.generate import random_typed_term
    from fraglang.typecheck import LangType

    rng = random.Random(13)
    population = [random_term(rng, 6) for _ in range(400)]
    population += [
        random_typed_term(rng, rng.choice(list(LangType)), rng.randrange(2, 10))
        for _ in range(400)
    ]
    seen = 0
    for t in population:
        result = drive_step(t)
        if result is None:
            continue
        _, derivation = result
        match derivation:
            case ViaSum(StepL(_, _, _, right)):
                assert view(t)[1].snd.term == right
                seen += 1
            case ViaArray(StepI(_, array, _, _)):
                assert _index_array(t) == array
                seen += 1
    assert seen > 20


def _index_array(t):
    match downcast(LIFT_ARRAY, t):
        case InR(Pair(Slot(a), Slot(_))):
            return a
    return None


def test_stuck_left_operand_blocks_the_right_operand():
    # stuck left operand, steppable right operand: no rule steps the right
    t = plus(nil(), plus(enat(1), enat(2)))
    assert drive_step(t) is None
    assert trace(t, 4) == []
    right_step = ViaSum(StepV(1, 2))
    for left_nat in (0, 1):
        claimed = ViaSum(StepR(right_step, left_nat, plus(enat(1), enat(2)), enat(3)))
        assert not validate_step(claimed, t, plus(nil(), enat(3)))


def test_trace_rejects_negative_fuel():
    for t in (enat(1), plus(enat(1), enat(2))):
        with pytest.raises(ValueError):
            trace(t, -1)



def _slot_count(desc):
    # The recursion slots of a product tree of them, as lang declares payloads.
    if isinstance(desc, Prod):
        return _slot_count(desc.left) + _slot_count(desc.right)
    return int(isinstance(desc, Rec))


def test_step_rows_cover_the_cases_and_the_records():
    cases = {case: desc for fragment in FRAGMENTS.values() for case, desc in fragment.items()}
    assert list(STEPS) == [case for case in cases if case in STEPS]
    assert {row.lift for row in STEPS.values()} == set(get_args(ComposedStep))
    built = []
    for case, row in STEPS.items():
        n, context = _slot_count(cases[case]), [slot for slot, _, _ in row.context]
        # Each context slot is a distinct recursion slot of the case.
        assert sorted(set(context)) == sorted(context)
        assert all(0 <= slot < n for slot in context), case
        # A congruence's record holds its premise, then each slot in order:
        # its own slot's term and its term after, a slot before it in the
        # context as its literal, any other slot as its term.
        for k, (slot, record, layout) in enumerate(row.context):
            want = []
            for j in range(n):
                want += [f"term{j}", f"after{j}"] if j == slot else [f"nat{j}" if j in context[:k] else f"term{j}"]
            assert layout.split() == want, record
            assert [f.name for f in fields(record)][:1] == ["inner"] and len(fields(record)) == 1 + len(want)
        # The axiom's holds each context slot as its literal, any other as its term.
        record, layout, _ = row.axiom
        assert layout.split() == [f"nat{j}" if j in context else f"term{j}" for j in range(n)], record
        assert len(fields(record)) == n
        built += [record for _, record, _ in row.context] + [record]
    # Each step record is built by exactly one position of one row.
    assert len(built) == len(set(built))
    assert sorted(built, key=str) == sorted({*get_args(SumStep), *get_args(ArrayStep)}, key=str)


def _nested(n, wrap, core):
    t = core
    for _ in range(n):
        t = wrap(t)
    return t


def test_drive_validate_and_elaborate_take_100000_levels(gc_off):
    # Each runs the step rows in a loop, so depth is bounded by memory, not
    # by the recursion limit: 100,000 levels of a left-nested chain, and ten
    # times the limit of each other congruence.  Derivations this deep are
    # compared by their text, since == on them recurses.
    assert sys.getrecursionlimit() <= 1_000
    spines = [
        (100_000, lambda t: plus(t, enat(1)), "(step⁺ (stepl "),  # 1 + 1 + … + 1
        (10_000, lambda t: plus(enat(1), t), "(step⁺ (stepr "),  # 1 + (1 + (… + 1))
        (10_000, lambda t: index(nil(), t), "(step[] (stepi "),  # nil ! (nil ! (… (1 + 1)))
    ]
    for n, wrap, level in spines:
        t = _nested(n, wrap, plus(enat(1), enat(1)))
        target, d = drive_step(t)
        assert validate_step(d, t, target)
        text = render_derivation(d)
        assert text == level * n + "(step⁺ stepv)" + "))" * n
        assert render_derivation(elaborate_step(parse_derivation(text), t)) == text
