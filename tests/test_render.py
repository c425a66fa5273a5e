"""The iterative render_derivation against the recursive one it replaced.

``reference_render`` is the recursive renderer kept as the reference: one
nested f-string per rule.  The iterative one must print the same text for
every derivation, and must also print derivations too deep to recurse on.
"""

import random

import pytest

from fraglang.generate import enumerate_terms, random_typed_term
from fraglang.lang import enat, index, plus, view
from fraglang.preservation import preserve
from fraglang.semantics import (
    Lookup,
    StepI,
    StepL,
    StepR,
    StepV,
    ViaArray,
    ViaSum,
    drive_step,
    trace,
)
from fraglang.sexpr import SexprError, StepSkeleton, render_derivation
from fraglang.surface import literal_text, parse, render
from fraglang.typecheck import (
    LangType,
    LiftWtArray,
    LiftWtNat,
    LiftWtOption,
    LiftWtSum,
    OkIns,
    OkLookup,
    OkNil,
    OkSum,
    infer,
)


def reference_render(d) -> str:
    match d:
        case ViaSum(s):
            return f"(step⁺ {reference_render(s)})"
        case ViaArray(s):
            return f"(step[] {reference_render(s)})"
        case StepL(inner, _, _, _):
            return f"(stepl {reference_render(inner)})"
        case StepR(inner, _, _, _):
            return f"(stepr {reference_render(inner)})"
        case StepV(_, _):
            return "stepv"
        case StepI(inner, _, _, _):
            return f"(stepi {reference_render(inner)})"
        case Lookup(_, _):
            return "lookup"
        case LiftWtNat(n):
            return f"(lift-wt-nat {literal_text(n)})"
        case LiftWtOption(term):
            return f'(lift-wt-option "{render(term)}")'
        case LiftWtSum(inner):
            return f"(lift-wt-sum {reference_render(inner)})"
        case LiftWtArray(inner):
            return f"(lift-wt-array {reference_render(inner)})"
        case OkSum(left_wt, right_wt, _, _):
            return f"(ok-sum {reference_render(left_wt)} {reference_render(right_wt)})"
        case OkNil():
            return "ok-nil"
        case OkIns(array_wt, value_wt, index_wt, _, _, _):
            return (
                f"(ok-ins {reference_render(array_wt)}"
                f" {reference_render(value_wt)} {reference_render(index_wt)})"
            )
        case OkLookup(array_wt, index_wt, _, _):
            return f"(ok-lookup {reference_render(array_wt)} {reference_render(index_wt)})"
    raise SexprError(f"not a derivation: {d!r}")


def assert_renders_as_reference(d) -> None:
    assert render_derivation(d) == reference_render(d)


def rebuilt_target(source, step):
    """The driver's target built afresh by the smart constructors."""
    s = step.step
    if isinstance(s, StepL):
        return plus(s.left_after, s.right)
    if isinstance(s, StepR):
        return plus(view(source)[1].fst.term, s.right_after)
    if isinstance(s, StepI):
        return index(s.array, s.idx_after)
    return None


def assert_target_is_rebuild(source, target, step) -> None:
    rebuilt = rebuilt_target(source, step)
    if rebuilt is None:
        return
    assert target == rebuilt
    assert hash(target) == hash(rebuilt)
    assert repr(target) == repr(rebuilt)


def test_depth_one_population_renders_as_reference():
    typings = steps = 0
    for t in enumerate_terms(1):
        typed = infer(t)
        if typed is not None:
            assert_renders_as_reference(typed[1])
            typings += 1
        stepped = drive_step(t)
        if stepped is not None:
            assert_renders_as_reference(stepped[1])
            assert_target_is_rebuild(t, *stepped)
            steps += 1
    assert typings > 0 and steps > 0


def test_random_typed_traces_with_preserve_render_as_reference():
    rng = random.Random(20261018)
    rules = set()
    for _ in range(200):
        ty = rng.choice(list(LangType))
        source = random_typed_term(rng, ty, rng.randrange(1, 16))
        _, wt = infer(source)
        assert_renders_as_reference(wt)
        while (stepped := drive_step(source)) is not None:
            target, step = stepped
            assert_renders_as_reference(step)
            assert_target_is_rebuild(source, target, step)
            wt = preserve(step, wt)
            assert_renders_as_reference(wt)
            rules.add(type(step.step))
            source = target
    assert rules == {StepL, StepR, StepV, StepI, Lookup}


@pytest.mark.parametrize("n", [100, 200, 400])
def test_chain_derivations_render_as_reference(n):
    source = parse(" + ".join(["1"] * n))
    _, wt = infer(source)
    assert_renders_as_reference(wt)
    for _, step in trace(source, n):
        assert_renders_as_reference(step)


def test_congruence_targets_share_the_operand_left_alone():
    # Term's == reads the recorded views, and it, hash and repr still recurse
    # several frames per node: they overflow past about 65 to 125 levels, so
    # they are compared on a short chain; the Slot sharing is checked on a
    # long one as well.
    for n in (40, 400):
        source = parse(" + ".join(["1"] * n) + " + (1 + 1)")
        for target, step in trace(source, n + 1):
            s = step.step
            if n == 40:
                assert_target_is_rebuild(source, target, step)
            if isinstance(s, StepL):
                assert view(target)[1].snd is view(source)[1].snd
            elif isinstance(s, StepR):
                assert view(target)[1].fst is view(source)[1].fst
            source = target
    source = parse("(nil[0] := 1) ! (0 + 1 + 1)")
    for target, step in trace(source, 8):
        assert_target_is_rebuild(source, target, step)
        if isinstance(step.step, StepI):
            assert view(target)[1].fst is view(source)[1].fst
        source = target


DEEP = 5_000


def test_deep_step_derivation_renders():
    t = enat(1)
    d = ViaSum(StepV(1, 1))
    for _ in range(DEEP):
        d = ViaSum(StepL(d, t, t, t))
    assert render_derivation(d) == "(step⁺ (stepl " * DEEP + "(step⁺ stepv)" + "))" * DEEP


def test_deep_typing_derivation_renders():
    t = enat(1)
    one = LiftWtNat(1)
    d = one
    for _ in range(DEEP):
        d = LiftWtSum(OkSum(d, one, t, t))
    text = render_derivation(d)
    assert text == "(lift-wt-sum (ok-sum " * DEEP + "(lift-wt-nat 1)" + " (lift-wt-nat 1)))" * DEEP


def test_not_a_derivation_deep_inside_is_rejected():
    d = ViaSum(StepL(ViaSum("stepv"), enat(1), enat(1), enat(1)))
    with pytest.raises(SexprError, match="not a derivation: 'stepv'"):
        render_derivation(d)


def test_deep_non_derivations_are_named_by_their_class():
    # Their reprs recurse past the limit, so the message names their class.
    skeleton = StepSkeleton("stepv")
    for _ in range(3_000):
        skeleton = StepSkeleton("step⁺", skeleton)
    with pytest.raises(SexprError, match="^not a derivation: StepSkeleton$"):
        render_derivation(skeleton)
    chain = enat(1)
    for _ in range(2_000):
        chain = plus(chain, enat(1))
    with pytest.raises(SexprError, match="^not a derivation: Term$"):
        render_derivation(ViaSum(StepL(ViaSum(chain), chain, chain, chain)))
    with pytest.raises(SexprError, match="^not a derivation: Term$"):
        render_derivation(LiftWtSum(OkSum(LiftWtNat(1), chain, enat(1), chain)))
