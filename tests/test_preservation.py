import random

import pytest

import fraglang.preservation as preservation_module
from fraglang.generate import random_typed_term
from fraglang.lang import (
    assign,
    enat,
    index,
    nil,
    none,
    plus,
)
from fraglang.preservation import (
    COMPOSED_HOOKS,
    SubjectMismatchError,
    preservation_array,
    preservation_sum,
    preserve,
)
from fraglang.semantics import (
    Lookup,
    StepI,
    StepL,
    StepR,
    StepV,
    ViaArray,
    ViaSum,
    drive_step,
)
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
    validate_typing,
)
from goldens import eval_exp_derivation, exp_after_one_step, preserved_wt_exp, wt_exp


def test_preservation_sum_literal_clause():
    wt = OkSum(LiftWtNat(0), LiftWtNat(1), enat(0), enat(1))
    assert preservation_sum(COMPOSED_HOOKS, StepV(0, 1), wt) == LiftWtNat(1)


def test_preservation_sum_left_congruence_clause():
    inner = ViaSum(StepV(1, 2))
    src, tgt = plus(enat(1), enat(2)), enat(3)
    step = StepL(inner, src, tgt, enat(9))
    wt_src = infer(src)[1].inner  # OkSum for 1 + 2
    wt = OkSum(LiftWtSum(wt_src), LiftWtNat(9), src, enat(9))
    result = preservation_sum(COMPOSED_HOOKS, step, wt)
    assert result == LiftWtSum(OkSum(LiftWtNat(3), LiftWtNat(9), tgt, enat(9)))


def test_preservation_sum_rejects_mismatched_subject():
    wt = OkSum(LiftWtNat(0), LiftWtNat(1), enat(0), enat(1))
    with pytest.raises(SubjectMismatchError):
        preservation_sum(COMPOSED_HOOKS, StepV(5, 1), wt)


def test_preservation_array_lookup_clause():
    subject_array = assign(nil(), enat(0), enat(1))
    wt = OkLookup(infer(subject_array)[1], LiftWtNat(1), subject_array, enat(1))
    result = preservation_array(COMPOSED_HOOKS, Lookup(subject_array, 1), wt)
    assert result == LiftWtOption(none())


def test_preservation_array_index_congruence_clause():
    inner = ViaSum(StepV(0, 1))
    src, tgt = plus(enat(0), enat(1)), enat(1)
    step = StepI(inner, nil(), src, tgt)
    wt = OkLookup(LiftWtArray(OkNil()), LiftWtSum(infer(src)[1].inner), nil(), src)
    result = preservation_array(COMPOSED_HOOKS, step, wt)
    assert result == LiftWtArray(OkLookup(LiftWtArray(OkNil()), LiftWtNat(1), nil(), tgt))


_ONE_PLUS_TWO = plus(enat(1), enat(2))
_ONE_PLUS_TWO_WT = infer(_ONE_PLUS_TWO)[1]
_STEP_ONE_PLUS_TWO = ViaSum(StepV(1, 2))
_SUM_WT = OkSum(_ONE_PLUS_TWO_WT, LiftWtNat(9), _ONE_PLUS_TWO, enat(9))  # (1 + 2) + 9
_LITERAL_SUM_WT = OkSum(LiftWtNat(4), _ONE_PLUS_TWO_WT, enat(4), _ONE_PLUS_TWO)  # 4 + (1 + 2)
_LOOKUP_WT = OkLookup(LiftWtArray(OkNil()), _ONE_PLUS_TWO_WT, nil(), _ONE_PLUS_TWO)  # nil ! (1 + 2)
_LITERAL_LOOKUP_WT = OkLookup(LiftWtArray(OkNil()), LiftWtNat(1), nil(), enat(1))  # nil ! 1


@pytest.mark.parametrize(
    "transformer, step, wt, message",
    [
        (preservation_sum, StepV(1, 2), _LOOKUP_WT, "sum step against non-sum typing OkLookup"),
        (
            preservation_sum,
            StepL(_STEP_ONE_PLUS_TWO, plus(enat(1), enat(3)), enat(4), enat(9)),
            _SUM_WT,
            "left-congruence subject mismatch",
        ),
        (
            preservation_sum,
            StepL(_STEP_ONE_PLUS_TWO, _ONE_PLUS_TWO, enat(3), enat(8)),
            _SUM_WT,
            "left-congruence subject mismatch",
        ),
        (
            preservation_sum,
            StepR(_STEP_ONE_PLUS_TWO, 5, _ONE_PLUS_TWO, enat(3)),
            _LITERAL_SUM_WT,
            "right-congruence subject mismatch",
        ),
        (
            preservation_sum,
            StepR(_STEP_ONE_PLUS_TWO, 4, plus(enat(1), enat(3)), enat(3)),
            _LITERAL_SUM_WT,
            "right-congruence subject mismatch",
        ),
        (preservation_sum, Lookup(nil(), 0), _SUM_WT, "not a sum step: Lookup"),
        (
            preservation_array,
            StepI(_STEP_ONE_PLUS_TWO, nil(), _ONE_PLUS_TWO, enat(3)),
            OkIns(LiftWtArray(OkNil()), LiftWtNat(1), LiftWtNat(0), nil(), enat(1), enat(0)),
            "index-congruence subject mismatch",
        ),
        (
            preservation_array,
            StepI(_STEP_ONE_PLUS_TWO, nil(), plus(enat(2), enat(1)), enat(3)),
            _LOOKUP_WT,
            "index-congruence subject mismatch",
        ),
        (preservation_array, StepV(1, 2), _LOOKUP_WT, "not an array step: StepV"),
        # A step that claims a non-natural literal, True posing as 1 among
        # them, mismatches every typing.
        (preservation_sum, StepV(-1, 2), _ONE_PLUS_TWO_WT.inner, "literal-reduction subject mismatch"),
        (preservation_sum, StepV(True, 2), _ONE_PLUS_TWO_WT.inner, "literal-reduction subject mismatch"),
        (
            preservation_sum,
            StepR(_STEP_ONE_PLUS_TWO, -1, _ONE_PLUS_TWO, enat(3)),
            _LITERAL_SUM_WT,
            "right-congruence subject mismatch",
        ),
        (preservation_array, Lookup(nil(), -1), _LITERAL_LOOKUP_WT, "lookup subject mismatch"),
        (preservation_array, Lookup(nil(), True), _LITERAL_LOOKUP_WT, "lookup subject mismatch"),
    ],
    ids=[
        "sum-against-lookup",
        "stepl-left",
        "stepl-right",
        "stepr-literal",
        "stepr-right",
        "lookup-to-sum",
        "stepi-against-ins",
        "stepi-other-index",
        "stepv-to-array",
        "stepv-negative-literal",
        "stepv-bool-literal",
        "stepr-negative-literal",
        "lookup-negative-index",
        "lookup-bool-index",
    ],
)
def test_transformers_reject_a_subject_the_typing_does_not_type(transformer, step, wt, message):
    with pytest.raises(SubjectMismatchError, match=f"^{message}"):
        transformer(COMPOSED_HOOKS, step, wt)


def test_preservation_array_rejects_lookup_against_ins():
    wt = OkIns(LiftWtArray(OkNil()), LiftWtNat(1), LiftWtNat(0), nil(), enat(1), enat(0))
    with pytest.raises(SubjectMismatchError):
        preservation_array(COMPOSED_HOOKS, Lookup(nil(), 0), wt)


def test_preserve_worked_example_exactly():
    result = preserve(eval_exp_derivation(), wt_exp())
    assert result == preserved_wt_exp()
    assert validate_typing(result, exp_after_one_step(), LangType.OPTION)


def test_preserve_literal_sum():
    wt = LiftWtSum(OkSum(LiftWtNat(6), LiftWtNat(7), enat(6), enat(7)))
    assert preserve(ViaSum(StepV(6, 7)), wt) == LiftWtNat(13)


def test_preserve_rejects_cross_fragment_pairing():
    with pytest.raises(SubjectMismatchError):
        preserve(ViaArray(Lookup(nil(), 0)), LiftWtSum(OkSum(LiftWtNat(0), LiftWtNat(0), enat(0), enat(0))))
    with pytest.raises(SubjectMismatchError):
        preserve(ViaSum(StepV(0, 0)), LiftWtNat(0))


def _chain(n):
    chain = enat(1)
    for _ in range(n - 1):
        chain = plus(chain, enat(1))
    return chain


_CHAIN = _chain(300)
_CHAIN_WT = infer(_CHAIN)[1]


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: preservation_sum(COMPOSED_HOOKS, StepV(1, 2), _CHAIN_WT),
            "sum step against non-sum typing LiftWtSum",
        ),
        (lambda: preserve(ViaSum(_CHAIN), _CHAIN_WT), "not a sum step: Term"),
        (lambda: preserve(ViaArray(_CHAIN), LiftWtArray(OkNil())), "not an array step: Term"),
    ],
    ids=["non-sum-typing", "not-a-sum-step", "not-an-array-step"],
)
def test_a_mismatch_names_a_deep_object_by_its_class(call, message):
    # The repr of a 300-term chain recurses past the default limit.
    with pytest.raises(SubjectMismatchError, match=f"^{message}$"):
        call()


def test_sum_cases_never_call_array_transformer(monkeypatch):
    calls = {"sum": 0, "array": 0}
    real_sum, real_array = preservation_sum, preservation_array

    def spy_sum(hooks, step, wt):
        calls["sum"] += 1
        return real_sum(hooks, step, wt)

    def spy_array(hooks, step, wt):
        calls["array"] += 1
        return real_array(hooks, step, wt)

    monkeypatch.setattr(preservation_module, "preservation_sum", spy_sum)
    monkeypatch.setattr(preservation_module, "preservation_array", spy_array)

    # a pure-sum reduction chain
    t = plus(plus(enat(1), enat(2)), plus(enat(3), enat(4)))
    while True:
        step = drive_step(t)
        if step is None:
            break
        wt = infer(t)[1]
        preservation_module.preserve(step[1], wt)
        t = step[0]
    assert calls["sum"] > 0 and calls["array"] == 0

    # a pure-array step (literal index already)
    calls["sum"] = calls["array"] = 0
    t = index(nil(), enat(0))
    target, derivation = drive_step(t)
    preservation_module.preserve(derivation, infer(t)[1])
    assert calls["array"] == 1 and calls["sum"] == 0


def test_composed_hooks_cohere():
    # every hook output validates for its lifted subject
    assert validate_typing(COMPOSED_HOOKS.wt_nat(5), enat(5), LangType.NAT)
    assert validate_typing(COMPOSED_HOOKS.wt_option(none()), none(), LangType.OPTION)
    ok_sum = OkSum(LiftWtNat(1), LiftWtNat(2), enat(1), enat(2))
    assert validate_typing(
        COMPOSED_HOOKS.lift_sum_wt(ok_sum), plus(enat(1), enat(2)), LangType.NAT
    )
    assert validate_typing(COMPOSED_HOOKS.lift_array_wt(OkNil()), nil(), LangType.ARRAY)


def test_preservation_on_random_typed_terms():
    rng = random.Random(17)
    exercised = 0
    for _ in range(400):
        ty = rng.choice(list(LangType))
        t = random_typed_term(rng, ty, rng.randrange(1, 8))
        typed = infer(t)
        assert typed is not None and typed[0] is ty
        stepped = drive_step(t)
        if stepped is None:
            continue
        target, derivation = stepped
        rewritten = preserve(derivation, typed[1])
        assert validate_typing(rewritten, target, ty)
        exercised += 1
    assert exercised > 100
