import ast
import dataclasses
import random
from pathlib import Path

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
    some,
)
from fraglang.preservation import (
    AXIOMS,
    COMPOSED_HOOKS,
    SubjectMismatchError,
    preservation_array,
    preservation_sum,
    preserve,
)
from fraglang.semantics import (
    STEPS,
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
    RULES,
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
    result = preserve(ViaSum(step), LiftWtSum(wt))
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
    result = preserve(ViaArray(step), LiftWtArray(wt))
    assert result == LiftWtArray(OkLookup(LiftWtArray(OkNil()), LiftWtNat(1), nil(), tgt))


_ONE_PLUS_TWO = plus(enat(1), enat(2))
_ONE_PLUS_TWO_WT = infer(_ONE_PLUS_TWO)[1]
_STEP_ONE_PLUS_TWO = ViaSum(StepV(1, 2))
_SUM_WT = OkSum(_ONE_PLUS_TWO_WT, LiftWtNat(9), _ONE_PLUS_TWO, enat(9))  # (1 + 2) + 9
_LITERAL_SUM_WT = OkSum(LiftWtNat(4), _ONE_PLUS_TWO_WT, enat(4), _ONE_PLUS_TWO)  # 4 + (1 + 2)
_LOOKUP_WT = OkLookup(LiftWtArray(OkNil()), _ONE_PLUS_TWO_WT, nil(), _ONE_PLUS_TWO)  # nil ! (1 + 2)
_LITERAL_LOOKUP_WT = OkLookup(LiftWtArray(OkNil()), LiftWtNat(1), nil(), enat(1))  # nil ! 1


# A fragment's step and typing records, lifted into the composed relation
# for preserve, or handed to the fragment's axiom case directly.
def _via_sum(step, wt):
    return preserve(ViaSum(step), LiftWtSum(wt))


def _via_array(step, wt):
    return preserve(ViaArray(step), LiftWtArray(wt))


def _sum_axiom(step, wt):
    return preservation_sum(COMPOSED_HOOKS, step, wt)


def _array_axiom(step, wt):
    return preservation_array(COMPOSED_HOOKS, step, wt)


@pytest.mark.parametrize(
    "transformer, step, wt, message",
    [
        (_via_sum, StepV(1, 2), _LOOKUP_WT, "sum step against non-sum typing OkLookup"),
        (
            _via_sum,
            StepL(_STEP_ONE_PLUS_TWO, plus(enat(1), enat(3)), enat(4), enat(9)),
            _SUM_WT,
            "StepL subject mismatch",
        ),
        (
            _via_sum,
            StepL(_STEP_ONE_PLUS_TWO, _ONE_PLUS_TWO, enat(3), enat(8)),
            _SUM_WT,
            "StepL subject mismatch",
        ),
        (
            _via_sum,
            StepR(_STEP_ONE_PLUS_TWO, 5, _ONE_PLUS_TWO, enat(3)),
            _LITERAL_SUM_WT,
            "StepR subject mismatch",
        ),
        (
            _via_sum,
            StepR(_STEP_ONE_PLUS_TWO, 4, plus(enat(1), enat(3)), enat(3)),
            _LITERAL_SUM_WT,
            "StepR subject mismatch",
        ),
        (_via_sum, Lookup(nil(), 0), _SUM_WT, "not a ViaSum step: Lookup"),
        (
            _via_array,
            StepI(_STEP_ONE_PLUS_TWO, nil(), _ONE_PLUS_TWO, enat(3)),
            OkIns(LiftWtArray(OkNil()), LiftWtNat(1), LiftWtNat(0), nil(), enat(1), enat(0)),
            "StepI against typing OkIns",
        ),
        (
            _via_array,
            StepI(_STEP_ONE_PLUS_TWO, nil(), plus(enat(2), enat(1)), enat(3)),
            _LOOKUP_WT,
            "StepI subject mismatch",
        ),
        (_via_array, StepV(1, 2), _LOOKUP_WT, "not a ViaArray step: StepV"),
        # A step that claims a non-natural literal, True posing as 1 among
        # them, mismatches every typing.
        (_sum_axiom, StepV(-1, 2), _ONE_PLUS_TWO_WT.inner, "literal-reduction subject mismatch"),
        (_sum_axiom, StepV(True, 2), _ONE_PLUS_TWO_WT.inner, "literal-reduction subject mismatch"),
        (
            _via_sum,
            StepR(_STEP_ONE_PLUS_TWO, -1, _ONE_PLUS_TWO, enat(3)),
            _LITERAL_SUM_WT,
            "StepR subject mismatch",
        ),
        (_array_axiom, Lookup(nil(), -1), _LITERAL_LOOKUP_WT, "lookup subject mismatch"),
        (_array_axiom, Lookup(nil(), True), _LITERAL_LOOKUP_WT, "lookup subject mismatch"),
        # An axiom case rewrites its axiom only.
        (
            _sum_axiom,
            StepL(_STEP_ONE_PLUS_TWO, _ONE_PLUS_TWO, enat(3), enat(9)),
            _SUM_WT,
            "literal-reduction subject mismatch",
        ),
        (
            _array_axiom,
            StepI(_STEP_ONE_PLUS_TWO, nil(), _ONE_PLUS_TWO, enat(3)),
            _LOOKUP_WT,
            "lookup subject mismatch",
        ),
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
        "stepl-to-sum-axiom",
        "stepi-to-array-axiom",
    ],
)
def test_transformers_reject_a_subject_the_typing_does_not_type(transformer, step, wt, message):
    with pytest.raises(SubjectMismatchError, match=f"^{message}$"):
        transformer(step, wt)


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
        (lambda: preserve(ViaSum(_CHAIN), _CHAIN_WT), "not a ViaSum step: Term"),
        (lambda: preserve(ViaArray(_CHAIN), LiftWtArray(OkNil())), "not a ViaArray step: Term"),
        (
            lambda: _via_sum(StepL(_STEP_ONE_PLUS_TWO, _CHAIN, _CHAIN, _CHAIN), _CHAIN_WT),
            "StepL against typing LiftWtSum",
        ),
        (
            lambda: _via_sum(StepL(_STEP_ONE_PLUS_TWO, _CHAIN_WT.inner.left, _CHAIN, enat(2)), _CHAIN_WT.inner),
            "StepL subject mismatch",
        ),
    ],
    ids=["non-sum-typing", "not-a-sum-step", "not-an-array-step", "congruence-typing", "congruence-subject"],
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

    # Where preserve finds each fragment's axiom case.
    monkeypatch.setitem(AXIOMS, StepV, spy_sum)
    monkeypatch.setitem(AXIOMS, Lookup, spy_array)

    # a pure-sum reduction chain
    t = plus(plus(enat(1), enat(2)), plus(enat(3), enat(4)))
    while True:
        step = drive_step(t)
        if step is None:
            break
        wt = infer(t)[1]
        preserve(step[1], wt)
        t = step[0]
    assert calls["sum"] > 0 and calls["array"] == 0

    # a pure-array step (literal index already)
    calls["sum"] = calls["array"] = 0
    t = index(nil(), enat(0))
    target, derivation = drive_step(t)
    preserve(derivation, infer(t)[1])
    assert calls["array"] == 1 and calls["sum"] == 0


def test_composed_hooks_cohere():
    # every hook output validates for its lifted subject
    assert validate_typing(COMPOSED_HOOKS.wt_nat(5), enat(5), LangType.NAT)
    assert validate_typing(COMPOSED_HOOKS.wt_option(none()), none(), LangType.OPTION)
    assert validate_typing(COMPOSED_HOOKS.wt_option(some(enat(3))), some(enat(3)), LangType.OPTION)


def test_congruence_keeps_every_premise_it_does_not_step():
    # (1 + 2) + (3 + 4) steps on the left: the right premise and both terms
    # the step leaves alone are the typing's own objects.
    t = plus(_ONE_PLUS_TWO, plus(enat(3), enat(4)))
    wt = infer(t)[1]
    target, step = drive_step(t)
    result = preserve(step, wt)
    assert result.inner.right_wt is wt.inner.right_wt and result.inner.right is wt.inner.right
    assert result.inner.left is step.step.left_after
    assert validate_typing(result, target, LangType.NAT)


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_congruence_comes_from_the_rows():
    # ROADMAP item 4's coverage check: each step row's context pairs with its
    # case's typing row, each axiom has one fragment case, each step record
    # has one place in the rows, and each lift pairs.
    for case, row in STEPS.items():
        premises = [slot for slot, _ in RULES[case].premises]
        typing = RULES[case].rule
        for slot, record, layout in row.context:
            assert slot in premises, (case, slot)
            tokens = layout.split()
            sources = [t for t in tokens if not t.startswith("after")]
            assert sorted(int(t[-1]) for t in sources) == sorted(premises), (case, layout)
            assert all(t[:-1] in ("term", "nat") for t in sources), (case, layout)
            assert [t for t in tokens if t.startswith("after")] == [f"after{slot}"], (case, layout)
            # The typing rule a congruence rebuilds: a premise, then a term, per slot.
            assert typing is not None and len(dataclasses.fields(typing)) == 2 * len(premises), case
    axioms = [row.axiom[0] for row in STEPS.values()]
    assert sorted(AXIOMS, key=str) == sorted(axioms, key=str) and len(set(axioms)) == len(axioms)
    records = [record for row in STEPS.values() for record in (*(c[1] for c in row.context), row.axiom[0])]
    assert len(set(records)) == len(records) == sum(1 + len(row.context) for row in STEPS.values())
    for via in {row.lift for row in STEPS.values()}:
        assert len({RULES[case].lift for case, row in STEPS.items() if row.lift is via}) == 1, via
    source = Path(preservation_module.__file__).read_text()
    named = set(_names(ast.parse(source)))
    assert not named & {"StepL", "StepR", "StepI", "ViaSum", "ViaArray", "LiftWtSum", "LiftWtArray"}


def _rnest(n, leaf=enat(1)):
    # 1 + (1 + (... + leaf)), n - 1 sums deep.
    t = leaf
    for _ in range(n - 1):
        t = plus(enat(1), t)
    return t


@pytest.mark.parametrize(
    "build",
    [
        lambda: _chain(100_000),
        lambda: _rnest(10_000),
        # A lookup yields an option and an index needs a natural, so no typed
        # lookup nests in another's index: one stepi over a stepr chain.
        lambda: index(nil(), _rnest(10_000)),
    ],
    ids=["stepl", "stepr", "stepi"],
)
def test_preserve_takes_100000_levels(gc_off, build):
    # preserve walks down and rebuilds up in one loop, with no recursion.
    t = build()
    ty, wt = infer(t)
    target, step = drive_step(t)
    assert validate_typing(preserve(step, wt), target, ty)


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
