import dataclasses
import itertools
import random
import sys
from typing import get_args

from fraglang import typecheck
from fraglang.generate import enumerate_terms, random_term, random_typed_term
from fraglang.lang import (
    FEXPR,
    FRAGMENTS,
    LIFT_ARRAY,
    assign,
    enat,
    index,
    nat_value,
    nil,
    none,
    plus,
    some,
)
from fraglang.typecheck import (
    RULES,
    ArrayTyping,
    ComposedTyping,
    LangType,
    LiftWtArray,
    LiftWtNat,
    LiftWtOption,
    LiftWtSum,
    OkIns,
    OkLookup,
    OkNil,
    OkSum,
    SumTyping,
    infer,
    validate_typing,
)
from fraglang.functor import InL, InR, Pair, Prod, Rec, ShapeError, Slot, Term, fold
from fraglang.subobject import downcast
from goldens import differential_terms, exp_term, fragment_view, wt_exp


def test_validate_worked_example():
    assert validate_typing(wt_exp(), exp_term(), LangType.OPTION)


def test_validate_rejects_wrong_type():
    assert not validate_typing(LiftWtNat(6), enat(6), LangType.ARRAY)


def test_validate_rejects_non_nat_premise():
    bad = LiftWtSum(OkSum(LiftWtNat(0), LiftWtArray(OkNil()), enat(0), nil()))
    assert not validate_typing(bad, plus(enat(0), nil()), LangType.NAT)


def test_infer_worked_example_matches_golden():
    result = infer(exp_term())
    assert result is not None
    ty, derivation = result
    assert ty is LangType.OPTION
    assert derivation == wt_exp()


def test_infer_rejects_plus_of_array():
    assert infer(plus(nil(), enat(1))) is None


def test_infer_accepts_any_option_payload():
    # the option rule never inspects what the option holds
    t = some(nil())
    result = infer(t)
    assert result is not None
    ty, derivation = result
    assert ty is LangType.OPTION
    assert derivation == LiftWtOption(t)
    # even an ill-typed payload is fine
    assert infer(some(plus(nil(), nil())))[0] is LangType.OPTION


def test_infer_array_rules():
    assert infer(nil())[0] is LangType.ARRAY
    assert infer(assign(nil(), enat(0), enat(1)))[0] is LangType.ARRAY
    assert infer(index(nil(), enat(0)))[0] is LangType.OPTION
    assert infer(assign(nil(), none(), enat(1))) is None
    assert infer(index(enat(0), enat(0))) is None


def _slot_count(desc):
    # The recursion slots of a product tree of them, as lang declares payloads.
    if isinstance(desc, Prod):
        return _slot_count(desc.left) + _slot_count(desc.right)
    return int(isinstance(desc, Rec))


def test_rows_cover_the_cases_and_the_records():
    cases = {case: desc for fragment in FRAGMENTS.values() for case, desc in fragment.items()}
    assert list(RULES) == list(cases)
    # Each fragment's cases share one lift, and no two fragments do; each
    # rule record is built by exactly one row.
    lifts = [{RULES[case].lift for case in fragment} for fragment in FRAGMENTS.values()]
    assert all(len(lift) == 1 for lift in lifts)
    assert [lift.pop() for lift in lifts] == list(get_args(ComposedTyping))
    built = [row.rule for row in RULES.values() if row.rule is not None]
    assert sorted(built, key=str) == sorted({SumTyping, *get_args(ArrayTyping)}, key=str)
    for case, row in RULES.items():
        slots = [slot for slot, _ in row.premises]
        assert sorted(set(slots)) == sorted(slots)
        assert all(0 <= slot < _slot_count(cases[case]) for slot in slots), case
        if row.rule is not None:  # the premises' derivations, then their terms
            assert len(dataclasses.fields(row.rule)) == 2 * len(slots)


def _all_typings(t):
    """Rule-by-rule search for every derivation of t, independent of infer."""
    n = nat_value(t)
    if n is not None:
        yield LangType.NAT, LiftWtNat(n)
    v = fragment_view(t)
    if v is not None and v[0] == "option":
        yield LangType.OPTION, LiftWtOption(t)
    if v is not None and v[0] == "sum":
        left, right = v[1].fst.term, v[1].snd.term
        for lty, lw in _all_typings(left):
            for rty, rw in _all_typings(right):
                if lty is LangType.NAT and rty is LangType.NAT:
                    yield LangType.NAT, LiftWtSum(OkSum(lw, rw, left, right))
    ap = downcast(LIFT_ARRAY, t)
    if ap is not None:
        match ap:
            case InL(InR(_)):
                yield LangType.ARRAY, LiftWtArray(OkNil())
            case InL(InL(Pair(Slot(a), Pair(Slot(i), Slot(e))))):
                for aty, aw in _all_typings(a):
                    for ety, ew in _all_typings(e):
                        for ity, iw in _all_typings(i):
                            if (aty, ety, ity) == (LangType.ARRAY, LangType.NAT, LangType.NAT):
                                yield LangType.ARRAY, LiftWtArray(OkIns(aw, ew, iw, a, e, i))
            case InR(Pair(Slot(a), Slot(i))):
                for aty, aw in _all_typings(a):
                    for ity, iw in _all_typings(i):
                        if (aty, ity) == (LangType.ARRAY, LangType.NAT):
                            yield LangType.OPTION, LiftWtArray(OkLookup(aw, iw, a, i))


def test_infer_agrees_with_declarative_search():
    for t in enumerate_terms(1):
        found = list(_all_typings(t))
        inferred = infer(t)
        types = {ty for ty, _ in found}
        assert len(types) <= 1  # uniqueness: at most one type derivable
        if inferred is None:
            assert not found
        else:
            assert types == {inferred[0]}
            assert any(d == inferred[1] for _, d in found)


def test_infer_soundness_on_random_terms():
    rng = random.Random(21)
    typed = 0
    for _ in range(500):
        t = random_term(rng, 6)
        result = infer(t)
        if result is None:
            continue
        ty, derivation = result
        assert validate_typing(derivation, t, ty)
        typed += 1
    assert typed > 50


def test_derivations_store_their_terms():
    # validators are self-contained: mangling a stored term breaks validation
    derivation = infer(plus(enat(1), enat(2)))[1]
    mangled = LiftWtSum(OkSum(derivation.inner.left_wt, derivation.inner.right_wt, enat(1), enat(3)))
    assert not validate_typing(mangled, plus(enat(1), enat(2)), LangType.NAT)


def _eager_infer(t):
    # Reference: every premise of a rule is inferred before any is checked.
    v = fragment_view(t)
    if v is None:
        return None
    tag, p = v
    if tag == "nat":
        return LangType.NAT, LiftWtNat(p.value)
    if tag == "option":
        return LangType.OPTION, LiftWtOption(t)
    match p:
        case Pair(Slot(left), Slot(right)):
            wants = [(left, LangType.NAT), (right, LangType.NAT)]
            result, build = LangType.NAT, lambda wl, wr: LiftWtSum(OkSum(wl, wr, left, right))
        case InL(InR(_)):
            return LangType.ARRAY, LiftWtArray(OkNil())
        case InL(InL(Pair(Slot(a), Pair(Slot(i), Slot(e))))):
            wants = [(a, LangType.ARRAY), (e, LangType.NAT), (i, LangType.NAT)]
            result, build = LangType.ARRAY, lambda wa, we, wi: LiftWtArray(OkIns(wa, we, wi, a, e, i))
        case InR(Pair(Slot(a), Slot(i))):
            wants = [(a, LangType.ARRAY), (i, LangType.NAT)]
            result, build = LangType.OPTION, lambda wa, wi: LiftWtArray(OkLookup(wa, wi, a, i))
    premises = [_eager_infer(x) for x, _ in wants]
    if any(r is None or r[0] is not want for r, (_, want) in zip(premises, wants)):
        return None
    return result, build(*(r[1] for r in premises))


def test_short_circuit_agrees_with_eager_premises():
    rng = random.Random(13)
    kinds = (LangType.NAT, LangType.OPTION, LangType.ARRAY)
    terms = list(itertools.islice(enumerate_terms(2, (0, 1)), 4_000))
    terms += [random_typed_term(rng, kinds[i % 3], 1 + i % 20) for i in range(200)]
    results = [infer(t) for t in terms]
    assert results == [_eager_infer(t) for t in terms]
    assert sum(r is not None for r in results) >= 350


def test_infer_stops_at_the_first_ill_typed_premise(monkeypatch):
    # infer reads each node it reaches through one view: the term, then its
    # premises up to the first one whose case has the wrong type.  The terms
    # are copies with no recorded view at any node, so every read is a call
    # of the view that infer's body names.
    visited = []
    inner = typecheck.view

    def counting(t):
        visited.append(t)
        return inner(t)

    monkeypatch.setitem(typecheck.infer.__globals__, "view", counting)
    operand = plus(enat(1), enat(2))
    for t, first_failure in [
        (plus(nil(), operand), 1),
        (index(enat(0), operand), 1),
        (assign(nil(), operand, nil()), 2),  # the array, then the element
    ]:
        visited.clear()
        assert typecheck.infer(fold(FEXPR, Term, t)) is None
        assert len(visited) == 1 + first_failure
        assert not any(x == operand for x in visited)


def test_validate_compares_a_premise_term_by_identity_first(monkeypatch, gc_off):
    # infer stores each premise's term as the object its parent's slot holds,
    # so validating its typing settles every comparison by identity.
    chain = enat(1)
    for _ in range(99):
        chain = plus(chain, enat(1))
    ty, d = infer(chain)
    calls, real_eq = [], Term.__eq__
    monkeypatch.setattr(Term, "__eq__", lambda self, other: calls.append(1) or real_eq(self, other))
    assert validate_typing(d, chain, ty)
    assert calls == []


def test_ill_typed_left_operand_hides_a_deep_right_operand():
    chain = enat(1)
    for _ in range(3_000):
        chain = plus(chain, enat(1))
    assert infer(plus(nil(), chain)) is None


def test_infer_and_validate_take_100000_levels(gc_off):
    # Both run the rows over an explicit stack, so depth is bounded by
    # memory, not by the recursion limit.
    assert sys.getrecursionlimit() <= 1_000
    chain, assigns = enat(1), nil()
    for _ in range(100_000):
        chain = plus(chain, enat(1))
        assigns = assign(assigns, enat(0), enat(1))
    for t, ty in [(chain, LangType.NAT), (assigns, LangType.ARRAY)]:
        got, derivation = infer(t)
        assert got is ty
        assert validate_typing(derivation, t, ty)


# -- the reference infer ----------------------------------------------------
# The infer that dispatching on a viewed case replaced: it reads each
# fragment's payload through downcast and matches one nested class pattern
# per array case, with the same premise order and the same stop at the
# first failing premise.  It is the specification infer is checked against.


def reference_infer(t):
    v = fragment_view(t)
    if v is None:
        return None
    tag, p = v
    if tag == "nat":
        return LangType.NAT, typecheck.wt_nat(p.value)
    if tag == "option":
        return LangType.OPTION, LiftWtOption(t)
    if tag == "sum":
        left, right = p.fst.term, p.snd.term
        left_result = reference_infer(left)
        if left_result is None or left_result[0] is not LangType.NAT:
            return None
        right_result = reference_infer(right)
        if right_result is None or right_result[0] is not LangType.NAT:
            return None
        return LangType.NAT, LiftWtSum(OkSum(left_result[1], right_result[1], left, right))
    match p:
        case InL(InR(_)):
            return LangType.ARRAY, LiftWtArray(OkNil())
        case InL(InL(Pair(Slot(array), Pair(Slot(idx), Slot(value))))):
            wa = reference_infer(array)
            if wa is None or wa[0] is not LangType.ARRAY:
                return None
            we = reference_infer(value)
            if we is None or we[0] is not LangType.NAT:
                return None
            wn = reference_infer(idx)
            if wn is None or wn[0] is not LangType.NAT:
                return None
            return LangType.ARRAY, LiftWtArray(OkIns(wa[1], we[1], wn[1], array, value, idx))
        case InR(Pair(Slot(array), Slot(idx))):
            wa = reference_infer(array)
            if wa is None or wa[0] is not LangType.ARRAY:
                return None
            wn = reference_infer(idx)
            if wn is None or wn[0] is not LangType.NAT:
                return None
            return LangType.OPTION, LiftWtArray(OkLookup(wa[1], wn[1], array, idx))
    return None


def _outcome(fn, t):
    try:
        return fn(t)
    except ShapeError:
        return ShapeError


def test_reference_differential():
    terms = differential_terms()
    outcomes = [_outcome(infer, t) for t in terms]
    assert outcomes == [_outcome(reference_infer, t) for t in terms]
    typed = [(t, r) for t, r in zip(terms, outcomes) if r is not None]
    assert len(typed) >= 1_000
    for t, (ty, d) in typed:
        assert validate_typing(d, t, ty)
