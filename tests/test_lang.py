import itertools

import pytest

from fraglang.functor import (
    UNIT,
    Atom,
    AtomVal,
    BaseSet,
    InL,
    InR,
    Pair,
    Prod,
    Rec,
    ShapeError,
    Slot,
    Sum,
    Term,
    valid_term,
)
from fraglang.lang import (
    ARRAY,
    CASE_PATHS,
    FEXPR,
    LIFT_ARRAY,
    LIFT_NAT,
    LIFT_OPTION,
    LIFT_PATHS,
    LIFT_SUM,
    NAT,
    OPTION,
    SHARED_NATS,
    SUM,
    array_lookup,
    assign,
    enat,
    index,
    is_value,
    nat_value,
    nil,
    none,
    plus,
    some,
    view,
)
from fraglang.generate import enumerate_terms
from fraglang.semantics import drive_step
from fraglang.subobject import downcast, upcast
from goldens import differential_terms, fragment_view


def test_enat_spine():
    assert enat(6).node == InL(InL(InL(AtomVal(BaseSet.NAT, 6))))


def test_plus_spine():
    a, b = enat(6), enat(7)
    assert plus(a, b).node == InL(InR(Pair(Slot(a), Slot(b))))


def test_none_spine():
    assert none().node == InL(InL(InR(InR(AtomVal(BaseSet.UNIT, UNIT)))))


def test_some_spine():
    e = enat(1)
    assert some(e).node == InL(InL(InR(InL(Slot(e)))))


def test_nil_spine():
    assert nil().node == InR(InL(InR(AtomVal(BaseSet.UNIT, UNIT))))


def test_index_spine():
    a, i = nil(), enat(0)
    assert index(a, i).node == InR(InR(Pair(Slot(a), Slot(i))))


def test_assign_spine_triple_is_right_nested():
    a, i, e = nil(), enat(0), enat(1)
    assert assign(a, i, e).node == InR(InL(InL(Pair(Slot(a), Pair(Slot(i), Slot(e))))))


def test_fragments_are_the_sums_of_their_cases():
    pair = Prod(Rec(), Rec())
    assert NAT == Atom(BaseSet.NAT)
    assert OPTION == Sum(Rec(), Atom(BaseSet.UNIT))
    assert SUM == pair
    assert ARRAY == Sum(Sum(Prod(Rec(), pair), Atom(BaseSet.UNIT)), pair)
    assert FEXPR == Sum(Sum(Sum(NAT, OPTION), SUM), ARRAY)
    assert [path.steps for path in LIFT_PATHS.values()] == [(InL, InL, InL), (InR, InL, InL), (InR, InL), (InR,)]
    # A case's path is its injections inside its fragment, then the fragment's.
    assert {case: path.steps for case, path in CASE_PATHS.items()} == {
        "nat": (InL, InL, InL),
        "some": (InL, InR, InL, InL),
        "none": (InR, InR, InL, InL),
        "plus": (InR, InL),
        "assign": (InL, InL, InR),
        "nil": (InR, InL, InR),
        "index": (InR, InR),
    }


def test_constructors_validate_and_downcast_back():
    cases = [
        (LIFT_NAT, enat(5), AtomVal(BaseSet.NAT, 5)),
        (LIFT_SUM, plus(enat(1), enat(2)), Pair(Slot(enat(1)), Slot(enat(2)))),
        (LIFT_OPTION, none(), InR(AtomVal(BaseSet.UNIT, UNIT))),
        (LIFT_OPTION, some(enat(1)), InL(Slot(enat(1)))),
        (LIFT_ARRAY, nil(), InL(InR(AtomVal(BaseSet.UNIT, UNIT)))),
        (LIFT_ARRAY, index(nil(), enat(0)), InR(Pair(Slot(nil()), Slot(enat(0))))),
        (
            LIFT_ARRAY,
            assign(nil(), enat(0), enat(1)),
            InL(InL(Pair(Slot(nil()), Pair(Slot(enat(0)), Slot(enat(1)))))),
        ),
    ]
    for path, term, payload in cases:
        assert valid_term(FEXPR, term)
        assert downcast(path, term) == payload


def test_is_value():
    assert is_value(enat(5))
    assert is_value(nil())
    assert is_value(none())
    assert is_value(some(enat(2)))
    assert is_value(assign(nil(), enat(0), enat(1)))
    assert not is_value(plus(enat(1), enat(2)))
    assert not is_value(assign(nil(), enat(0), plus(enat(0), enat(1))))
    assert not is_value(index(nil(), enat(0)))
    assert not is_value(some(plus(enat(0), enat(0))))
    # the array operand must itself be a literal chain, ending at nil
    assert not is_value(assign(index(nil(), enat(0)), enat(0), enat(1)))
    assert not is_value(assign(enat(1), enat(0), enat(1)))
    assert not is_value(some(assign(enat(1), enat(0), enat(1))))


def _reference_is_value(t):
    # The recursive definition is_value walks in loops.
    v = fragment_view(t)
    if v is None:
        return False
    tag, p = v
    if tag == "option":
        return isinstance(p, InR) or _reference_is_value(p.payload.term)
    if tag != "array" or isinstance(p, InR):
        return tag == "nat"
    if isinstance(p.payload, InR):
        return True
    ops = p.payload.payload
    a, i, e = ops.fst.term, ops.snd.fst.term, ops.snd.snd.term
    literals = nat_value(i) is not None and nat_value(e) is not None
    return literals and downcast(LIFT_ARRAY, a) is not None and _reference_is_value(a)


def test_is_value_reference_differential():
    terms = differential_terms()
    answers = [is_value(t) for t in terms]
    assert answers == [_reference_is_value(t) for t in terms]
    assert 0 < answers.count(True) < len(terms)


def _deep(base, wrap, depth=5_000):
    t = base
    for k in range(depth):
        t = wrap(t, k)
    return t


def test_is_value_takes_any_depth():
    assert is_value(_deep(nil(), lambda a, k: assign(a, enat(k), enat(1))))
    assert is_value(_deep(enat(1), lambda e, _: some(e)))
    bad_base = assign(nil(), plus(enat(0), enat(0)), enat(1))
    assert not is_value(_deep(bad_base, lambda a, k: assign(a, enat(k), enat(1))))
    assert not is_value(_deep(index(nil(), enat(0)), lambda e, _: some(e)))


def _chain(pairs):
    t = nil()
    for i, e in pairs:
        t = assign(t, enat(i), enat(e))
    return t


def test_array_lookup_examples():
    assert array_lookup(nil(), 0) is none()
    one = _chain([(0, 1)])
    assert array_lookup(one, 0) == some(enat(1))
    assert array_lookup(one, 2) is none()


def test_array_lookup_non_literal_index_fails_closed():
    chain = assign(nil(), plus(enat(0), enat(0)), enat(1))
    assert array_lookup(chain, 0) is none()


def test_array_lookup_stops_on_lookup_node():
    assert array_lookup(index(nil(), enat(0)), 0) is none()
    chain = assign(index(nil(), enat(0)), enat(1), enat(2))
    assert array_lookup(chain, 1) == some(enat(2))
    assert array_lookup(chain, 0) is none()


def test_array_lookup_rejects_non_array_payload():
    # A payload is no term, and a term of another fragment is no array.
    with pytest.raises(ShapeError, match="got AtomVal"):
        array_lookup(AtomVal(BaseSet.NAT, 0), 0)
    with pytest.raises(ShapeError, match="got a nat term"):
        array_lookup(enat(0), 0)
    with pytest.raises(ShapeError, match="got a plus term"):
        array_lookup(plus(nil(), nil()), 0)


def test_array_lookup_error_names_the_class_not_the_value():
    # The repr of a 100-term chain's payload is past the recursion limit.
    chain = _deep(enat(1), lambda e, _: plus(e, enat(1)), depth=100)
    with pytest.raises(ShapeError, match="got Pair$"):
        array_lookup(view(chain)[1], 0)


def test_array_lookup_exhaustive_against_dict_oracle():
    # all chains of up to three writes, indices and values in {0,1,2}
    writes = list(itertools.product(range(3), range(3)))
    chains = [[]]
    for k in range(1, 4):
        chains += [list(c) for c in itertools.product(writes, repeat=k)]
    for pairs in chains:
        array = _chain(pairs)
        expected = {}
        for i, e in pairs:  # later (outermost) writes win
            expected[i] = e
        for n in range(4):
            got = array_lookup(array, n)
            if n in expected:
                assert got == some(enat(expected[n]))
            else:
                assert got is none()


def test_outermost_assignment_shadows():
    assert array_lookup(_chain([(0, 1), (0, 2)]), 0) == some(enat(2))


def test_values_do_not_step():
    for t in [enat(3), nil(), none(), some(enat(1)), assign(nil(), enat(0), enat(2))]:
        assert is_value(t)
        assert drive_step(t) is None


def test_nat_value_reads_literals_only():
    assert nat_value(enat(12)) == 12
    assert nat_value(plus(enat(1), enat(2))) is None


@pytest.mark.parametrize("n", range(SHARED_NATS))
def test_small_literals_are_shared(n):
    assert enat(n) is enat(n)
    assert view(enat(n)) == ("nat", AtomVal(BaseSet.NAT, n))


def test_none_and_nil_are_shared():
    assert none() is none()
    assert nil() is nil()


@pytest.mark.parametrize("bad", [True, False, -1, 1.0, "1"])
def test_shared_literals_still_reject_non_naturals(bad):
    # True == 1 and hash(True) == hash(1): a table keyed by value would
    # hand back the literal 1 here.
    with pytest.raises(ShapeError):
        enat(bad)


@pytest.mark.parametrize("n", [SHARED_NATS, 10**40])
def test_literals_past_the_table_are_equal_and_valid(n):
    a, b = enat(n), enat(n)
    assert a == b
    assert valid_term(FEXPR, a) and nat_value(a) == n


def test_int_subclass_literal_keeps_its_value():
    class Nat(int):
        pass

    t = enat(Nat(3))
    assert t == enat(3) and type(nat_value(t)) is Nat


def test_case_builders_build_what_upcast_builds():
    # Each smart constructor is compiled with its payload inline; its term
    # must be the generic upcast of that payload, with that payload as view.
    operands = list(itertools.islice(enumerate_terms(1, (0, 1)), 20)) + [Term(enat(1).node)]
    unit = AtomVal(BaseSet.UNIT, UNIT)
    built = [("none", none(), unit), ("nil", nil(), unit)]
    built += [("nat", enat(n), AtomVal(BaseSet.NAT, n)) for n in (0, 1, SHARED_NATS, 10**30)]
    for a in operands:
        built.append(("some", some(a), Slot(a)))
        for b in operands[::4]:
            built.append(("plus", plus(a, b), Pair(Slot(a), Slot(b))))
            built.append(("index", index(a, b), Pair(Slot(a), Slot(b))))
            built.append(("assign", assign(a, b, a), Pair(Slot(a), Pair(Slot(b), Slot(a)))))
    for case, t, payload in built:
        assert t.node == upcast(CASE_PATHS[case], payload).node, case
        assert (t.view_tag, t.view_payload) == (case, payload)
        assert view(Term(t.node)) == (case, payload)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: plus(1, enat(0)), "Pair payload does not inhabit the plus case"),
        (lambda: plus(enat(0), None), "Pair payload does not inhabit the plus case"),
        (lambda: some("x"), "Slot payload does not inhabit the some case"),
        (lambda: assign(nil(), enat(0), 1), "Pair payload does not inhabit the assign case"),
        (lambda: index(nil(), enat(0).node), "Pair payload does not inhabit the index case"),
        (lambda: enat(-1), "AtomVal payload does not inhabit the nat case"),
        (lambda: enat(True), "AtomVal payload does not inhabit the nat case"),
        (lambda: enat(1.0), "AtomVal payload does not inhabit the nat case"),
    ],
)
def test_case_builders_reject_as_their_lifters_do(build, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        build()
