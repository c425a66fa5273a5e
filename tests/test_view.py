import random

import pytest

from fraglang.functor import AtomVal, BaseSet, InL, InR, Pair, ShapeError, Slot, Term
from fraglang.generate import enumerate_terms, random_payload
from fraglang.lang import (
    FEXPR,
    LIFT_PATHS,
    assign,
    enat,
    index,
    is_value,
    lift_sum,
    nil,
    none,
    plus,
    some,
    view,
)
from fraglang.oracle import embed
from fraglang.semantics import Lookup, StepV, ViaArray, ViaSum, drive_step, validate_step
from fraglang.subobject import Direction, downcast, path_target
from fraglang.surface import render
from fraglang.typecheck import LangType, LiftWtNat, infer, validate_typing

# Foreign Terms that no constructor builds; each fails the shape check
# somewhere on the node a destructor takes apart.
MALFORMED = {
    "slot holds an int": Term(InL(InR(Pair(Slot(1), Slot(2))))),
    "negative literal": Term(InL(InL(InL(AtomVal(BaseSet.NAT, -1))))),
    "bool literal": Term(InL(InL(InL(AtomVal(BaseSet.NAT, True))))),
    "wrong spine": Term(InR(InR(Slot(3)))),
    "bare slot": Term(Slot(enat(0))),
    "malformed operand": plus(enat(0), Term(InR(InR(Slot(3))))),
}


def _downcast_view(t):
    # Reference: the four per-path downcasts view replaces.
    hits = [(tag, p) for tag, path in LIFT_PATHS.items() if (p := downcast(path, t)) is not None]
    assert len(hits) <= 1
    return hits[0] if hits else None


def test_view_tags_each_constructor():
    a = assign(nil(), enat(0), enat(1))
    assert view(enat(4)) == ("nat", AtomVal(BaseSet.NAT, 4))
    assert view(some(enat(1)))[0] == view(none())[0] == "option"
    assert view(plus(enat(1), nil())) == ("sum", Pair(Slot(enat(1)), Slot(nil())))
    assert [view(x)[0] for x in (nil(), a, index(a, enat(0)))] == ["array"] * 3


def test_view_agrees_with_downcast():
    terms = list(enumerate_terms(1, (0, 1))) + list(MALFORMED.values())
    rng = random.Random(5)
    terms += [Term(random_payload(rng, FEXPR, 3)) for _ in range(500)]
    # Every fragment's payloads under every fragment's spine, so the shape
    # check at the end of a spine is what decides.
    for own in LIFT_PATHS.values():
        for _ in range(50):
            p = random_payload(rng, path_target(own), 2)
            for spine in LIFT_PATHS.values():
                node = p
                for step in spine.steps:
                    node = InL(node) if step is Direction.LEFT else InR(node)
                terms.append(Term(node))
    for t in terms:
        assert view(t) == _downcast_view(t)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_foreign_terms_are_rejected(name):
    t = MALFORMED[name]
    assert view(t) is None or name == "malformed operand"
    assert infer(t) is None
    assert drive_step(t) is None
    assert is_value(t) is False
    with pytest.raises(ShapeError):
        embed(t)
    with pytest.raises(ShapeError):
        render(t)


def test_validators_reject_a_bool_literal_that_compares_equal():
    # True == 1, so a claimed term rebuilt from the derivation compares equal
    # to the bool literal; the validators read the literal through view.
    bad = MALFORMED["bool literal"]
    assert infer(bad) is None
    assert validate_typing(LiftWtNat(1), bad, LangType.NAT) is False
    source = lift_sum(Pair(Slot(bad), Slot(enat(0))))
    assert validate_step(ViaSum(StepV(1, 0)), source, enat(1)) is False


def test_lookup_is_checked_against_the_source_array():
    # The derivation's chain holds the bool index True, which equals the
    # source's index 1 under ==.  The result is computed from the source's
    # own array, so the true target is accepted and a false one is not.
    polluted = InL(InL(Pair(Slot(nil()), Pair(Slot(MALFORMED["bool literal"]), Slot(enat(0))))))
    source = index(assign(nil(), enat(1), enat(0)), enat(1))
    d = ViaArray(Lookup(polluted, 1))
    assert validate_step(d, source, some(enat(0))) is True
    assert validate_step(d, source, none()) is False
