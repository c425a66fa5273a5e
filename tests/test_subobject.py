import random

import pytest
from hypothesis import given, strategies as st

from fraglang.functor import UNIT, AtomVal, BaseSet, InL, InR, Pair, ShapeError, Slot, Term
from fraglang.generate import random_payload
from fraglang.lang import (
    ARRAY,
    CASE_PATHS,
    FEXPR,
    LIFT_ARRAY,
    LIFT_NAT,
    LIFT_OPTION,
    LIFT_SUM,
    NAT,
    OPTION,
    SUM,
    enat,
    lift_assign,
    lift_index,
    lift_nat,
    lift_nil,
    lift_none,
    lift_plus,
    lift_some,
    nil,
    plus,
)
from fraglang.subobject import (
    ContainsPath,
    MalformedPathError,
    downcast,
    lifter,
    path_target,
    upcast,
)

L, R = InL, InR
LIFTS = [LIFT_NAT, LIFT_OPTION, LIFT_SUM, LIFT_ARRAY]


def test_path_target_refl_is_root():
    assert path_target(ContainsPath((), FEXPR)) == FEXPR


def test_path_target_single_right_is_array():
    assert path_target(LIFT_ARRAY) == ARRAY


def test_path_target_triple_left_is_nat():
    assert path_target(LIFT_NAT) == NAT


def test_path_target_fragment_paths():
    assert path_target(LIFT_OPTION) == OPTION
    assert path_target(LIFT_SUM) == SUM


def test_path_target_rejects_step_into_non_sum():
    with pytest.raises(MalformedPathError):
        path_target(ContainsPath((L,), NAT))
    # the walk reads steps last-to-first, so the bad step is the first one
    with pytest.raises(MalformedPathError):
        path_target(ContainsPath((L, L, L, L), FEXPR))


def test_upcast_nat_spine():
    t = upcast(LIFT_NAT, AtomVal(BaseSet.NAT, 6))
    assert t == Term(InL(InL(InL(AtomVal(BaseSet.NAT, 6)))))


def test_upcast_order_inversion():
    # first step wraps first: (right, left) puts the InR innermost
    e1, e2 = enat(1), enat(2)
    t = upcast(LIFT_SUM, Pair(Slot(e1), Slot(e2)))
    assert t == Term(InL(InR(Pair(Slot(e1), Slot(e2)))))


def test_upcast_empty_path_wraps_directly():
    p = InL(InL(InL(AtomVal(BaseSet.NAT, 3))))
    assert upcast(ContainsPath((), FEXPR), p) == Term(p)


def test_upcast_rejects_wrong_payload():
    with pytest.raises(ShapeError):
        upcast(LIFT_NAT, Pair(Slot(enat(0)), Slot(enat(0))))


def test_lifter_error_names_the_class_not_the_value():
    # The repr of a 100-term chain is past the recursion limit.
    chain = enat(1)
    for _ in range(99):
        chain = plus(chain, enat(1))
    with pytest.raises(ShapeError, match="^Pair payload does not inhabit the target of path"):
        lifter(LIFT_SUM)(Pair(Slot(chain), UNIT))


def test_tagged_lifter_error_names_its_case():
    with pytest.raises(ShapeError, match="^AtomVal payload does not inhabit the nat case$"):
        enat(-1)
    with pytest.raises(ShapeError, match="^Pair payload does not inhabit the plus case$"):
        lifter(CASE_PATHS["plus"], "plus")(Pair(Slot(enat(1)), UNIT))


def test_a_tag_names_one_spine():
    # Term's == trusts that equal tags mean equal spines, and back.  lang's
    # seven lifters are bound, so asking again hands back the same one.
    lifters = [lift_nat, lift_some, lift_none, lift_plus, lift_assign, lift_nil, lift_index]
    for (case, path), lift in zip(CASE_PATHS.items(), lifters):
        assert lifter(path, case) is lift
    with pytest.raises(ValueError, match="^tag 'plus' is already bound to another path$"):
        lifter(CASE_PATHS["index"], "plus")
    with pytest.raises(ValueError, match="^the spine of tag 'sum' already carries tag 'plus'$"):
        lifter(LIFT_SUM, "sum")
    # A sum target's payload is an injection, which a longer spine reads.
    with pytest.raises(ValueError, match="^tag 'option' would name a sum, not a case$"):
        lifter(LIFT_OPTION, "option")
    # The refusals bound nothing.
    assert plus(enat(1), nil()).view_tag == "plus"
    with pytest.raises(ValueError, match="already carries tag 'plus'"):
        lifter(LIFT_SUM, "sum")


def test_a_path_step_is_an_injection():
    with pytest.raises(MalformedPathError, match="is no injection"):
        path_target(ContainsPath((Pair,), FEXPR))


def test_downcast_left_inverse_on_image():
    assert downcast(LIFT_NAT, enat(6)) == AtomVal(BaseSet.NAT, 6)


def test_downcast_other_path_is_empty():
    assert downcast(LIFT_ARRAY, enat(6)) is None


def test_downcast_inverts_plus():
    a, b = enat(1), nil()
    assert downcast(LIFT_SUM, plus(a, b)) == Pair(Slot(a), Slot(b))


def _payload_pool(path, rng, count=40):
    target = path_target(path)
    return [random_payload(rng, target, rng.randrange(3)) for _ in range(count)]


def test_round_trip_and_disjointness_over_lift_paths():
    rng = random.Random(5)
    for path in LIFTS:
        for p in _payload_pool(path, rng):
            t = upcast(path, p)
            assert downcast(path, t) == p
            for other in LIFTS:
                if other != path:
                    assert downcast(other, t) is None


@given(st.integers(0, 2**32), st.sampled_from(LIFTS))
def test_round_trip_property(seed, path):
    p = random_payload(random.Random(seed), path_target(path), 2)
    assert downcast(path, upcast(path, p)) == p


def test_injectivity_via_round_trip():
    # distinct payloads lift to distinct terms
    rng = random.Random(9)
    for path in LIFTS:
        pool = _payload_pool(path, rng, 25)
        lifted = {}
        for p in pool:
            t = upcast(path, p)
            assert lifted.setdefault(t, p) == p


def test_forgetful_lift_violates_round_trip():
    # a lift that discards its argument admits no left inverse
    forgetful = lambda pair: enat(0)
    p = Pair(Slot(enat(1)), Slot(enat(2)))
    q = Pair(Slot(enat(3)), Slot(enat(4)))
    assert p != q
    assert forgetful(p) == forgetful(q)  # collision: injectivity gone
    assert downcast(LIFT_SUM, forgetful(p)) != p  # and no round trip either
    # the honest lift keeps them apart
    assert upcast(LIFT_SUM, p) != upcast(LIFT_SUM, q)
