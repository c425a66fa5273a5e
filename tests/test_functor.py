import random

import pytest
from hypothesis import given, strategies as st

from fraglang.functor import (
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
    UNIT,
    fmap,
    fold,
    valid_term,
    validate_payload,
    validator,
)
from fraglang.generate import random_payload, random_term
from fraglang.lang import ARRAY, FEXPR, NAT, OPTION, SUM, enat, nil, plus, some
from goldens import exp_term

NAT_ATOM = Atom(BaseSet.NAT)
UNIT_ATOM = Atom(BaseSet.UNIT)


def test_validate_atom_matches_its_set():
    assert validate_payload(NAT_ATOM, AtomVal(BaseSet.NAT, 6))
    assert not validate_payload(NAT_ATOM, AtomVal(BaseSet.UNIT, UNIT))
    assert not validate_payload(NAT_ATOM, AtomVal(BaseSet.NAT, UNIT))
    assert not validate_payload(NAT_ATOM, AtomVal(BaseSet.NAT, -1))
    assert not validate_payload(NAT_ATOM, AtomVal(BaseSet.NAT, True))


def test_validate_option_none_branch():
    assert validate_payload(Sum(Rec(), UNIT_ATOM), InR(AtomVal(BaseSet.UNIT, UNIT)))


def test_validate_rejects_injection_under_product():
    assert not validate_payload(Prod(Rec(), Rec()), InL(Slot(enat(0))))


def test_validate_default_slot_check_wants_terms():
    assert validate_payload(Rec(), Slot(enat(0)))
    assert not validate_payload(Rec(), Slot("not a term"))


def test_fmap_applies_to_slot():
    t = enat(1)
    assert fmap(Rec(), lambda _: enat(9), Slot(t)) == Slot(enat(9))


def test_fmap_identity_on_left_injection():
    p = InL(Slot(enat(3)))
    assert fmap(Sum(Rec(), UNIT_ATOM), lambda t: t, p) == p


def _hand_rolled_map(f, g, p):
    # Independent structural map used as the oracle for fmap.
    if isinstance(f, Rec) and isinstance(p, Slot):
        return Slot(g(p.term))
    if isinstance(f, Atom) and isinstance(p, AtomVal):
        return p
    if isinstance(f, Sum) and isinstance(p, InL):
        return InL(_hand_rolled_map(f.left, g, p.payload))
    if isinstance(f, Sum) and isinstance(p, InR):
        return InR(_hand_rolled_map(f.right, g, p.payload))
    if isinstance(f, Prod) and isinstance(p, Pair):
        return Pair(_hand_rolled_map(f.left, g, p.fst), _hand_rolled_map(f.right, g, p.snd))
    raise AssertionError("oracle saw a shape fmap should have rejected")


def test_fmap_product_matches_hand_rolled_map():
    a, b = enat(1), enat(2)
    g = lambda t: plus(t, enat(0))
    p = Pair(Slot(a), Slot(b))
    expected = _hand_rolled_map(Prod(Rec(), Rec()), g, p)
    assert fmap(Prod(Rec(), Rec()), g, p) == expected == Pair(Slot(g(a)), Slot(g(b)))


def test_fmap_rejects_mismatched_payload():
    with pytest.raises(ShapeError):
        fmap(Prod(Rec(), Rec()), lambda t: t, InL(Slot(enat(0))))


@pytest.mark.parametrize(
    "desc, p",
    [
        (NAT_ATOM, AtomVal(BaseSet.NAT, -1)),
        (NAT_ATOM, AtomVal(BaseSet.NAT, True)),
        (NAT_ATOM, AtomVal(BaseSet.UNIT, UNIT)),
        (UNIT_ATOM, AtomVal(BaseSet.UNIT, 0)),
        (UNIT_ATOM, AtomVal(BaseSet.NAT, 0)),
    ],
)
def test_fmap_rejects_an_atom_outside_its_set(desc, p):
    with pytest.raises(ShapeError):
        fmap(desc, lambda t: t, p)
    ok = AtomVal(desc.set, 3 if desc.set is BaseSet.NAT else UNIT)
    assert fmap(desc, lambda t: t, ok) is ok


def _chain(n=100):
    # 1 + 1 + ... + 1, left-nested: the repr of its node is past the
    # recursion limit.
    t = enat(1)
    for _ in range(n - 1):
        t = plus(t, enat(1))
    return t


def test_fmap_error_names_the_class_not_the_value():
    with pytest.raises(ShapeError, match="^InL payload does not inhabit descriptor Prod"):
        fmap(SUM, lambda t: t, _chain().node)


def _size_algebra(p):
    # one per term node; atoms contribute nothing
    match p:
        case Slot(n):
            return n
        case AtomVal():
            return 0
        case InL(q) | InR(q):
            return _size_algebra(q)
        case Pair(a, b):
            return _size_algebra(a) + _size_algebra(b)


def _leaf_depth(p):
    # atoms are depth-1 leaves; slots carry the folded depth of their subterm
    match p:
        case Slot(d):
            return d
        case AtomVal():
            return 1
        case InL(q) | InR(q):
            return _leaf_depth(q)
        case Pair(a, b):
            return max(_leaf_depth(a), _leaf_depth(b))


def _brute_force_depth(t):
    # Independent of fold: recurse over the raw object tree.
    def payload_depth(p):
        if isinstance(p, Slot):
            return _brute_force_depth(p.term)
        if isinstance(p, AtomVal):
            return 1
        if isinstance(p, (InL, InR)):
            return payload_depth(p.payload)
        return max(payload_depth(p.fst), payload_depth(p.snd))

    return 1 + payload_depth(t.node)


def test_fold_size_algebra():
    size_alg = lambda p: 1 + _size_algebra(p)
    assert fold(FEXPR, size_alg, enat(6)) == 1
    assert fold(FEXPR, size_alg, plus(enat(6), enat(7))) == 3


def test_fold_depth_algebra_on_worked_example():
    depth_alg = lambda p: 1 + _leaf_depth(p)
    exp = exp_term()
    assert _brute_force_depth(exp) == 4
    assert fold(FEXPR, depth_alg, exp) == 4
    assert fold(FEXPR, depth_alg, enat(6)) == _brute_force_depth(enat(6)) == 2


def test_fold_rebuild_is_identity():
    for t in [enat(0), some(nil()), exp_term()]:
        assert fold(FEXPR, Term, t) == t


def test_fold_error_names_the_class_not_the_value():
    with pytest.raises(ShapeError, match="^fold expects a Term, got InL$"):
        fold(SUM, lambda p: p, _chain().node)


DESCRIPTORS = [NAT, OPTION, SUM, ARRAY, FEXPR]


@given(st.integers(0, 2**32), st.sampled_from(DESCRIPTORS))
def test_fmap_identity_law(seed, desc):
    p = random_payload(random.Random(seed), desc, 3)
    assert fmap(desc, lambda t: t, p) == p


@given(st.integers(0, 2**32), st.sampled_from(DESCRIPTORS))
def test_fmap_composition_law(seed, desc):
    rng = random.Random(seed)
    p = random_payload(rng, desc, 3)
    g = lambda t: some(t)
    h = lambda t: plus(t, enat(0))
    composed = fmap(desc, lambda t: g(h(t)), p)
    assert composed == fmap(desc, g, fmap(desc, h, p))


# every payload constructor, valid or not, over a fixed leaf pool
_PAYLOAD_LEAVES = [
    AtomVal(BaseSet.NAT, 0),
    AtomVal(BaseSet.NAT, 2),
    AtomVal(BaseSet.UNIT, UNIT),
    AtomVal(BaseSet.NAT, UNIT),
    Slot(enat(0)),
    Slot(nil()),
]


def _payloads(depth):
    # Pair right components stay leaves: the full square at depth 4 is
    # astronomically large, and the left spine is where shapes diverge.
    if depth == 0:
        yield from _PAYLOAD_LEAVES
        return
    smaller = list(_payloads(depth - 1))
    for p in smaller:
        yield InL(p)
        yield InR(p)
    for a in smaller:
        for b in _PAYLOAD_LEAVES:
            yield Pair(a, b)


def _independent_check(f, p):
    # recursive-descent checker written against the shape table directly
    kind = type(f).__name__, type(p).__name__
    if kind == ("Rec", "Slot"):
        return isinstance(p.term, Term)
    if kind == ("Atom", "AtomVal"):
        if p.set is not f.set:
            return False
        if f.set is BaseSet.NAT:
            return isinstance(p.value, int) and not isinstance(p.value, bool) and p.value >= 0
        return p.value == UNIT
    if kind == ("Sum", "InL"):
        return _independent_check(f.left, p.payload)
    if kind == ("Sum", "InR"):
        return _independent_check(f.right, p.payload)
    if kind == ("Prod", "Pair"):
        return _independent_check(f.left, p.fst) and _independent_check(f.right, p.snd)
    return False


def test_validate_agrees_with_independent_checker():
    # spine-exhaustive to depth 3, randomized beyond
    count = 0
    for depth in range(4):
        for p in _payloads(depth):
            assert validate_payload(FEXPR, p) == _independent_check(FEXPR, p)
            count += 1
    assert count > 3000
    rng = random.Random(7)
    for desc in DESCRIPTORS:
        for _ in range(500):
            p = random_payload(rng, desc, 4)
            assert validate_payload(FEXPR, p) == _independent_check(FEXPR, p)


def test_valid_term_accepts_constructor_output():
    rng = random.Random(11)
    for _ in range(200):
        assert valid_term(FEXPR, random_term(rng, 6))
    assert not valid_term(FEXPR, Term(Slot(enat(0))))


def test_a_repeat_validator_call_hashes_no_descriptor(monkeypatch):
    # The check is found by the descriptor's identity; hashing FEXPR walks all of it.
    check = validator(FEXPR)
    hashed = []
    real_hash = Sum.__hash__
    monkeypatch.setattr(Sum, "__hash__", lambda self: hashed.append(self) or real_hash(self))
    assert validator(FEXPR) is check
    assert valid_term(FEXPR, plus(enat(1), enat(2)))
    assert valid_term(FEXPR, plus(enat(1), enat(2)))
    hashed.clear()
    assert validator(FEXPR) is check and valid_term(FEXPR, exp_term())
    assert hashed == []


def test_equal_descriptors_share_one_check():
    twin = Sum(FEXPR.left, FEXPR.right)
    assert twin == FEXPR and twin is not FEXPR
    assert validator(twin) is validator(FEXPR)
    assert validator(Sum(FEXPR.left, FEXPR.right)) is validator(FEXPR)
