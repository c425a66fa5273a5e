import dataclasses
import itertools
import random
import sys
import threading

import pytest

from fraglang.functor import UNIT, AtomVal, BaseSet, InL, InR, Pair, ShapeError, Slot, Term
from fraglang.generate import enumerate_terms, random_payload, random_typed_term
from fraglang.lang import (
    CASE_PATHS,
    FEXPR,
    LIFT_PATHS,
    assign,
    enat,
    index,
    is_value,
    lift_assign,
    lift_plus,
    nil,
    none,
    plus,
    some,
    view,
)
from fraglang.oracle import embed
from fraglang.semantics import Lookup, StepV, ViaArray, ViaSum, drive_step, validate_step
from fraglang.subobject import downcast, path_target
from fraglang.surface import parse, render
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
    # Reference: the seven per-case downcasts view replaces.
    hits = [(case, q) for case, path in CASE_PATHS.items() if (q := downcast(path, t)) is not None]
    assert len(hits) <= 1
    return hits[0] if hits else None


def test_view_tags_each_constructor():
    a = assign(nil(), enat(0), enat(1))
    unit = AtomVal(BaseSet.UNIT, UNIT)
    assert view(enat(4)) == ("nat", AtomVal(BaseSet.NAT, 4))
    assert view(some(enat(1))) == ("some", Slot(enat(1)))
    assert view(none()) == ("none", unit)
    assert view(plus(enat(1), nil())) == ("plus", Pair(Slot(enat(1)), Slot(nil())))
    assert view(nil()) == ("nil", unit)
    assert view(a) == ("assign", Pair(Slot(nil()), Pair(Slot(enat(0)), Slot(enat(1)))))
    assert view(index(a, enat(0))) == ("index", Pair(Slot(a), Slot(enat(0))))


def test_view_agrees_with_downcast():
    terms = list(enumerate_terms(1, (0, 1))) + list(MALFORMED.values())
    rng = random.Random(5)
    terms += [Term(random_payload(rng, FEXPR, 3)) for _ in range(500)]
    # Every fragment's and every case's payloads under every fragment's and
    # every case's spine, so the shape check at the end of a spine is what
    # decides.
    paths = [*LIFT_PATHS.values(), *CASE_PATHS.values()]
    for own in paths:
        for _ in range(50):
            p = random_payload(rng, path_target(own), 2)
            for spine in paths:
                node = p
                for step in spine.steps:
                    node = step(node)
                terms.append(Term(node))
    for t in terms:
        assert view(t) == _downcast_view(t)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_foreign_terms_are_rejected(name):
    t = MALFORMED[name]
    for _ in range(2):  # the second pass finds the term as the first left it
        assert view(t) is None or name == "malformed operand"
        assert infer(t) is None
        assert drive_step(t) is None
        assert is_value(t) is False
        with pytest.raises(ShapeError):
            embed(t)
        with pytest.raises(ShapeError):
            render(t)


def _nodes(t):
    # Every Term under t, found by walking payloads, not by view.
    stack = [t]
    while stack:
        x = stack.pop()
        yield x
        parts = [x.node]
        while parts:
            p = parts.pop()
            if isinstance(p, (InL, InR)):
                parts.append(p.payload)
            elif isinstance(p, Pair):
                parts += [p.fst, p.snd]
            elif isinstance(p, Slot) and isinstance(p.term, Term):
                stack.append(p.term)


def _typed_draws(count=200):
    rng = random.Random(8)
    kinds = (LangType.NAT, LangType.OPTION, LangType.ARRAY)
    return [random_typed_term(rng, kinds[i % 3], 1 + i % 20) for i in range(count)]


def test_cached_view_equals_a_spine_read():
    terms = list(itertools.islice(enumerate_terms(2, (0, 1)), 20_000))
    terms += [n for t in _typed_draws() for n in _nodes(t)]
    for t in terms:
        v = view(t)
        assert v == _downcast_view(t) == view(Term(t.node))
        # The lifter recorded the very payload it wrapped.
        assert v[1] is _downcast_view(t)[1]
        assert (t.view_tag, t.view_payload) == v


def test_lifters_record_the_view_and_foreign_terms_are_read_without_writes():
    built = plus(enat(1), nil())
    assert (built.view_tag, built.view_payload) == view(built)
    foreign = Term(built.node)
    for _ in range(2):
        assert view(foreign) == view(built)
    assert not hasattr(foreign, "view_tag")
    assert view(foreign)[1] is built.view_payload
    bad = Term(InR(InR(Slot(3))))
    for _ in range(2):
        assert view(bad) is None
    assert not hasattr(bad, "view_tag") and not hasattr(bad, "view_payload")


def test_view_cache_is_outside_equality_hash_and_repr():
    assert [f.name for f in dataclasses.fields(Term)] == ["node"]
    filled = assign(nil(), enat(0), some(enat(1)))
    empty = Term(filled.node)
    assert not hasattr(empty, "view_tag")
    assert filled == empty and hash(filled) == hash(empty) and repr(filled) == repr(empty)
    assert "view" not in repr(filled)
    view(empty)
    assert filled == empty and hash(filled) == hash(empty) and repr(filled) == repr(empty)


def test_threads_viewing_shared_foreign_terms_agree():
    shared = [Term(t.node) for t in itertools.islice(enumerate_terms(2, (0, 1)), 3_000)]
    shared += [Term(t.node) for t in MALFORMED.values()]
    start = threading.Barrier(4)
    seen = [None] * 4

    def work(k):
        start.wait(timeout=60)
        seen[k] = [view(t) for t in shared]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter will
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    expected = [_downcast_view(t) for t in shared]
    for views in seen:
        assert views == expected
        assert all(v is None or v[1] is e[1] for v, e in zip(views, expected))


def test_validators_reject_a_bool_literal_that_compares_equal():
    # True == 1, so a claimed term rebuilt from the derivation compares equal
    # to the bool literal; the validators read the literal through view.
    bad = MALFORMED["bool literal"]
    assert infer(bad) is None
    assert validate_typing(LiftWtNat(1), bad, LangType.NAT) is False
    source = lift_plus(Pair(Slot(bad), Slot(enat(0))))
    assert validate_step(ViaSum(StepV(1, 0)), source, enat(1)) is False


def test_lookup_is_checked_against_the_source_array():
    # The derivation's array holds the bool index True, which equals the
    # source's index 1 under ==.  The result is computed from the source's
    # own array, so the true target is accepted and a false one is not.
    polluted = Pair(Slot(nil()), Pair(Slot(MALFORMED["bool literal"]), Slot(enat(0))))
    source = index(assign(nil(), enat(1), enat(0)), enat(1))
    d = ViaArray(Lookup(lift_assign(polluted), 1))
    assert validate_step(d, source, some(enat(0))) is True
    assert validate_step(d, source, none()) is False


def _dataclass_eq(a, b):
    # The dataclass rule at every level, Term included: the same class, then
    # equal fields in order, each by identity first; any other value by ==.
    if a is b:
        return True
    if not dataclasses.is_dataclass(a) or not dataclasses.is_dataclass(b):
        return a == b
    return a.__class__ is b.__class__ and all(
        _dataclass_eq(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


def _equality_pairs():
    terms = list(itertools.islice(enumerate_terms(2, (0, 1)), 4_000))
    rng = random.Random(22)
    for t in terms:
        copy, rebuilt, other = Term(t.node), parse(render(t)), rng.choice(terms)
        yield from [(t, rebuilt), (rebuilt, t), (t, copy), (copy, t), (copy, Term(rebuilt.node))]
        yield from [(t, other), (copy, other), (other, copy)]
    a, b = enat(1), nil()
    bool_one = MALFORMED["bool literal"]
    yield from [
        (none(), nil()),  # one payload, two cases
        (nil(), none()),
        (plus(a, b), index(a, b)),
        (index(a, b), plus(a, b)),
        (bool_one, enat(1)),  # True == 1, in a foreign node
        (enat(1), bool_one),
        (plus(bool_one, a), plus(enat(1), a)),
        (some(bool_one), some(Term(enat(1).node))),
        (plus(bool_one, a), Term(plus(enat(1), a).node)),
    ]


def test_term_equality_is_the_dataclass_rule():
    # Term's == reads the recorded views where both sides carry one; it must
    # answer as the dataclass's comparison of nodes does, at every level.
    equal = 0
    for x, y in _equality_pairs():
        expected = _dataclass_eq(x, y)
        assert (x == y) is expected is (x.node == y.node), (render(x), render(y))
        assert (x != y) is not expected
        if expected:
            assert hash(x) == hash(y)
            equal += 1
    assert equal > 20_000
    assert none() != nil() and plus(enat(1), nil()) != index(enat(1), nil())
    assert MALFORMED["bool literal"] == enat(1)


def test_term_equality_leaves_other_operands_to_them():
    class Subterm(Term):
        pass

    t = plus(enat(1), nil())
    for x in (t, Term(t.node)):
        for other in (3, None, "plus", t.node, Slot(t), Subterm(t.node)):
            assert x.__eq__(other) is NotImplemented
            assert (x == other) is False and (other == x) is False
