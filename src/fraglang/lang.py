"""The composed language: naturals, options, sums, and arrays.

Each fragment is a descriptor; the whole language is their left-nested
disjoint sum under the fixed point.  Smart constructors lift fragment
payloads along the fragment's path, and destructors invert them.
"""

from __future__ import annotations

import functools

from .functor import (
    Atom,
    AtomVal,
    BaseSet,
    InL,
    InR,
    Pair,
    Payload,
    Prod,
    Rec,
    ShapeError,
    Slot,
    Sum,
    Term,
    UNIT,
)
from .subobject import ContainsPath, downcast, lifter


NAT = Atom(BaseSet.NAT)
OPTION = Sum(Rec(), Atom(BaseSet.UNIT))
SUM = Prod(Rec(), Rec())
# Three cases: assignment (a, i, e), the empty array, and lookup (a, i).
ARRAY = Sum(
    Sum(Prod(Rec(), Prod(Rec(), Rec())), Atom(BaseSet.UNIT)),
    Prod(Rec(), Rec()),
)
# The fragments in order.  The language is their left-nested sum, so a
# payload of fragment k of n is wrapped in one InR (none for the first),
# then in n - 1 - k InLs: a path lists its injections innermost first.
FRAGMENTS = {"nat": NAT, "option": OPTION, "sum": SUM, "array": ARRAY}
FEXPR = functools.reduce(Sum, FRAGMENTS.values())

LIFT_PATHS = {
    tag: ContainsPath((InR,)[:k] + (InL,) * (len(FRAGMENTS) - 1 - k), FEXPR)
    for k, tag in enumerate(FRAGMENTS)
}
LIFT_NAT, LIFT_OPTION, LIFT_SUM, LIFT_ARRAY = LIFT_PATHS.values()

# Each lifter records its fragment's view on the terms it builds.
lift_nat, lift_option, lift_sum, lift_array = (lifter(path, tag) for tag, path in LIFT_PATHS.items())


View = tuple[str, Payload]


def view(t: Term) -> View | None:
    """The fragment tag and payload under ``t``'s node, or None.

    ``view(t) == (tag, p)`` exactly when ``downcast(LIFT_PATHS[tag], t) ==
    p``.  The lifters above record the answer on every term they build;
    any other term is read through ``downcast``, on every call, and nothing
    is written to it.
    """
    try:
        return t.view_tag, t.view_payload
    except AttributeError:
        pass
    for tag, path in LIFT_PATHS.items():
        p = downcast(path, t)
        if p is not None:
            return tag, p
    return None


# Literals below this bound are shared: one Term each, built at import.
SHARED_NATS = 256
_NATS = tuple(lift_nat(AtomVal(BaseSet.NAT, n)) for n in range(SHARED_NATS))


def enat(n: int) -> Term:
    """A natural-number literal; equal small literals are one object.

    Anything but a plain int in range, ``True`` included, is built and
    shape-checked afresh.
    """
    if type(n) is int and 0 <= n < SHARED_NATS:
        return _NATS[n]
    return lift_nat(AtomVal(BaseSet.NAT, n))


def plus(e1: Term, e2: Term) -> Term:
    """Addition of two expressions."""
    return lift_sum(Pair(Slot(e1), Slot(e2)))


def some(e: Term) -> Term:
    """A present optional value."""
    return lift_option(InL(Slot(e)))


_NONE = lift_option(InR(AtomVal(BaseSet.UNIT, UNIT)))
_NIL = lift_array(InL(InR(AtomVal(BaseSet.UNIT, UNIT))))


def none() -> Term:
    """The absent optional value, one shared object."""
    return _NONE


def nil() -> Term:
    """The empty array, one shared object."""
    return _NIL


def assign(a: Term, i: Term, e: Term) -> Term:
    """Array a extended with e written at index i."""
    return lift_array(InL(InL(Pair(Slot(a), Pair(Slot(i), Slot(e))))))


def index(a: Term, i: Term) -> Term:
    """Array lookup of index i in a."""
    return lift_array(InR(Pair(Slot(a), Slot(i))))


def nat_value(t: Term) -> int | None:
    """The literal under a natural, or None."""
    v = view(t)
    return v[1].value if v is not None and v[0] == "nat" else None


def array_payload(t: Term) -> Payload | None:
    v = view(t)
    return v[1] if v is not None and v[0] == "array" else None


def is_value(t: Term) -> bool:
    """Normal forms the step rules treat as results.

    Naturals; nil; assignment chains whose indices and elements are all
    literals; none; and some of a value.  Lookup nodes are never values.
    Both chains are walked in a loop, so any depth is answered.
    """
    v = view(t)
    while v is not None and v[0] == "option":
        if isinstance(v[1], InR):  # none
            return True
        v = view(v[1].payload.term)  # some(e) is a value when e is
    if v is None:
        return False
    tag, p = v
    if tag != "array":
        return tag == "nat"
    # Three array cases, read by field on a viewed payload: lookup
    # InR(a, i) is no value, the empty array InL(InR(unit)) is one, and
    # assignment InL(InL(a, (i, e))) is one when i and e are literals and
    # a is a value.
    while isinstance(p, InL):
        if isinstance(p.payload, InR):
            return True
        ops = p.payload.payload
        if nat_value(ops.snd.fst.term) is None or nat_value(ops.snd.snd.term) is None:
            return False
        p = array_payload(ops.fst.term)
    return False


def array_lookup(a: Term, n: int) -> Term:
    """Scan an assignment chain for index n; the outermost write wins.

    Returns some of the stored element on a hit, and none when the chain
    ends at nil.  The scan fails closed (none) on any node that is not an
    assignment or nil, and on any non-literal index, since no rule ever
    evaluates inside an assignment.  Raises ShapeError when ``a`` is no
    array.
    """
    v = view(a) if isinstance(a, Term) else None
    if v is None or v[0] != "array":
        got = type(a).__name__ if v is None else f"a {v[0]} term"
        raise ShapeError(f"array_lookup expects an array term, got {got}")
    # Three array cases, read by field on a viewed payload: lookup InR(a, i)
    # and the empty array InL(InR(unit)) end the scan; assignment
    # InL(InL(a, (i, e))) holds n or passes it on to a.
    p = v[1]
    while isinstance(p, InL) and isinstance(p.payload, InL):
        ops = p.payload.payload
        stored = nat_value(ops.snd.fst.term)
        if stored is None:
            break
        if stored == n:
            return some(ops.snd.snd.term)
        p = array_payload(ops.fst.term)
    return _NONE
