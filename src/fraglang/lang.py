"""The composed language: naturals, options, sums, and arrays.

A sum of sums: each fragment is the left-nested sum of its cases, and the
language is the left-nested sum of the fragments under the fixed point.
One lifter per case wraps its payload along the case's path, and ``view``
reads the case back, so no other module decodes a fragment's injections.
"""

from __future__ import annotations

import functools
from typing import Callable

from .functor import (
    Atom,
    AtomVal,
    BaseSet,
    FunctorDesc,
    InL,
    InR,
    Payload,
    Prod,
    Rec,
    ShapeError,
    Sum,
    Term,
    UNIT,
)
from .subobject import ContainsPath, builder, lifter, reader


# The fragments in order, each with its cases in order.
FRAGMENTS = {
    "nat": {"nat": Atom(BaseSet.NAT)},
    "option": {"some": Rec(), "none": Atom(BaseSet.UNIT)},
    "sum": {"plus": Prod(Rec(), Rec())},
    "array": {
        "assign": Prod(Rec(), Prod(Rec(), Rec())),
        "nil": Atom(BaseSet.UNIT),
        "index": Prod(Rec(), Rec()),
    },
}
LITERAL = "nat"  # the case of a literal, which the step rules and the concrete syntax treat apart


def _summand_paths(n: int) -> list[tuple[type[InL] | type[InR], ...]]:
    # Summand k of a left-nested sum of n is wrapped in one InR (none for the
    # first), then in n - 1 - k InLs: a path lists its injections innermost first.
    return [(InR,)[:k] + (InL,) * (n - 1 - k) for k in range(n)]


NAT, OPTION, SUM, ARRAY = (functools.reduce(Sum, cases.values()) for cases in FRAGMENTS.values())
FEXPR = functools.reduce(Sum, (NAT, OPTION, SUM, ARRAY))

LIFT_PATHS = {
    tag: ContainsPath(steps, FEXPR) for tag, steps in zip(FRAGMENTS, _summand_paths(len(FRAGMENTS)))
}
LIFT_NAT, LIFT_OPTION, LIFT_SUM, LIFT_ARRAY = LIFT_PATHS.values()

# Each case's path inside its fragment.
_INNER_PATHS = {
    tag: {case: ContainsPath(steps, desc) for case, steps in zip(cases, _summand_paths(len(cases)))}
    for (tag, cases), desc in zip(FRAGMENTS.items(), (NAT, OPTION, SUM, ARRAY))
}
# Each case's path: its injections inside its fragment, then the fragment's.
CASE_PATHS = {
    case: ContainsPath(inner.steps + LIFT_PATHS[tag].steps, FEXPR)
    for tag, cases in _INNER_PATHS.items()
    for case, inner in cases.items()
}

# Each lifter records its case's view on the terms it builds.
LIFTERS = {case: lifter(path, case) for case, path in CASE_PATHS.items()}
lift_nat, lift_some, lift_none, lift_plus, lift_assign, lift_nil, lift_index = LIFTERS.values()


def _slot_paths(desc: FunctorDesc, path: str = "") -> list[str]:
    # The attribute path to the term in each recursion slot of a payload of desc.
    if isinstance(desc, Prod):
        return _slot_paths(desc.left, path + "fst.") + _slot_paths(desc.right, path + "snd.")
    return [path + "term"] if isinstance(desc, Rec) else []


# Each case's recursion slots in order, as paths from its payload: "fst.term".
SLOT_PATHS = {case: tuple(_slot_paths(desc)) for cases in FRAGMENTS.values() for case, desc in cases.items()}

# For a term no lifter built: each fragment's reader, then the readers of
# its cases inside it.
_READERS = tuple(
    (reader(LIFT_PATHS[tag]), tuple((case, reader(inner)) for case, inner in cases.items()))
    for tag, cases in _INNER_PATHS.items()
)


View = tuple[str, Payload]


def view(t: Term) -> View | None:
    """The case of ``t``'s node and that case's payload, or None.

    ``view(t) == (case, q)`` exactly when ``downcast(CASE_PATHS[case], t)
    == q``.  The lifters above record the answer on every term they build;
    any other term is read on every call, and nothing is written to it: its
    fragment's injections once, then its case's inside that fragment.
    """
    try:
        return t.view_tag, t.view_payload
    except AttributeError:
        pass
    node = t.node
    for read_fragment, cases in _READERS:
        q = read_fragment(node)
        if q is not None:
            # q inhabits the fragment, so exactly one case reads it.
            for case, read_case in cases:
                p = read_case(q)
                if p is not None:
                    return case, p
    return None


def read_view(term: str, tag: str, payload: str) -> list[str]:
    """Lines of code that bind ``tag, payload`` to the view of ``term``.

    For code generated over the rows: the view the lifter recorded, read
    from its slots, or else ``view``'s answer, with None for both where
    that is None.  The code calls ``view`` by that name.
    """
    return ["try:", f"    {tag}, {payload} = {term}.view_tag, {term}.view_payload", "except AttributeError:",
            f"    {tag}, {payload} = view({term}) or (None, None)"]


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


_NONE = lift_none(AtomVal(BaseSet.UNIT, UNIT))
_NIL = lift_nil(AtomVal(BaseSet.UNIT, UNIT))


def none() -> Term:
    """The absent optional value, one shared object."""
    return _NONE


def nil() -> Term:
    """The empty array, one shared object."""
    return _NIL


def _built(case: str, doc: str, *params: str) -> Callable[..., Term]:
    # The case's smart constructor, compiled with its payload inline.
    build = builder(CASE_PATHS[case], case, *params)
    build.__name__ = build.__qualname__ = case
    build.__module__, build.__doc__ = __name__, doc
    return build


plus = _built("plus", "Addition of two expressions.", "e1", "e2")
some = _built("some", "A present optional value.", "e")
assign = _built("assign", "Array a extended with e written at index i.", "a", "i", "e")
index = _built("index", "Array lookup of index i in a.", "a", "i")
# Those constructors, and none and nil, by case; each takes its payload's slot terms in order.
BUILDERS = {build.__name__: build for build in (plus, some, assign, index, none, nil)}


def nat_value(t: Term) -> int | None:
    """The literal under a natural, or None, for any other term or object."""
    v = view(t) if isinstance(t, Term) else None
    return v[1].value if v is not None and v[0] == "nat" else None


def is_value(t: Term) -> bool:
    """Normal forms the step rules treat as results.

    Naturals; nil; assignment chains over nil whose indices and elements
    are all literals; none; and some of a value.  Lookup nodes are never
    values.  Both chains are walked in a loop, so any depth is answered.
    """
    v = view(t)
    while v is not None and v[0] == "some":  # some(e) is a value when e is
        v = view(v[1].term)
    if v is not None and (v[0] == "nat" or v[0] == "none"):
        return True
    while v is not None and v[0] == "assign":
        ops = v[1]
        if nat_value(ops.snd.fst.term) is None or nat_value(ops.snd.snd.term) is None:
            return False
        v = view(ops.fst.term)
    return v is not None and v[0] == "nil"


def array_lookup(a: Term, n: int) -> Term:
    """Scan an assignment chain for index n; the outermost write wins.

    Returns some of the stored element on a hit, and none when the chain
    ends at nil.  The scan fails closed (none) on any node that is not an
    assignment or nil, and on any non-literal index, since no rule ever
    evaluates inside an assignment.  Raises ShapeError when ``a`` is no
    array.
    """
    v = view(a) if isinstance(a, Term) else None
    if v is None or v[0] not in FRAGMENTS["array"]:
        got = type(a).__name__ if v is None else f"a {v[0]} term"
        raise ShapeError(f"array_lookup expects an array term, got {got}")
    while v is not None and v[0] == "assign":
        ops = v[1]
        stored = nat_value(ops.snd.fst.term)
        if stored is None:
            break
        if stored == n:
            return some(ops.snd.snd.term)
        v = view(ops.fst.term)
    return _NONE
