"""Bounded term enumeration and random generation.

The enumerator is exhaustive, deterministic, and duplicate-free: terms are
produced stratum by stratum (exact constructor depth 0, 1, ...), and the
constructors are injective with disjoint images, so nothing repeats.
Strata are cached as lists only up to the depth needed for children, and
the current stratum streams lazily.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from .functor import (
    Atom,
    AtomVal,
    BaseSet,
    FunctorDesc,
    InL,
    InR,
    Pair,
    Payload,
    Prod,
    Rec,
    Slot,
    Sum,
    Term,
    UNIT,
)
from .lang import assign, enat, index, nil, none, plus, some
from .typecheck import LangType

DEPTH_CAP = 4
DEFAULT_LITERALS = (0, 1, 2)

_strata_cache: dict[tuple[int, tuple[int, ...]], list[Term]] = {}


def _leaves(literals: tuple[int, ...]) -> list[Term]:
    return [enat(n) for n in literals] + [nil(), none()]


def _stratum(depth: int, literals: tuple[int, ...]) -> Iterator[Term]:
    """Terms of exact constructor depth ``depth`` (leaves are depth 0)."""
    if depth == 0:
        yield from _leaves(literals)
        return
    pool = _pooled(depth - 1, literals)  # (term, depth) pairs, depth < current
    top = depth - 1
    for child, d in pool:
        if d == top:
            yield some(child)
    for builder in (plus, index):
        for (a, da), (b, db) in itertools.product(pool, pool):
            if max(da, db) == top:
                yield builder(a, b)
    for (a, da), (b, db), (c, dc) in itertools.product(pool, pool, pool):
        if max(da, db, dc) == top:
            yield assign(a, b, c)


def _pooled(max_depth: int, literals: tuple[int, ...]) -> list[tuple[Term, int]]:
    pool = []
    for d in range(max_depth + 1):
        key = (d, literals)
        if key not in _strata_cache:
            _strata_cache[key] = list(_stratum(d, literals))
        pool.extend((t, d) for t in _strata_cache[key])
    return pool


def enumerate_terms(depth: int, literals: Sequence[int] = DEFAULT_LITERALS) -> Iterator[Term]:
    """All terms of constructor depth <= depth, in a fixed order."""
    if depth > DEPTH_CAP:
        raise ValueError(f"enumeration depth {depth} exceeds the cap of {DEPTH_CAP}")
    lits = tuple(literals)
    for d in range(depth + 1):
        yield from _stratum(d, lits)


def random_term(rng: random.Random, size: int, literals: Sequence[int] = DEFAULT_LITERALS) -> Term:
    """An arbitrary term with roughly ``size`` constructors; any shape."""
    if size <= 0:
        return rng.choice(_leaves(tuple(literals)))
    pick = rng.randrange(5)
    if pick == 0:
        return some(random_term(rng, size - 1, literals))
    if pick == 1:
        split = rng.randrange(size)
        return plus(
            random_term(rng, split, literals),
            random_term(rng, size - 1 - split, literals),
        )
    if pick == 2:
        split = rng.randrange(size)
        return index(
            random_term(rng, split, literals),
            random_term(rng, size - 1 - split, literals),
        )
    if pick == 3:
        budget = size - 1
        return assign(
            random_term(rng, budget // 3, literals),
            random_term(rng, budget // 3, literals),
            random_term(rng, budget - 2 * (budget // 3), literals),
        )
    return rng.choice(_leaves(tuple(literals)))


def random_typed_term(
    rng: random.Random, ty: LangType, size: int, literals: Sequence[int] = DEFAULT_LITERALS
) -> Term:
    """A well-typed term of the requested type, by construction."""
    lits = tuple(literals)
    if ty is LangType.NAT:
        if size <= 0:
            return enat(rng.choice(lits))
        split = rng.randrange(size)
        return plus(
            random_typed_term(rng, LangType.NAT, split, lits),
            random_typed_term(rng, LangType.NAT, size - 1 - split, lits),
        )
    if ty is LangType.ARRAY:
        if size <= 0:
            return nil()
        budget = size - 1
        return assign(
            random_typed_term(rng, LangType.ARRAY, budget // 2, lits),
            random_typed_term(rng, LangType.NAT, budget // 4, lits),
            random_typed_term(rng, LangType.NAT, budget // 4, lits),
        )
    # option: none, some of anything well-typed, or an array lookup
    pick = rng.randrange(3)
    if size <= 0 or pick == 0:
        return none()
    if pick == 1:
        inner = rng.choice(list(LangType))
        return some(random_typed_term(rng, inner, size - 1, lits))
    return index(
        random_typed_term(rng, LangType.ARRAY, size - 1, lits),
        random_typed_term(rng, LangType.NAT, size // 2, lits),
    )


def random_payload(
    rng: random.Random,
    desc: FunctorDesc,
    size: int,
    literals: Sequence[int] = DEFAULT_LITERALS,
) -> Payload:
    """A valid payload for a descriptor, with random slot terms."""
    match desc:
        case Rec():
            return Slot(random_term(rng, size, literals))
        case Atom(base):
            if base is BaseSet.NAT:
                return AtomVal(BaseSet.NAT, rng.choice(tuple(literals)))
            return AtomVal(BaseSet.UNIT, UNIT)
        case Sum(left, right):
            if rng.randrange(2) == 0:
                return InL(random_payload(rng, left, size, literals))
            return InR(random_payload(rng, right, size, literals))
        case Prod(left, right):
            return Pair(
                random_payload(rng, left, size, literals),
                random_payload(rng, right, size, literals),
            )
    raise ValueError(f"not a descriptor: {desc!r}")
