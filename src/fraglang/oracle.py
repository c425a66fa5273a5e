"""A monolithic twin of the composed language, used as ground truth.

One flat expression type, one recursive type checker, one recursive
stepper.  No derivations, no functors, no lifts: just the language the
modular machinery is supposed to add up to, for equivalence testing.
"""

from __future__ import annotations

from .functor import ShapeError, Term, record
from .lang import SHARED_NATS, assign, enat, index, nil, none, plus, some, view
from .typecheck import LangType


@record
class ENat:
    n: int


@record
class ESome:
    e: "MonoExpr"


@record
class ENone:
    pass


@record
class Nil:
    pass


@record
class ELookup:
    a: "MonoExpr"
    i: "MonoExpr"


@record
class Ins:
    a: "MonoExpr"
    i: "MonoExpr"
    e: "MonoExpr"


@record
class Plus:
    e1: "MonoExpr"
    e2: "MonoExpr"


MonoExpr = ENat | ESome | ENone | Nil | ELookup | Ins | Plus


# Leaves are shared as the composed language shares its own (``lang.enat``,
# ``lang.none``, ``lang.nil``): one ENat per small literal, one ENone, one Nil.
_ENATS = tuple(map(ENat, range(SHARED_NATS)))
_ENONE = ENone()
_NIL = Nil()


def embed(t: Term) -> MonoExpr:
    """Transliterate a composed term into the flat type.

    ``view`` checked each case's payload against its descriptor, so the
    payload is read by field.
    """
    v = view(t)
    if v is None:
        # The node's class, not its repr: a deep term's repr recurses too far.
        raise ShapeError(f"not a term of the composed language: a Term over {type(t.node).__name__}")
    case, q = v
    if case == "nat":
        n = q.value  # a natural, so only the upper bound needs checking
        return _ENATS[n] if type(n) is int and n < SHARED_NATS else ENat(n)
    if case == "plus":
        return Plus(embed(q.fst.term), embed(q.snd.term))
    if case == "some":
        return ESome(embed(q.term))
    if case == "none":
        return _ENONE
    if case == "index":
        return ELookup(embed(q.fst.term), embed(q.snd.term))
    if case == "nil":
        return _NIL
    return Ins(embed(q.fst.term), embed(q.snd.fst.term), embed(q.snd.snd.term))


# The twin dispatches by isinstance with direct field reads, as the view-reading
# layers do: a failing class pattern costs several times an isinstance, so
# class patterns would make the modularity tax measure match, not modularity.
# The classes are disjoint, so each chain tests the most frequent one first.


def project(m: MonoExpr) -> Term:
    """Inverse of embed."""
    if isinstance(m, Plus):
        return plus(project(m.e1), project(m.e2))
    if isinstance(m, ENat):
        return enat(m.n)
    if isinstance(m, ESome):
        return some(project(m.e))
    if isinstance(m, ENone):
        return none()
    if isinstance(m, Nil):
        return nil()
    if isinstance(m, ELookup):
        return index(project(m.a), project(m.i))
    if isinstance(m, Ins):
        return assign(project(m.a), project(m.i), project(m.e))
    raise ShapeError(f"not a monolithic expression: {m!r}")


def mono_infer(m: MonoExpr) -> LangType | None:
    if isinstance(m, Plus):
        if mono_infer(m.e1) is LangType.NAT and mono_infer(m.e2) is LangType.NAT:
            return LangType.NAT
        return None
    if isinstance(m, ENat):
        return LangType.NAT
    if isinstance(m, (ESome, ENone)):
        # Option contents are unconstrained, matching the modular rule.
        return LangType.OPTION
    if isinstance(m, Nil):
        return LangType.ARRAY
    if isinstance(m, ELookup):
        if mono_infer(m.a) is LangType.ARRAY and mono_infer(m.i) is LangType.NAT:
            return LangType.OPTION
        return None
    if isinstance(m, Ins):
        if (
            mono_infer(m.a) is LangType.ARRAY
            and mono_infer(m.i) is LangType.NAT
            and mono_infer(m.e) is LangType.NAT
        ):
            return LangType.ARRAY
    return None


def _chain_lookup(a: MonoExpr, n: int) -> MonoExpr:
    # Mirrors array_lookup: outermost write wins, fail closed to ENone.
    while isinstance(a, Ins) and isinstance(a.i, ENat):
        if a.i.n == n:
            return ESome(a.e)
        a = a.a
    return _ENONE


def mono_step(m: MonoExpr) -> MonoExpr | None:
    """One deterministic step mirroring the modular driver's strategy."""
    if isinstance(m, Plus):
        e1, e2 = m.e1, m.e2
        if not isinstance(e1, ENat):
            stepped = mono_step(e1)
            return None if stepped is None else Plus(stepped, e2)
        if isinstance(e2, ENat):
            # Shared as embed shares; an operand outside the language may be negative.
            n = e1.n + e2.n
            return _ENATS[n] if type(n) is int and 0 <= n < SHARED_NATS else ENat(n)
        stepped = mono_step(e2)
        return None if stepped is None else Plus(e1, stepped)
    if isinstance(m, ELookup):
        a, i = m.a, m.i
        if not isinstance(i, ENat):
            stepped = mono_step(i)
            return None if stepped is None else ELookup(a, stepped)
        if isinstance(a, (Nil, Ins, ELookup)):
            return _chain_lookup(a, i.n)
    return None
