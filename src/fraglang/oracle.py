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


def project(m: MonoExpr) -> Term:
    """Inverse of embed."""
    match m:
        case ENat(n):
            return enat(n)
        case ESome(e):
            return some(project(e))
        case ENone():
            return none()
        case Nil():
            return nil()
        case ELookup(a, i):
            return index(project(a), project(i))
        case Ins(a, i, e):
            return assign(project(a), project(i), project(e))
        case Plus(e1, e2):
            return plus(project(e1), project(e2))
    raise ShapeError(f"not a monolithic expression: {m!r}")


def mono_infer(m: MonoExpr) -> LangType | None:
    match m:
        case ENat(_):
            return LangType.NAT
        case ESome(_) | ENone():
            # Option contents are unconstrained, matching the modular rule.
            return LangType.OPTION
        case Nil():
            return LangType.ARRAY
        case Plus(e1, e2):
            if mono_infer(e1) is LangType.NAT and mono_infer(e2) is LangType.NAT:
                return LangType.NAT
            return None
        case Ins(a, i, e):
            if (
                mono_infer(a) is LangType.ARRAY
                and mono_infer(i) is LangType.NAT
                and mono_infer(e) is LangType.NAT
            ):
                return LangType.ARRAY
            return None
        case ELookup(a, i):
            if mono_infer(a) is LangType.ARRAY and mono_infer(i) is LangType.NAT:
                return LangType.OPTION
            return None
    return None


def _chain_lookup(a: MonoExpr, n: int) -> MonoExpr:
    # Mirrors array_lookup: outermost write wins, fail closed to ENone.
    while True:
        match a:
            case Nil():
                return ENone()
            case Ins(rest, ENat(stored), e):
                if stored == n:
                    return ESome(e)
                a = rest
            case _:
                return ENone()


def mono_step(m: MonoExpr) -> MonoExpr | None:
    """One deterministic step mirroring the modular driver's strategy."""
    match m:
        case Plus(ENat(n1), ENat(n2)):
            return ENat(n1 + n2)
        case Plus(ENat(n1), e2):
            stepped = mono_step(e2)
            return None if stepped is None else Plus(ENat(n1), stepped)
        case Plus(e1, e2):
            stepped = mono_step(e1)
            return None if stepped is None else Plus(stepped, e2)
        case ELookup(a, ENat(n)):
            if isinstance(a, (Nil, Ins, ELookup)):
                return _chain_lookup(a, n)
            return None
        case ELookup(a, i):
            stepped = mono_step(i)
            return None if stepped is None else ELookup(a, stepped)
    return None
