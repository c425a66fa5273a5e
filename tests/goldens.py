"""The worked example and its three derivations, built by hand once, and
the population on which a destructor is compared with its reference."""

import itertools
import random

from fraglang.functor import UNIT, AtomVal, BaseSet, InL, InR, Pair, Slot, Term, fold
from fraglang.generate import enumerate_terms, random_term
from fraglang.lang import FEXPR, LIFT_PATHS, assign, enat, index, nil, plus, some
from fraglang.semantics import StepI, StepV, ViaArray, ViaSum
from fraglang.subobject import downcast
from fraglang.typecheck import (
    LiftWtArray,
    LiftWtNat,
    LiftWtSum,
    OkIns,
    OkLookup,
    OkNil,
    OkSum,
)

EXP_TEXT = "(nil[0] := 1) ! (0 + 1)"


def exp_term():
    return index(assign(nil(), enat(0), enat(1)), plus(enat(0), enat(1)))


def exp_after_one_step():
    return index(assign(nil(), enat(0), enat(1)), enat(1))


def wt_exp():
    wta = LiftWtArray(
        OkIns(LiftWtArray(OkNil()), LiftWtNat(1), LiftWtNat(0), nil(), enat(1), enat(0))
    )
    wt_plus = LiftWtSum(OkSum(LiftWtNat(0), LiftWtNat(1), enat(0), enat(1)))
    return LiftWtArray(
        OkLookup(wta, wt_plus, assign(nil(), enat(0), enat(1)), plus(enat(0), enat(1)))
    )


def eval_exp_derivation():
    inner = ViaSum(StepV(0, 1))
    return ViaArray(
        StepI(inner, assign(nil(), enat(0), enat(1)), plus(enat(0), enat(1)), enat(1))
    )


def preserved_wt_exp():
    wta = LiftWtArray(
        OkIns(LiftWtArray(OkNil()), LiftWtNat(1), LiftWtNat(0), nil(), enat(1), enat(0))
    )
    return LiftWtArray(
        OkLookup(wta, LiftWtNat(1), assign(nil(), enat(0), enat(1)), enat(1))
    )


WT_EXP_SEXPR = (
    "(lift-wt-array (ok-lookup (lift-wt-array (ok-ins (lift-wt-array ok-nil)"
    " (lift-wt-nat 1) (lift-wt-nat 0))) (lift-wt-sum (ok-sum (lift-wt-nat 0)"
    " (lift-wt-nat 1)))))"
)
EVAL_EXP_SEXPR = "(step[] (stepi (step⁺ stepv)))"
PRESERVED_SEXPR = (
    "(lift-wt-array (ok-lookup (lift-wt-array (ok-ins (lift-wt-array ok-nil)"
    " (lift-wt-nat 1) (lift-wt-nat 0))) (lift-wt-nat 1)))"
)


def fragment_view(t):
    """The fragment tag and payload under ``t``'s node, or None.

    Read by ``downcast`` along each fragment's path, so a reference that
    decodes the fragment's injections by hand stays independent of
    ``view``.
    """
    for tag, path in LIFT_PATHS.items():
        p = downcast(path, t)
        if p is not None:
            return tag, p
    return None


class _SubInR(InR):
    """An injection the shape check accepts, as it accepts any subclass."""


def differential_terms():
    """Terms on which a destructor and its reference must agree.

    The enumeration prefix of the acceptance gate; seeded draws with
    literals on both sides of the shared range; copies of the draws built
    by hand, at the root and at every node, so that ``view`` reads them
    through ``downcast``; terms malformed at or below the root; and terms
    built with a subclass of an injection.
    """
    terms = list(itertools.islice(enumerate_terms(2, (0, 1)), 20_000))
    rng = random.Random(1401)
    draws = [random_term(rng, 1 + k % 12, (0, 1, 255, 256, 2**70)) for k in range(2_000)]
    terms += draws
    terms += [Term(t.node) for t in draws]
    terms += [fold(FEXPR, Term, t) for t in draws]
    bad = Term(Slot(enat(0)))
    true = Term(InL(InL(InL(AtomVal(BaseSet.NAT, True)))))
    for odd in (bad, true):
        terms += [
            odd,
            plus(odd, enat(0)),
            plus(enat(0), odd),
            some(odd),
            assign(odd, enat(0), enat(1)),
            assign(nil(), odd, enat(1)),
            assign(nil(), enat(0), odd),
            index(odd, enat(0)),
            index(nil(), odd),
            plus(enat(1), assign(nil(), enat(0), odd)),
        ]
    terms.append(Term(InR(_SubInR(Pair(Slot(nil()), Slot(enat(0)))))))
    terms.append(Term(InR(InL(_SubInR(AtomVal(BaseSet.UNIT, UNIT))))))
    return terms
