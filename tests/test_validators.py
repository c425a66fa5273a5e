"""The view-based derivation validators against the definitional check.

The reference below is the validators' specification: rebuild the term (or
the pair of terms) a derivation claims with ``typing_subject`` or
``step_endpoints``, compare it with ``==``, and recurse into the premises.
The rebuilders live here, as part of the reference; the package builds each
derivation once and never rebuilds a claimed term.
The validators must agree with it on every term of the language, and must
reject terms outside it, which ``==`` can mistake for terms inside it
(``True == 1``), wherever a rule reads them.  A typing rule reads every
node but the contents of an option payload (``infer`` types ``some`` of
anything).  A step rule reads only the path to its redex: the operand a
congruence leaves alone is compared with ``==`` and never taken apart, as
ill-typed terms step too.  So outside the language a step is held to the
weaker demand that the validator accept nothing the reference rejects.
"""

import dataclasses
import itertools
import random

import pytest

from fraglang.functor import (
    AtomVal,
    BaseSet,
    InL,
    ShapeError,
    Term,
    fmap,
    is_natural,
    valid_term,
)
from fraglang.generate import enumerate_terms, random_typed_term
from fraglang.lang import (
    ARRAY,
    FEXPR,
    LIFT_ARRAY,
    LIFT_OPTION,
    SUM,
    array_lookup,
    assign,
    enat,
    index,
    nil,
    plus,
)
from fraglang.semantics import (
    Lookup,
    StepI,
    StepL,
    StepR,
    StepV,
    ViaArray,
    ViaSum,
    drive_step,
    validate_step,
)
from fraglang.subobject import downcast
from fraglang.typecheck import (
    LangType,
    LiftWtArray,
    LiftWtNat,
    LiftWtOption,
    LiftWtSum,
    OkIns,
    OkLookup,
    OkNil,
    OkSum,
    infer,
    validate_typing,
)
from goldens import fragment_view


class MalformedDerivationError(Exception):
    """A derivation tree is not built from the step or typing constructors."""


_REBUILD_ERRORS = (MalformedDerivationError, ShapeError, TypeError)


def typing_subject(d):
    """The (term, type) pair a typing derivation claims, rebuilt."""
    match d:
        case LiftWtNat(n):
            return enat(n), LangType.NAT
        case LiftWtOption(term):
            return term, LangType.OPTION
        case LiftWtSum(OkSum(_, _, left, right)):
            return plus(left, right), LangType.NAT
        case LiftWtArray(OkNil()):
            return nil(), LangType.ARRAY
        case LiftWtArray(OkIns(_, _, _, array, value, idx)):
            return assign(array, idx, value), LangType.ARRAY
        case LiftWtArray(OkLookup(_, _, array, idx)):
            return index(array, idx), LangType.OPTION
    raise MalformedDerivationError(f"not a composed typing: {d!r}")


def step_endpoints(d):
    """The (source, target) pair a step derivation claims, rebuilt."""
    match d:
        case ViaSum(StepL(_, left, left_after, right)):
            return plus(left, right), plus(left_after, right)
        case ViaSum(StepR(_, left_nat, right, right_after)):
            lit = enat(left_nat)
            return plus(lit, right), plus(lit, right_after)
        case ViaSum(StepV(n, m)):
            return plus(enat(n), enat(m)), enat(n + m)
        case ViaArray(StepI(_, array, idx, idx_after)):
            return index(array, idx), index(array, idx_after)
        case ViaArray(Lookup(array, idx)):
            return index(array, enat(idx)), array_lookup(array, idx)
    raise MalformedDerivationError(f"not a composed step: {d!r}")


def reference_typing(d, t, ty):
    try:
        subject, subject_ty = typing_subject(d)
    except _REBUILD_ERRORS:
        return False
    if subject != t or subject_ty is not ty:
        return False
    match d:
        case LiftWtNat(n):
            return is_natural(n)
        case LiftWtOption(term):
            return isinstance(term, Term) and downcast(LIFT_OPTION, term) is not None
        case LiftWtSum(OkSum(left_wt, right_wt, left, right)):
            return reference_typing(left_wt, left, LangType.NAT) and reference_typing(
                right_wt, right, LangType.NAT
            )
        case LiftWtArray(OkNil()):
            return True
        case LiftWtArray(OkIns(array_wt, value_wt, index_wt, array, value, idx)):
            return (
                reference_typing(array_wt, array, LangType.ARRAY)
                and reference_typing(value_wt, value, LangType.NAT)
                and reference_typing(index_wt, idx, LangType.NAT)
            )
        case LiftWtArray(OkLookup(array_wt, index_wt, array, idx)):
            return reference_typing(array_wt, array, LangType.ARRAY) and reference_typing(
                index_wt, idx, LangType.NAT
            )
    return False


def reference_step(d, source, target):
    try:
        got_source, got_target = step_endpoints(d)
    except _REBUILD_ERRORS:
        return False
    if got_source != source or got_target != target:
        return False
    match d:
        case ViaSum(StepL(inner, left, left_after, _)):
            return reference_step(inner, left, left_after)
        case ViaSum(StepR(inner, left_nat, right, right_after)):
            return is_natural(left_nat) and reference_step(inner, right, right_after)
        case ViaSum(StepV(n, m)):
            return is_natural(n) and is_natural(m)
        case ViaArray(StepI(inner, _, idx, idx_after)):
            return reference_step(inner, idx, idx_after)
        case ViaArray(Lookup(array, idx)):
            return is_natural(idx) and downcast(LIFT_ARRAY, array) is not None
    return False


# -- inputs -----------------------------------------------------------------


_ZERO = enat(0)
_ONE = enat(1)
_NIL = nil()


def _terms():
    terms = list(itertools.islice(enumerate_terms(2, (0, 1, 2)), 30_000))
    rng = random.Random(31)
    for size in range(1, 13):
        for ty in LangType:
            terms += [random_typed_term(rng, ty, size) for _ in range(6)]
    return terms


def _polluted(t):
    """``t`` with every literal 1 made ``True``: equal under ``==``, yet no term."""

    def go(term):
        node = term.node
        if node == _ONE.node:
            return Term(InL(InL(InL(AtomVal(BaseSet.NAT, True)))))
        return Term(fmap(FEXPR, go, node))

    return go(t)


def _mutants(d):
    """Derivations one edit away from ``d``: each literal off by one, made a
    bool or made negative; each stored term replaced; premises swapped.

    A lookup's array is replaced but never polluted: a lookup is checked
    against the source's own array, not against the array it stores, which
    tests/test_view.py pins separately.
    """
    if not dataclasses.is_dataclass(d):
        return
    fields = dataclasses.fields(d)
    for f in fields:
        value = getattr(d, f.name)
        if isinstance(value, int) and not isinstance(value, bool):
            for bad in (value + 1, value - 1, True, False, -1):
                yield dataclasses.replace(d, **{f.name: bad})
        elif isinstance(value, Term):
            others = (_ZERO, _NIL) if isinstance(d, Lookup) else (_ZERO, _NIL, _polluted(value))
            for other in others:
                yield dataclasses.replace(d, **{f.name: other})
        else:
            for inner in _mutants(value):
                yield dataclasses.replace(d, **{f.name: inner})
    premises = [f.name for f in fields if f.name == "inner" or f.name.endswith("_wt")]
    for a, b in itertools.combinations(premises, 2):
        yield dataclasses.replace(d, **{a: getattr(d, b), b: getattr(d, a)})


@pytest.fixture(scope="module")
def population():
    terms = _terms()
    typed = [(t, *r) for t in terms if (r := infer(t)) is not None]
    steps = [(t, *s) for t in terms if (s := drive_step(t)) is not None]
    return typed, steps


_SUMMAND = {"sum": SUM, "array": ARRAY}


def _inspected_ok(t):
    """``valid_term(FEXPR, t)``, except that option payloads go unread."""
    v = fragment_view(t)
    if v is None:
        return False
    tag, p = v
    if tag not in _SUMMAND:
        return True
    subterms = []
    fmap(_SUMMAND[tag], subterms.append, p)
    return all(_inspected_ok(sub) for sub in subterms)


def _check_typing(d, t, ty, counts):
    got = validate_typing(d, t, ty)
    if _inspected_ok(t):
        assert got == reference_typing(d, t, ty), (d, t, ty)
        counts[got] += 1
        counts["outside"] += not valid_term(FEXPR, t)
    else:
        assert got is False, (d, t, ty)
        counts["rejected"] += reference_typing(d, t, ty)


def _check_step(d, source, target, counts):
    inside = valid_term(FEXPR, source) and valid_term(FEXPR, target)
    got = validate_step(d, source, target)
    want = reference_step(d, source, target)
    if inside:
        assert got == want, (d, source, target)
        counts[got] += 1
    else:
        assert got <= want, (d, source, target)
        counts["rejected"] += want and not got


def test_validate_typing_agrees_with_the_definitional_check(population):
    typed, _ = population
    counts = {True: 0, False: 0, "outside": 0, "rejected": 0}
    for k, (t, ty, wt) in enumerate(typed):
        other_t, other_ty, _ = typed[(k * 7 + 3) % len(typed)]
        for ty_claim in LangType:
            _check_typing(wt, t, ty_claim, counts)
        _check_typing(wt, other_t, ty, counts)
        _check_typing(wt, _polluted(t), ty, counts)
        for m in _mutants(wt):
            _check_typing(m, t, ty, counts)
            _check_typing(m, other_t, other_ty, counts)
    # Both outcomes are exercised in bulk, mutants included, and the
    # reference's bool-literal acceptances are among the rejections.
    assert counts[True] > len(typed)
    assert counts[False] > 10 * len(typed)
    assert counts["rejected"] > 0


def test_validate_step_agrees_with_the_definitional_check(population):
    _, steps = population
    counts = {True: 0, False: 0, "outside": 0, "rejected": 0}
    for k, (source, target, d) in enumerate(steps):
        other_source, other_target, _ = steps[(k * 7 + 3) % len(steps)]
        _check_step(d, source, target, counts)
        _check_step(d, target, source, counts)
        _check_step(d, source, other_target, counts)
        _check_step(d, other_source, other_target, counts)
        _check_step(d, _polluted(source), target, counts)
        _check_step(d, source, _polluted(target), counts)
        for m in _mutants(d):
            _check_step(m, source, target, counts)
    assert counts[True] > len(steps)
    assert counts[False] > 10 * len(steps)
    assert counts["rejected"] > 0


def test_validators_reject_non_terms():
    t = _ZERO
    assert validate_typing(LiftWtNat(0), 0, LangType.NAT) is False
    assert validate_typing(LiftWtNat(0), None, LangType.NAT) is False
    assert validate_typing(object(), t, LangType.NAT) is False
    assert validate_step(ViaSum(StepV(0, 0)), "0 + 0", t) is False
    assert validate_step(ViaSum(StepV(0, 0)), t, None) is False
    assert validate_step(object(), t, t) is False
