import itertools
import random

import pytest

from fraglang.functor import InL, InR, Pair, ShapeError, Slot, Term, fold
from fraglang.generate import enumerate_terms, random_term
from fraglang.lang import FEXPR, SHARED_NATS, assign, enat, index, nil, none, plus, some
from fraglang.oracle import (
    ELookup,
    ENat,
    ENone,
    ESome,
    Ins,
    Nil,
    Plus,
    embed,
    mono_infer,
    mono_step,
    project,
)
from fraglang.sweeps import oracle_sweep, sweep, trace_sweep
from fraglang.semantics import drive_step, validate_step
from fraglang.typecheck import LangType, infer, validate_typing
from goldens import differential_terms, exp_term, fragment_view

EXP_MONO = ELookup(Ins(Nil(), ENat(0), ENat(1)), Plus(ENat(0), ENat(1)))


def test_embed_literal():
    assert embed(enat(6)) == ENat(6)


def test_embed_worked_example():
    assert embed(exp_term()) == EXP_MONO


def test_embed_option_cases():
    assert embed(none()) == ENone()
    assert embed(some(enat(1))) == ESome(ENat(1))


def test_project_inverts_embed_exhaustively():
    for t in enumerate_terms(1):
        assert project(embed(t)) == t


def test_project_inverts_embed_on_random_terms():
    rng = random.Random(31)
    for _ in range(500):
        t = random_term(rng, 7)
        assert project(embed(t)) == t


def test_embed_rejects_malformed_terms():
    with pytest.raises(ShapeError):
        embed(Term(Slot(enat(0))))


def test_embed_error_names_the_class_not_the_term():
    # The repr of a 100-term chain is past the recursion limit.
    chain = enat(1)
    for _ in range(99):
        chain = plus(chain, enat(1))
    for bad in (Term(Slot(chain)), plus(enat(1), Term(Slot(chain)))):
        with pytest.raises(ShapeError, match="a Term over Slot$"):
            embed(bad)


def test_embed_shares_its_leaves():
    for n in range(SHARED_NATS):
        assert embed(enat(n)) is embed(enat(n))
        assert embed(Term(enat(n).node)) is embed(enat(n))  # read through downcast
    assert embed(none()) is embed(none())
    assert embed(nil()) is embed(nil())
    assert embed(enat(SHARED_NATS)) == ENat(SHARED_NATS)


# -- the reference embed ----------------------------------------------------
# The embed that dispatching on a viewed case replaced: it reads each
# fragment's payload through downcast, matches one nested class pattern per
# array case, and builds a fresh object for every leaf.  It is the
# specification the case-reading embed is checked against.


def reference_embed(t):
    v = fragment_view(t)
    if v is None:
        raise ShapeError(f"not a term of the composed language: {t!r}")
    tag, p = v
    if tag == "nat":
        return ENat(p.value)
    if tag == "sum":
        return Plus(reference_embed(p.fst.term), reference_embed(p.snd.term))
    if tag == "option":
        return ESome(reference_embed(p.payload.term)) if isinstance(p, InL) else ENone()
    match p:
        case InL(InR(_)):
            return Nil()
        case InL(InL(Pair(Slot(a), Pair(Slot(i), Slot(e))))):
            return Ins(reference_embed(a), reference_embed(i), reference_embed(e))
        case InR(Pair(Slot(a), Slot(i))):
            return ELookup(reference_embed(a), reference_embed(i))
    raise ShapeError(f"not a term of the composed language: {t!r}")


def _outcome(fn, t):
    try:
        return fn(t)
    except ShapeError:
        return ShapeError


def test_reference_differential():
    terms = differential_terms()
    outcomes = [_outcome(embed, t) for t in terms]
    assert outcomes == [_outcome(reference_embed, t) for t in terms]
    assert outcomes.count(ShapeError) == 20  # the malformed terms, and only they


# -- the reference twin ------------------------------------------------------
# The twin's per-term functions as they were written with class patterns,
# before they dispatched by isinstance.  They are the specification the
# rewrite is checked against; only the leaves they build are not shared.


def reference_project(m):
    match m:
        case ENat(n):
            return enat(n)
        case ESome(e):
            return some(reference_project(e))
        case ENone():
            return none()
        case Nil():
            return nil()
        case ELookup(a, i):
            return index(reference_project(a), reference_project(i))
        case Ins(a, i, e):
            return assign(reference_project(a), reference_project(i), reference_project(e))
        case Plus(e1, e2):
            return plus(reference_project(e1), reference_project(e2))
    raise ShapeError(f"not a monolithic expression: {m!r}")


def reference_mono_infer(m):
    match m:
        case ENat(_):
            return LangType.NAT
        case ESome(_) | ENone():
            return LangType.OPTION
        case Nil():
            return LangType.ARRAY
        case Plus(e1, e2):
            if reference_mono_infer(e1) is LangType.NAT and reference_mono_infer(e2) is LangType.NAT:
                return LangType.NAT
            return None
        case Ins(a, i, e):
            if (
                reference_mono_infer(a) is LangType.ARRAY
                and reference_mono_infer(i) is LangType.NAT
                and reference_mono_infer(e) is LangType.NAT
            ):
                return LangType.ARRAY
            return None
        case ELookup(a, i):
            if reference_mono_infer(a) is LangType.ARRAY and reference_mono_infer(i) is LangType.NAT:
                return LangType.OPTION
            return None
    return None


def reference_chain_lookup(a, n):
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


def reference_mono_step(m):
    match m:
        case Plus(ENat(n1), ENat(n2)):
            return ENat(n1 + n2)
        case Plus(ENat(n1), e2):
            stepped = reference_mono_step(e2)
            return None if stepped is None else Plus(ENat(n1), stepped)
        case Plus(e1, e2):
            stepped = reference_mono_step(e1)
            return None if stepped is None else Plus(stepped, e2)
        case ELookup(a, ENat(n)):
            if isinstance(a, (Nil, Ins, ELookup)):
                return reference_chain_lookup(a, n)
            return None
        case ELookup(a, i):
            stepped = reference_mono_step(i)
            return None if stepped is None else ELookup(a, stepped)
    return None


# Values outside the twin's language, or on its edges: no expression at all,
# a composed term, lookups whose index is no literal, assignment chains with
# a non-literal index below a miss, and operands no embed produces.
OFF_LANGUAGE = [
    None,
    enat(0),
    ENat(True),
    ELookup(Nil(), Nil()),
    ELookup(Nil(), Plus(ENat(0), ENat(1))),
    ELookup(Ins(Nil(), ENat(0), ENat(1)), ESome(ENat(0))),
    ELookup(Ins(Ins(Nil(), Plus(ENat(0), ENat(0)), ENat(1)), ENat(1), ENat(2)), ENat(0)),
    ELookup(Ins(Ins(Nil(), ENat(0), ENat(5)), Plus(ENat(0), ENat(0)), ENat(1)), ENat(0)),
    ELookup(Ins(ENat(3), ENat(1), ENat(2)), ENat(0)),
    ELookup(ELookup(Nil(), ENat(0)), ENat(0)),
    ELookup(ENat(0), ENat(0)),
    Ins(Nil(), Plus(ENat(0), ENat(1)), ENat(2)),
    Plus(ENat(-2), ENat(1)),
    Plus(ENat(1), Plus(Nil(), ENat(0))),
    Plus(ENat(1), enat(0)),
    Plus(enat(0), ENat(1)),
]


def test_reference_twin_differential():
    prefix = list(itertools.islice(enumerate_terms(2, (0, 1)), 4000))
    rng = random.Random(2101)
    draws = [random_term(rng, 1 + k % 12, (0, 1, 255, 256)) for k in range(1000)]
    values = [embed(t) for t in prefix + draws] + OFF_LANGUAGE
    pairs = [
        (mono_infer, reference_mono_infer),
        (mono_step, reference_mono_step),
        (project, reference_project),
    ]
    for fn, reference in pairs:
        for m in values:
            assert _outcome(fn, m) == _outcome(reference, m), (fn.__name__, m)
    assert [_outcome(project, m) for m in OFF_LANGUAGE[:2]] == [ShapeError, ShapeError]


def test_mono_step_shares_its_leaves():
    for n in range(SHARED_NATS):
        assert mono_step(Plus(ENat(n), ENat(0))) is embed(enat(n))
    assert mono_step(Plus(ENat(SHARED_NATS), ENat(0))) == ENat(SHARED_NATS)
    assert mono_step(Plus(ENat(-2), ENat(1))) == ENat(-1)  # outside the language: no table entry
    for miss in (ELookup(Nil(), ENat(0)), ELookup(Ins(Nil(), ENat(0), ENat(1)), ENat(2))):
        assert mono_step(miss) is embed(none())


def test_mono_infer_examples():
    assert mono_infer(ENat(6)) is LangType.NAT
    assert mono_infer(EXP_MONO) is LangType.OPTION
    assert mono_infer(Plus(Nil(), ENat(1))) is None
    assert mono_infer(ESome(Plus(Nil(), Nil()))) is LangType.OPTION


def test_mono_step_examples():
    assert mono_step(Plus(ENat(0), ENat(1))) == ENat(1)
    assert mono_step(EXP_MONO) == ELookup(Ins(Nil(), ENat(0), ENat(1)), ENat(1))
    assert mono_step(ENat(5)) is None


def test_mono_step_lookup_resolution():
    hit = ELookup(Ins(Nil(), ENat(0), ENat(1)), ENat(0))
    assert mono_step(hit) == ESome(ENat(1))
    miss = ELookup(Ins(Nil(), ENat(0), ENat(1)), ENat(2))
    assert mono_step(miss) == ENone()
    assert mono_step(ELookup(ENat(0), ENat(0))) is None


def test_typing_and_step_equivalence_small_exhaustive():
    (report,) = sweep(enumerate_terms(1), {"oracle-equivalence": oracle_sweep})
    assert report.ok, report.offenders
    assert report.exercised == report.checked == 185


def test_trace_equivalence():
    terms = list(enumerate_terms(1))
    rng = random.Random(41)
    terms += [random_term(rng, 8) for _ in range(300)]
    (report,) = sweep(terms, {"trace-equivalence": trace_sweep})
    assert report.ok, report.offenders
    assert report.exercised == report.checked == len(terms)


def test_generated_layers_agree_with_the_twin():
    # drive_step and infer are generated from the rows and read each node's
    # recorded view inline; copies with no recorded view at any node take
    # their fallback through view, which the lifted terms never do.
    rng = random.Random(2601)
    draws = [random_term(rng, 1 + k % 12, (0, 1, 255, 256)) for k in range(2_000)]
    stepped = typed = 0
    for t in draws:
        m, bare = embed(t), fold(FEXPR, Term, t)
        step, typing = drive_step(t), infer(t)
        assert (step, typing) == (drive_step(bare), infer(bare))
        mono_target = mono_step(m)
        assert (None if step is None else embed(step[0])) == mono_target
        assert (None if typing is None else typing[0]) is mono_infer(m)
        if step is not None:
            stepped += 1
            assert validate_step(step[1], t, step[0])
        if typing is not None:
            typed += 1
            assert validate_typing(typing[1], t, typing[0])
    assert stepped >= 100 and typed >= 800
