import random
import sys

import pytest

from fraglang import sexpr
from fraglang.functor import AtomVal, BaseSet, InL, Term
from fraglang.generate import enumerate_terms, random_typed_term
from fraglang.lang import enat, index, nil, plus, some
from fraglang.semantics import drive_step, trace
from fraglang.sexpr import (
    SexprError,
    StepSkeleton,
    elaborate_step,
    parse_derivation,
    render_derivation,
)
from fraglang.surface import LiteralLimitError
from fraglang.typecheck import LangType, LiftWtNat, LiftWtOption, infer
from goldens import (
    EVAL_EXP_SEXPR,
    PRESERVED_SEXPR,
    WT_EXP_SEXPR,
    eval_exp_derivation,
    exp_term,
    preserved_wt_exp,
    wt_exp,
)

# CPython's integer-string limit; 0 (or no such function) means none.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_render_step_derivation_golden():
    assert render_derivation(eval_exp_derivation()) == EVAL_EXP_SEXPR


def test_render_typing_derivation_golden():
    assert render_derivation(wt_exp()) == WT_EXP_SEXPR
    assert render_derivation(preserved_wt_exp()) == PRESERVED_SEXPR


def test_typing_round_trip_on_goldens():
    assert parse_derivation(WT_EXP_SEXPR) == wt_exp()
    assert parse_derivation(PRESERVED_SEXPR) == preserved_wt_exp()


def test_option_rule_embeds_its_term():
    d = LiftWtOption(infer(some(plus(enat(1), enat(2))))[1].payload)
    text = render_derivation(d)
    assert text == '(lift-wt-option "some(1 + 2)")'
    assert parse_derivation(text) == d


def test_step_round_trip_via_elaboration():
    skeleton = parse_derivation(EVAL_EXP_SEXPR)
    assert skeleton == StepSkeleton("step[]", StepSkeleton("stepi", StepSkeleton("step⁺", StepSkeleton("stepv"))))
    assert elaborate_step(skeleton, exp_term()) == eval_exp_derivation()


def test_unknown_constructor_rejected():
    with pytest.raises(SexprError):
        parse_derivation("(ok-frob (lift-wt-nat 1))")


def test_malformed_text_rejected():
    with pytest.raises(SexprError):
        parse_derivation("(lift-wt-nat 1")
    with pytest.raises(SexprError):
        parse_derivation("(lift-wt-nat 1) extra")
    with pytest.raises(SexprError):
        parse_derivation("(stepv extra)")


def test_option_text_that_is_no_term_rejected():
    with pytest.raises(SexprError, match="not a term"):
        parse_derivation('(lift-wt-option "1 +")')


@pytest.mark.parametrize("digits", ["007", "00", "١", "²"])
def test_non_canonical_natural_rejected(digits):
    # render_derivation prints ASCII digits with no leading zero; nothing else reads back
    with pytest.raises(SexprError):
        parse_derivation(f"(lift-wt-nat {digits})")


@pytest.mark.skipif(LIMIT == 0, reason="no integer-string limit")
def test_literal_past_the_integer_string_limit():
    with pytest.raises(SexprError, match="past the integer-string limit"):
        parse_derivation(f"(lift-wt-nat {'1' * (LIMIT + 700)})")
    with pytest.raises(LiteralLimitError):
        render_derivation(LiftWtNat(10**LIMIT))


def test_canonical_naturals_round_trip():
    for n in (0, 7, 10, 1007):
        assert render_derivation(parse_derivation(f"(lift-wt-nat {n})")) == f"(lift-wt-nat {n})"


def test_elaboration_rejects_wrong_source():
    skeleton = parse_derivation("(step⁺ stepv)")
    with pytest.raises(SexprError):
        elaborate_step(skeleton, nil())
    with pytest.raises(SexprError):
        elaborate_step(skeleton, plus(nil(), enat(0)))
    # the right congruence needs a literal left operand
    skeleton = parse_derivation("(step⁺ (stepr (step⁺ stepv)))")
    with pytest.raises(SexprError):
        elaborate_step(skeleton, plus(nil(), plus(enat(1), enat(2))))


@pytest.mark.parametrize(
    "text",
    [
        "(ok-sum stepv stepv)",
        "(lift-wt-sum (ok-sum ok-nil (lift-wt-nat 1)))",
        "(ok-lookup (step⁺ stepv) (lift-wt-nat 0))",
        "(ok-ins ok-nil (lift-wt-nat 1) (lift-wt-nat 0))",
        "(lift-wt-array (ok-lookup (lift-wt-array ok-nil) (ok-sum (lift-wt-nat 0) (lift-wt-nat 0))))",
    ],
)
def test_premise_that_is_no_lifted_typing_rejected(text):
    with pytest.raises(SexprError):
        parse_derivation(text)


def test_elaboration_never_renders_a_foreign_source():
    bad = Term(InL(InL(InL(AtomVal(BaseSet.NAT, True)))))  # a bool posing as 1
    with pytest.raises(SexprError):
        elaborate_step(parse_derivation("(step⁺ stepv)"), index(nil(), bad))


def test_elaboration_rejects_a_premise_under_a_leaf_rule():
    under_stepv = StepSkeleton("step⁺", StepSkeleton("stepv", StepSkeleton("stepv")))
    with pytest.raises(SexprError):
        elaborate_step(under_stepv, plus(enat(1), enat(2)))
    under_lookup = StepSkeleton("step[]", StepSkeleton("lookup", StepSkeleton("lookup")))
    with pytest.raises(SexprError):
        elaborate_step(under_lookup, index(nil(), enat(0)))


def _one_name_mutants(skeleton):
    if skeleton is None:
        return
    for name in sorted(sexpr._STEP_NAMES - {skeleton.name}):
        yield StepSkeleton(name, skeleton.inner)
    for inner in _one_name_mutants(skeleton.inner):
        yield StepSkeleton(skeleton.name, inner)


def test_only_the_drivers_skeleton_elaborates():
    rng = random.Random(79)
    steps = mutants = 0
    for _ in range(100):
        source = random_typed_term(rng, rng.choice(list(LangType)), rng.randrange(2, 10))
        for target, derivation in trace(source, 16):
            skeleton = parse_derivation(render_derivation(derivation))
            assert elaborate_step(skeleton, source) == derivation
            for mutant in _one_name_mutants(skeleton):
                with pytest.raises(SexprError):
                    elaborate_step(mutant, source)
                mutants += 1
            source = target
            steps += 1
    assert steps > 50 and mutants > 6 * steps


def test_typing_round_trip_on_random_derivations():
    rng = random.Random(77)
    for _ in range(300):
        t = random_typed_term(rng, rng.choice(list(LangType)), rng.randrange(8))
        ty, derivation = infer(t)
        text = render_derivation(derivation)
        assert parse_derivation(text) == derivation
        assert render_derivation(parse_derivation(text)) == text


def test_step_round_trip_on_random_derivations():
    rng = random.Random(78)
    seen = 0
    for _ in range(400):
        t = random_typed_term(rng, rng.choice(list(LangType)), rng.randrange(2, 10))
        source = t
        for target, derivation in trace(t, 16):
            text = render_derivation(derivation)
            skeleton = parse_derivation(text)
            assert elaborate_step(skeleton, source) == derivation
            assert render_derivation(elaborate_step(skeleton, source)) == text
            source = target
            seen += 1
    assert seen > 200


def test_lexer_tokens():
    q = sexpr._Quoted
    assert sexpr._lex_sexpr('((x) "y z")  ( q\t"w"\n)') == [
        "(", "(", "x", ")", q("y z"), ")", "(", "q", q("w"), ")",
    ]
    assert sexpr._lex_sexpr('a"b"c') == ["a", q("b"), "c"]
    assert sexpr._lex_sexpr("") == []
    assert sexpr._lex_sexpr(" \t\n\r\f\v ") == []


def test_lexer_rejects_an_unterminated_quote():
    for text in ('(a "b', '"'):
        with pytest.raises(SexprError, match="unterminated"):
            sexpr._lex_sexpr(text)


def test_round_trip_on_the_depth_one_population():
    seen = 0
    for t in enumerate_terms(1):
        typed = infer(t)
        if typed is not None:
            assert parse_derivation(render_derivation(typed[1])) == typed[1]
            seen += 1
        stepped = drive_step(t)
        if stepped is not None:
            skeleton = parse_derivation(render_derivation(stepped[1]))
            assert elaborate_step(skeleton, t) == stepped[1]
            seen += 1
    assert seen > 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of derivation text"),
        (")", "unexpected '\\)'"),
        ("(a", "missing '\\)'"),
        ("(a))", "trailing input after derivation"),
        ("a b", "trailing input after derivation"),
    ],
)
def test_reader_errors(text, message):
    with pytest.raises(SexprError, match=f"^{message}$"):
        sexpr._read_sexpr(text)


def test_reader_takes_deep_nesting():
    depth = 5_000
    tree = sexpr._read_sexpr("(x " * depth + ")" * depth)
    for _ in range(depth - 1):
        assert tree[0] == "x" and len(tree) == 2
        tree = tree[1]
    assert tree == ["x"]
