import ast
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from fraglang import semantics, sexpr
from fraglang.functor import AtomVal, BaseSet, InL, Term
from fraglang.generate import enumerate_terms, random_typed_term
from fraglang.lang import SHARED_NATS, assign, enat, index, nil, plus, some
from fraglang.semantics import drive_step, trace
from fraglang.sexpr import (
    SexprError,
    StepSkeleton,
    elaborate_step,
    parse_derivation,
    render_derivation,
)
from fraglang.surface import LiteralLimitError, ParseError, parse
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
    wt_nat,
)
from goldens import (
    EVAL_EXP_SEXPR,
    PRESERVED_SEXPR,
    WT_EXP_SEXPR,
    eval_exp_derivation,
    exp_term,
    fragment_view,
    preserved_wt_exp,
    wt_exp,
)

# CPython's integer-string limit; 0 (or no such function) means none.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
STEP_NAMES = ("step⁺", "step[]", "stepl", "stepr", "stepv", "stepi", "lookup")


def test_render_step_derivation_golden():
    assert render_derivation(eval_exp_derivation()) == EVAL_EXP_SEXPR


def test_render_typing_derivation_golden():
    assert render_derivation(wt_exp()) == WT_EXP_SEXPR
    assert render_derivation(preserved_wt_exp()) == PRESERVED_SEXPR


def test_typing_round_trip_on_goldens():
    assert parse_derivation(WT_EXP_SEXPR) == wt_exp()
    assert parse_derivation(PRESERVED_SEXPR) == preserved_wt_exp()


def test_option_rule_embeds_its_term():
    d = LiftWtOption(some(plus(enat(1), enat(2))))
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


@pytest.mark.parametrize("n", [0, SHARED_NATS - 1, SHARED_NATS])
def test_literal_typings_read_back_shared_below_the_table_bound(n):
    text = f"(lift-wt-nat {n})"
    got = parse_derivation(text)
    if n < SHARED_NATS:
        assert got is wt_nat(n)
    else:
        assert got == wt_nat(n) and got is not parse_derivation(text)


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


@pytest.mark.parametrize(
    "skeleton, got",
    [(parse_derivation("(lift-wt-nat 1)"), "a LiftWtNat"), ("(step⁺ stepv)", "a str"), (None, "nothing")],
    ids=["typing", "str", "none"],
)
def test_elaboration_rejects_what_is_no_skeleton(skeleton, got):
    with pytest.raises(SexprError, match=rf"^expected step⁺, got {got}$"):
        elaborate_step(skeleton, plus(enat(1), enat(2)))
    # under a skeleton too
    with pytest.raises(SexprError, match=rf"^expected stepv, got {got}$"):
        elaborate_step(StepSkeleton("step⁺", skeleton), plus(enat(1), enat(2)))


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
    for name in sorted(set(STEP_NAMES) - {skeleton.name}):
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


def test_sexpr_never_names_the_driver():
    tree = ast.parse(Path(sexpr.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "drive_step" not in names


def test_elaboration_never_calls_the_driver(monkeypatch):
    # The population of test_step_round_trip_on_random_derivations, traced
    # first, then elaborated with the driver made to raise wherever sexpr
    # could reach it.
    rng = random.Random(78)
    steps = []
    for _ in range(400):
        source = random_typed_term(rng, rng.choice(list(LangType)), rng.randrange(2, 10))
        for target, derivation in trace(source, 16):
            steps.append((source, derivation, render_derivation(derivation)))
            source = target

    def refuse(t):
        raise AssertionError("elaboration ran the driver")

    monkeypatch.setattr(semantics, "drive_step", refuse)
    monkeypatch.setattr(sexpr, "drive_step", refuse, raising=False)  # a name sexpr might import
    for source, derivation, text in steps:
        got = elaborate_step(parse_derivation(text), source)
        assert got == derivation
        assert render_derivation(got) == text
    assert len(steps) > 200


def test_lexer_tokens():
    # Any whitespace separates tokens, a quote ends an atom, and a quoted
    # term keeps its spaces and parentheses.
    spaced = "\t(lift-wt-sum\n(ok-sum ( lift-wt-nat\r1 )\f\v(lift-wt-nat 2) ) ) \n"
    assert parse_derivation(spaced) == parse_derivation("(lift-wt-sum (ok-sum (lift-wt-nat 1) (lift-wt-nat 2)))")
    option = LiftWtOption(some(plus(enat(1), enat(2))))
    assert parse_derivation('(lift-wt-option"some(1 + 2)")') == option
    for text in ("", " \t\n\r\f\v "):
        with pytest.raises(SexprError, match="^unexpected end of derivation text$"):
            parse_derivation(text)


def test_lexer_rejects_an_unterminated_quote():
    for text in ('(a "b', '"'):
        with pytest.raises(SexprError, match="unterminated"):
            parse_derivation(text)


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
        ('(lift-wt-option "1")', "not an option term: '1'"),
        # A rule with no premises is its bare name, never a form.
        ("(ok-nil)", "malformed ok-nil form"),
        ("(lift-wt-array (ok-nil))", "malformed ok-nil form"),
        ("(stepv)", "malformed stepv form"),
        ("(step⁺ (stepv))", "malformed stepv form"),
        ("(lookup)", "malformed lookup form"),
        ("(step[] (lookup))", "malformed lookup form"),
        # A bare one where another rule belongs is named as found.
        ("(lift-wt-sum ok-nil)", "expected ok-sum, got ok-nil"),
        ("(lift-wt-array stepv)", "expected ok-ins or ok-lookup or ok-nil, got stepv"),
        ("(step⁺ ok-nil)", "expected lookup or step\\[\\] or stepi or stepl or stepr or stepv or step⁺, got ok-nil"),
        # A quoted term where a rule name belongs is named as one.
        ('"x"', 'a quoted term "x" where a rule name belongs'),
        ('("x")', 'a quoted term "x" where a rule name belongs'),
    ],
)
def test_reader_errors(text, message):
    with pytest.raises(SexprError, match=f"^{message}$"):
        parse_derivation(text)


def _walk_skeleton(skeleton):
    # The names down the .inner chain; == and repr recurse, so they are not used.
    names = []
    while skeleton is not None:
        names.append(skeleton.name)
        skeleton = skeleton.inner
    return names


def test_reader_takes_deep_nesting():
    depth = 100_000
    skeleton = parse_derivation("(step⁺ " * depth + "stepv" + ")" * depth)
    assert _walk_skeleton(skeleton) == ["step⁺"] * depth + ["stepv"]


def test_deep_typing_round_trip():
    # The typing `fraglang check` prints for an 800-term chain reads back;
    # the texts are compared, since == on derivations this deep recurses.
    ty, derivation = infer(parse(" + ".join(["1"] * 800)))
    text = render_derivation(derivation)
    assert text.count("(") > 2 * 800
    assert render_derivation(parse_derivation(text)) == text
    # The same typing where a rule name belongs is rejected without being hashed.
    with pytest.raises(SexprError):
        parse_derivation(f"({text})")


def test_deep_skeleton_round_trip():
    depth = 100_000
    names = [random.Random(depth).choice(["step⁺", "stepl", "stepr", "step[]", "stepi"]) for _ in range(depth)]
    text = "".join(f"({name} " for name in names) + "lookup" + ")" * depth
    assert _walk_skeleton(parse_derivation(text)) == names + ["lookup"]


# -- the reference decoder ------------------------------------------------
# The two-pass decoder parse_derivation replaced: read the text into a list
# tree, then decode the tree top-down.  It is the specification the one-pass
# decoder is checked against.  A rule with no premises is its bare name only.

_REF_TOKEN = re.compile(r'[()]|"[^"]*"|[^\s()"]+|"')
_REF_NATURAL = re.compile(r"0|[1-9][0-9]*")
_REF_LEAF_STEPS = {"stepv", "lookup"}
_REF_LIFTS = {"lift-wt-nat", "lift-wt-option", "lift-wt-sum", "lift-wt-array"}
_REF_SUM_RULES = {"ok-sum"}
_REF_ARRAY_RULES = {"ok-nil", "ok-ins", "ok-lookup"}
_REF_TYPING_NAMES = _REF_LIFTS | _REF_SUM_RULES | _REF_ARRAY_RULES


@dataclass(frozen=True)
class _RefQuoted:
    text: str


def _ref_lex(text):
    tokens = _REF_TOKEN.findall(text)
    for i, token in enumerate(tokens):
        if token[0] == '"':
            if len(token) == 1:
                raise SexprError("unterminated quoted term")
            tokens[i] = _RefQuoted(token[1:-1])
    return tokens


def _ref_read(text):
    tokens = _ref_lex(text)
    if not tokens:
        raise SexprError("unexpected end of derivation text")
    stack = []
    for pos, token in enumerate(tokens):
        if token == "(":
            stack.append([])
            continue
        if token == ")":
            if not stack:
                raise SexprError("unexpected ')'")
            token = stack.pop()
        if stack:
            stack[-1].append(token)
        elif pos + 1 != len(tokens):
            raise SexprError("trailing input after derivation")
        else:
            return token
    raise SexprError("missing ')'")


def _ref_split(tree):
    if isinstance(tree, str):
        return tree, []
    if isinstance(tree, list) and tree and isinstance(tree[0], str):
        return tree[0], tree[1:]
    raise SexprError(f"malformed derivation form: {tree!r}")


def _ref_decode(tree, allowed):
    head, args = _ref_split(tree)
    if head not in allowed:
        if head in _REF_TYPING_NAMES or head in STEP_NAMES:
            raise SexprError(f"expected {' or '.join(sorted(allowed))}, got {head}")
        raise SexprError(f"unknown constructor name {head!r}")
    match head, args:
        case ("lift-wt-nat", [str(digits)]) if _REF_NATURAL.fullmatch(digits):
            try:
                n = int(digits)
            except ValueError:
                raise SexprError("past the integer-string limit") from None
            return LiftWtNat(n), enat(n)
        case ("lift-wt-option", [_RefQuoted(text)]):
            try:
                t = parse(text)
            except ParseError as exc:
                raise SexprError(f"not a term: {text!r} ({exc})") from None
            if fragment_view(t)[0] != "option":
                raise SexprError(f"not an option term: {text!r}")
            return LiftWtOption(t), t
        case ("lift-wt-sum", [inner]):
            w, t = _ref_decode(inner, _REF_SUM_RULES)
            return LiftWtSum(w), t
        case ("lift-wt-array", [inner]):
            w, t = _ref_decode(inner, _REF_ARRAY_RULES)
            return LiftWtArray(w), t
        case ("ok-sum", [left, right]):
            (wl, l), (wr, r) = _ref_decode(left, _REF_LIFTS), _ref_decode(right, _REF_LIFTS)
            return OkSum(wl, wr, l, r), plus(l, r)
        case ("ok-nil", []) if isinstance(tree, str):
            return OkNil(), nil()
        case ("ok-ins", [array, value, idx]):
            wa, a = _ref_decode(array, _REF_LIFTS)
            we, e = _ref_decode(value, _REF_LIFTS)
            wn, i = _ref_decode(idx, _REF_LIFTS)
            return OkIns(wa, we, wn, a, e, i), assign(a, i, e)
        case ("ok-lookup", [array, idx]):
            (wa, a), (wn, i) = _ref_decode(array, _REF_LIFTS), _ref_decode(idx, _REF_LIFTS)
            return OkLookup(wa, wn, a, i), index(a, i)
    raise SexprError(f"malformed {head} form")


def _ref_decode_step(tree):
    head, args = _ref_split(tree)
    if head not in STEP_NAMES:
        raise SexprError(f"unknown constructor name {head!r}")
    if head in _REF_LEAF_STEPS:
        if not isinstance(tree, str):
            raise SexprError(f"malformed {head} form")
        return StepSkeleton(head)
    if len(args) != 1:
        raise SexprError(f"{head} takes exactly one premise")
    return StepSkeleton(head, _ref_decode_step(args[0]))


def reference_parse(text):
    tree = _ref_read(text)
    if _ref_split(tree)[0] in STEP_NAMES:
        return _ref_decode_step(tree)
    return _ref_decode(tree, _REF_TYPING_NAMES)[0]


def _outcome(decode, text):
    try:
        return decode(text)
    except SexprError:
        return SexprError


def _derivation_texts():
    for t in enumerate_terms(1):
        typed = infer(t)
        if typed is not None:
            yield render_derivation(typed[1])
        stepped = drive_step(t)
        if stepped is not None:
            yield render_derivation(stepped[1])
    rng = random.Random(83)
    for _ in range(300):
        t = random_typed_term(rng, rng.choice(list(LangType)), rng.randrange(8))
        yield render_derivation(infer(t)[1])
        stepped = drive_step(t)
        if stepped is not None:
            yield render_derivation(stepped[1])


RULE_NAMES = sorted(_REF_TYPING_NAMES | set(STEP_NAMES))


def _one_token_mutants(text, rng):
    # Delete, duplicate, or swap with its neighbour one token; or rename one
    # rule name to another.
    tokens = _REF_TOKEN.findall(text)
    for i, token in enumerate(tokens):
        yield tokens[:i] + tokens[i + 1:]
        yield tokens[:i + 1] + tokens[i:]
        if i + 1 < len(tokens):
            yield tokens[:i] + [tokens[i + 1], token] + tokens[i + 2:]
        if token in RULE_NAMES:
            yield tokens[:i] + [rng.choice([n for n in RULE_NAMES if n != token])] + tokens[i + 1:]


def test_reference_differential():
    rng = random.Random(89)
    texts = list(dict.fromkeys(_derivation_texts()))
    mutants = {" ".join(m) for text in texts for m in _one_token_mutants(text, rng)}
    decoded = rejected = 0
    for text in texts + sorted(mutants):
        expected = _outcome(reference_parse, text)
        assert _outcome(parse_derivation, text) == expected, text
        if expected is SexprError:
            rejected += 1
        else:
            decoded += 1
    assert decoded > 400 and rejected > 20_000


# A canonical literal's typing, and a rule's "(" with its name, are one token
# each; the texts around those tokens must read as they did token by token.
FUSED_TOKEN_TEXTS = [
    "(lift-wt-nat 01)",
    "(lift-wt-nat  1)",
    "( lift-wt-nat 1 )",
    "(lift-wt-nat)",
    "(lift-wt-nat 1 2)",
    "((lift-wt-nat 1))",
    "(lift-wt-nat 300)",
    f"(lift-wt-nat {'9' * 4301})",
]


@pytest.mark.parametrize("text", FUSED_TOKEN_TEXTS, ids=lambda text: text[:20])
def test_fused_tokens_decode_as_the_reference_does(text):
    for form in (text, f"(lift-wt-sum (ok-sum {text} (lift-wt-nat 1)))", f"{text} x"):
        assert _outcome(parse_derivation, form) == _outcome(reference_parse, form), form


@pytest.mark.parametrize(
    "text, message",
    [
        ("(lift-wt-nat 01)", "malformed lift-wt-nat form"),
        ("(lift-wt-nat)", "malformed lift-wt-nat form: 1 premises expected"),
        ("(lift-wt-nat 1 2)", "malformed lift-wt-nat form: 1 premises expected"),
        ("((lift-wt-nat 1))", "malformed derivation form: a form where a rule name belongs"),
        ("(lift-wt-nat 1) x", "trailing input after derivation"),
        ("(lift-wt-nat 1))", "trailing input after derivation"),
    ],
)
def test_fused_token_errors(text, message):
    with pytest.raises(SexprError, match=f"^{re.escape(message)}$"):
        parse_derivation(text)


def test_fused_literal_reads_as_spaced_out():
    assert parse_derivation("(lift-wt-nat 300)") == parse_derivation("( lift-wt-nat  300 )") == wt_nat(300)
    assert parse_derivation("(lift-wt-nat 1)") is parse_derivation("( lift-wt-nat 1 )") is wt_nat(1)
