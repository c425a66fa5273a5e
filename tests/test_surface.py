"""Surface syntax, and the row-driven parser and renderer against the recursive ones they replaced.

``reference_parse`` is the recursive-descent parser kept as the reference:
a character-at-a-time tokenizer and one method per grammar level.  The
one-pass parser must give the same term, or a ParseError with the same
message and offset, for every text, and must also parse text nested too
deep to recurse on.  ``reference_render`` is the recursive renderer, one
branch per case; the generated renderer must give the same text, or the
same error, for every term, and must also render terms nested too deep to
recurse on.
"""

import random
import string
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from fraglang.functor import InL, ShapeError, Slot, Term
from fraglang.generate import enumerate_terms, random_term
from fraglang.lang import FRAGMENTS, LITERAL, assign, enat, index, nil, none, plus, some, view
from fraglang.surface import SYNTAX, LiteralLimitError, ParseError, literal_text, parse, render
from goldens import EXP_TEXT, exp_term, fragment_view

# CPython's integer-string limit; 0 (or no such function) means none.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


_PUNCT = {
    "+": "plus",
    "!": "bang",
    "[": "lbrack",
    "]": "rbrack",
    "(": "lparen",
    ")": "rparen",
}
_KEYWORDS = {"nil", "none", "some"}


def _reference_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            start = i
            while i < len(text) and text[i].isdecimal():
                i += 1
            tokens.append(_Token("nat", text[start:i], start))
            continue
        if c.isalpha():
            start = i
            while i < len(text) and text[i].isalpha():
                i += 1
            word = text[start:i]
            if word not in _KEYWORDS:
                raise ParseError(f"unknown word {word!r}", start)
            tokens.append(_Token(word, word, start))
            continue
        if text.startswith(":=", i):
            tokens.append(_Token("assign", ":=", i))
            i += 2
            continue
        if c in _PUNCT:
            tokens.append(_Token(_PUNCT[c], c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind, what):
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"expected {what}", token.offset)
        return self.take()

    def expr(self):
        left = self.postfix()
        while self.peek().kind == "plus":
            self.take()
            left = plus(left, self.postfix())
        return left

    def postfix(self):
        term = self.primary()
        while True:
            kind = self.peek().kind
            if kind == "bang":
                self.take()
                term = index(term, self.primary())
            elif kind == "lbrack":
                self.take()
                idx = self.expr()
                self.expect("rbrack", "']'")
                self.expect("assign", "':='")
                term = assign(term, idx, self.primary())
            else:
                return term

    def primary(self):
        token = self.peek()
        if token.kind == "nat":
            self.take()
            try:
                n = int(token.text)
            except ValueError:  # a decimal run fails only past the limit
                raise ParseError(
                    f"literal of {len(token.text)} digits is past the"
                    f" integer-string limit of {sys.get_int_max_str_digits()}",
                    token.offset,
                ) from None
            return enat(n)
        if token.kind == "nil":
            self.take()
            return nil()
        if token.kind == "none":
            self.take()
            return none()
        if token.kind == "some":
            self.take()
            self.expect("lparen", "'('")
            inner = self.expr()
            self.expect("rparen", "')'")
            return some(inner)
        if token.kind == "lparen":
            self.take()
            inner = self.expr()
            self.expect("rparen", "')'")
            return inner
        raise ParseError("expected an expression", token.offset)


def reference_parse(text):
    parser = _ReferenceParser(_reference_tokenize(text))
    term = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected {trailing.text!r}", trailing.offset)
    return term


def outcome(parser, text):
    """The term parsed, or the message and offset of the ParseError."""
    try:
        return parser(text)
    except ParseError as err:
        return str(err), err.offset


# Binding levels, loosest first: a term renders bare at its own level or
# any looser one, and in parentheses where a tighter level is required.
_SUM, _POSTFIX, _PRIMARY = 0, 1, 2


def _reference_render(t, level):
    v = view(t)
    if v is None:
        raise ShapeError(f"not a term of the composed language: a Term over {type(t.node).__name__}")
    case, q = v
    if case == "nat":
        return literal_text(q.value)
    if case == "some":
        return f"some({_reference_render(q.term, _SUM)})"
    if case == "none":
        return "none"
    if case == "nil":
        return "nil"
    if case == "plus":
        text = f"{_reference_render(q.fst.term, _SUM)} + {_reference_render(q.snd.term, _POSTFIX)}"
        return text if level == _SUM else f"({text})"
    if case == "index":
        text = f"{_reference_render(q.fst.term, _POSTFIX)} ! {_reference_render(q.snd.term, _PRIMARY)}"
    else:
        a, i, e = q.fst.term, q.snd.fst.term, q.snd.snd.term
        text = f"{_reference_render(a, _POSTFIX)}[{_reference_render(i, _SUM)}] := {_reference_render(e, _PRIMARY)}"
    return text if level <= _POSTFIX else f"({text})"


def reference_render(t):
    return _reference_render(t, _SUM)


def rendered(renderer, t):
    """The text rendered, or the class and message of the error."""
    try:
        return renderer(t)
    except (ShapeError, LiteralLimitError) as err:
        return type(err), str(err)


def assert_parses_as_reference(text):
    assert outcome(parse, text) == outcome(reference_parse, text)


# Every printable ASCII character and ':=', the keywords and prefixes of
# them, and characters on either side of each character class: decimal
# digits that are not ASCII, numeric characters that are no decimal digit
# ('²', '½'), a letter that is not ASCII, '_', and whitespace.
_ALPHABET = [
    *string.printable,
    ":=",
    *("nil", "none", "some", "som", "ni", "no"),
    *("١", "²", "½", "é", "_", "\xa0", "\t", "\n"),
]
# Grammar pieces, drawn as often as the rest so that texts reach the parser.
_PIECES = ["(", ")", "some(", "[", "] := ", "!", " + ", "0", "12", "nil", "none"]
_TEXTS = st.lists(st.sampled_from(_ALPHABET) | st.sampled_from(_PIECES), max_size=30).map("".join)


@settings(max_examples=500)
@given(_TEXTS)
def test_parse_agrees_with_the_reference(text):
    assert_parses_as_reference(text)


@pytest.mark.parametrize(
    "text",
    ["nil²", "x½", "some²(1)", "²", "nil_", "x_y", "nil[0]", "nil[0] :=", "(((1", "some", "some 1", "", "nil[0 + 1"],
)
def test_parse_agrees_with_the_reference_on_fixed_texts(text):
    # A regex word run also takes numeric characters that are no letters,
    # such as '²' and '½'; the reference stops its words before them.
    assert_parses_as_reference(text)


def test_every_case_but_the_literal_has_a_syntax_row():
    assert set(SYNTAX) | {LITERAL} == {case for fragment in FRAGMENTS.values() for case in fragment}
    assert LITERAL not in SYNTAX


@settings(max_examples=300)
@given(st.integers(0, 2**32), st.integers(0, 12))
def test_render_agrees_with_the_reference(seed, size):
    t = random_term(random.Random(seed), size)
    assert render(t) == reference_render(t)


def test_render_agrees_with_the_reference_on_an_enumeration_prefix():
    for n, t in enumerate(enumerate_terms(2, (0, 1))):
        if n == 20_000:
            break
        assert render(t) == reference_render(t)


def _foreign_terms():
    # Terms outside the language: a bare slot, at the root and in each
    # position a form can hold a term, and a literal past the limit.
    bad = Term(Slot(enat(1)))
    yield bad
    yield Term(InL(Slot(enat(1))))
    for wrap in (some, lambda t: plus(t, bad), lambda t: plus(enat(1), t), lambda t: index(t, nil())):
        yield wrap(bad)
    yield assign(nil(), bad, enat(1))
    yield assign(nil(), enat(1), bad)
    yield plus(bad, Term(InL(Slot(enat(1)))))
    if LIMIT:
        yield plus(enat(10**LIMIT), bad)
        yield index(nil(), enat(10**LIMIT))


@pytest.mark.parametrize("t", list(_foreign_terms()), ids=lambda t: type(t.node).__name__)
def test_render_rejects_foreign_terms_as_the_reference_does(t):
    assert isinstance(rendered(reference_render, t), tuple)
    assert rendered(render, t) == rendered(reference_render, t)


def test_render_takes_100000_nested_some():
    n = 100_000
    t = enat(7)
    for _ in range(n):
        t = some(t)
    assert render(t) == "some(" * n + "7" + ")" * n


def test_deep_parentheses_parse():
    n = 20_000
    assert parse("(" * n + "1" + ")" * n) == enat(1)


def test_deep_some_parses():
    n = 5_000
    t = parse("some(" * n + "1" + ")" * n)
    # Peeled one level at a time: == on terms this deep would overflow.
    for _ in range(n):
        tag, p = fragment_view(t)
        assert tag == "option" and isinstance(p, InL)
        t = p.payload.term
    assert t == enat(1)


def test_parse_worked_example():
    assert parse(EXP_TEXT) == exp_term()


def test_parse_simple_sum():
    assert parse("6 + 7") == plus(enat(6), enat(7))


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse("some(")
    assert err.value.offset == 5
    with pytest.raises(ParseError, match=r"^expected '\]' at offset 9$"):
        parse("nil[0 + 1")


def test_parse_error_on_unknown_word():
    with pytest.raises(ParseError) as err:
        parse("nix")
    assert err.value.offset == 0


@pytest.mark.skipif(LIMIT == 0, reason="no integer-string limit")
def test_literals_at_and_past_the_integer_string_limit():
    assert render(parse("9" * LIMIT)) == "9" * LIMIT
    with pytest.raises(ParseError) as err:
        parse("1 + " + "1" * (LIMIT + 1))
    assert err.value.offset == 4
    with pytest.raises(LiteralLimitError):
        render(enat(10**LIMIT))


def test_only_decimal_digits_make_literals():
    assert parse("١") == enat(1)  # an Arabic-Indic digit is a decimal digit
    with pytest.raises(ParseError) as err:
        parse("2²")
    assert err.value.offset == 1


def test_parse_error_on_trailing_tokens():
    with pytest.raises(ParseError):
        parse("1 2")


def test_sum_is_left_associative():
    assert parse("1 + 2 + 3") == plus(plus(enat(1), enat(2)), enat(3))


def test_postfix_binds_tighter_than_sum():
    assert parse("nil ! 0 + 1") == plus(index(nil(), enat(0)), enat(1))


def test_postfix_chains_left():
    assert parse("nil ! 0 ! 1") == index(index(nil(), enat(0)), enat(1))


def test_assignment_form():
    assert parse("nil[0] := 1") == assign(nil(), enat(0), enat(1))
    assert parse("nil[0 + 1] := 2") == assign(nil(), plus(enat(0), enat(1)), enat(2))


def test_primaries():
    assert parse("none") == none()
    assert parse("some(nil)") == some(nil())
    assert parse("((3))") == enat(3)


def test_render_examples():
    assert render(enat(6)) == "6"
    assert render(plus(enat(6), enat(7))) == "6 + 7"
    assert render(exp_term()) == "nil[0] := 1 ! (0 + 1)"
    assert render(some(plus(enat(1), enat(2)))) == "some(1 + 2)"


def test_render_error_names_the_class_not_the_term():
    # The repr of a 100-term chain is past the recursion limit.
    chain = enat(1)
    for _ in range(99):
        chain = plus(chain, enat(1))
    for bad in (Term(Slot(chain)), plus(enat(1), Term(Slot(chain)))):
        with pytest.raises(ShapeError, match="a Term over Slot$"):
            render(bad)


def test_render_parenthesizes_only_when_needed():
    t = plus(enat(1), plus(enat(2), enat(3)))
    assert render(t) == "1 + (2 + 3)"
    assert parse(render(t)) == t


@given(st.integers(0, 2**32))
def test_parse_render_round_trip(seed):
    t = random_term(random.Random(seed), 8)
    assert parse(render(t)) == t


def test_round_trip_on_parenthesized_input_normalizes():
    # parse . render is the identity on terms, not on text
    assert parse(render(parse(EXP_TEXT))) == parse(EXP_TEXT)
