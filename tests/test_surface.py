import random
import sys

import pytest
from hypothesis import given, strategies as st

from fraglang.generate import random_term
from fraglang.lang import assign, enat, index, nil, none, plus, some
from fraglang.surface import LiteralLimitError, ParseError, parse, render
from goldens import EXP_TEXT, exp_term

# CPython's integer-string limit; 0 (or no such function) means none.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_parse_worked_example():
    assert parse(EXP_TEXT) == exp_term()


def test_parse_simple_sum():
    assert parse("6 + 7") == plus(enat(6), enat(7))


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse("some(")
    assert err.value.offset == 5


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
