"""Concrete syntax for the composed language.

Grammar, loosest first:

    expr    := sum
    sum     := postfix ('+' postfix)*                       left-assoc
    postfix := primary ('!' primary | '[' expr ']' ':=' primary)*
    primary := NAT | 'nil' | 'none' | 'some' '(' expr ')' | '(' expr ')'

The renderer emits minimal parentheses; parse(render(t)) == t.
"""

from __future__ import annotations

import re
import sys
from itertools import takewhile

from .functor import ShapeError, Term
from .lang import assign, enat, index, nil, none, plus, some, view


class ParseError(Exception):
    """Syntax error with the offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class LiteralLimitError(ValueError):
    """A literal too long to write out as text.

    CPython converts at most ``sys.get_int_max_str_digits()`` digits (4,300
    by default) between int and str; a computed literal can outgrow that.
    """


def literal_text(n: int) -> str:
    """The decimal text of a literal; LiteralLimitError past the limit."""
    try:
        return str(n)
    except ValueError:
        raise LiteralLimitError(
            "a literal has more digits than the integer-string limit"
            f" of {sys.get_int_max_str_digits()}"
        ) from None


# One token per match: a decimal literal, a run of word characters, ':=',
# or any other single character.  Whitespace matches nothing.
_TOKEN = re.compile(r"\d+|[^\W\d_]+|:=|\S")
_KEYWORDS = {"nil", "none", "some"}
_SYMBOLS = _KEYWORDS | {"+", "!", "[", "]", "(", ")", ":="}


def _tokenize(text: str) -> list[tuple[str, int]]:
    # Every token is checked before parsing starts, so a bad character
    # anywhere is reported before any syntax error.  The list ends with an
    # empty token at the end of the text.
    tokens = [(m[0], m.start()) for m in _TOKEN.finditer(text)]
    for token, offset in tokens:
        if token not in _SYMBOLS and not token[0].isdecimal():
            # A word run may hold a numeric character that is no letter,
            # such as '²': only the letters before it make the word.
            word = "".join(takewhile(str.isalpha, token))
            if word and word not in _KEYWORDS:
                raise ParseError(f"unknown word {word!r}", offset)
            raise ParseError(f"unexpected character {token[len(word)]!r}", offset + len(word))
    tokens.append(("", len(text)))
    return tokens


def _literal(digits: str, offset: int) -> Term:
    try:
        return enat(int(digits))
    except ValueError:  # a decimal run fails only past the limit
        raise ParseError(
            f"literal of {len(digits)} digits is past the"
            f" integer-string limit of {sys.get_int_max_str_digits()}",
            offset,
        ) from None


def parse(text: str) -> Term:
    """Parse surface syntax into a term."""
    # One pass over the tokens with an explicit stack of open contexts, so
    # nesting depth is bounded by memory, not by the recursion limit.  A
    # context is an open '(' or 'some(', an open '[' holding its array, or
    # an operator holding its left operands: '+' waits for a postfix, '!'
    # and ':=' for a primary.
    tokens = _tokenize(text)
    stack: list[tuple[str, tuple]] = []
    pos = 0
    while True:
        token, offset = tokens[pos]
        pos += 1
        if token == "(":
            stack.append(("(", ()))
            continue
        if token == "some":
            if tokens[pos][0] != "(":
                raise ParseError("expected '('", tokens[pos][1])
            pos += 1
            stack.append(("some", ()))
            continue
        if token == "nil":
            term = nil()
        elif token == "none":
            term = none()
        elif token[:1].isdecimal():
            term = _literal(token, offset)
        else:
            raise ParseError("expected an expression", offset)
        # A primary is complete: fold what follows into it until a context
        # needs another primary.
        while True:
            kind = stack[-1][0] if stack else None
            if kind == "!" or kind == ":=":
                held = stack.pop()[1]
                term = index(*held, term) if kind == "!" else assign(*held, term)
            token, offset = tokens[pos]
            pos += 1
            if token == "!" or token == "[":
                stack.append((token, (term,)))
                break
            if stack and stack[-1][0] == "+":
                term = plus(*stack.pop()[1], term)
            if token == "+":
                stack.append((token, (term,)))
                break
            if not stack:
                if token:
                    raise ParseError(f"unexpected {token!r}", offset)
                return term
            kind, held = stack.pop()
            if kind == "[":
                if token != "]":
                    raise ParseError("expected ']'", offset)
                if tokens[pos][0] != ":=":
                    raise ParseError("expected ':='", tokens[pos][1])
                pos += 1
                stack.append((":=", (*held, term)))
                break
            if token != ")":
                raise ParseError("expected ')'", offset)
            if kind == "some":
                term = some(term)


# Binding levels, loosest first: a term renders bare at its own level or
# any looser one, and in parentheses where a tighter level is required.
_SUM, _POSTFIX, _PRIMARY = 0, 1, 2


def render(t: Term) -> str:
    """Surface syntax for a term, with minimal parentheses.

    Raises ShapeError on a term outside the composed language, and
    LiteralLimitError on a literal too long to write out.
    """
    return _render(t, _SUM)


def _render(t: Term, level: int) -> str:
    v = view(t)
    if v is None:
        # The node's class, not its repr: a deep term's repr recurses too far.
        raise ShapeError(f"not a term of the composed language: a Term over {type(t.node).__name__}")
    case, q = v
    if case == "nat":
        return literal_text(q.value)
    if case == "some":
        return f"some({_render(q.term, _SUM)})"
    if case == "none":
        return "none"
    if case == "nil":
        return "nil"
    if case == "plus":
        text = f"{_render(q.fst.term, _SUM)} + {_render(q.snd.term, _POSTFIX)}"
        return text if level == _SUM else f"({text})"
    if case == "index":
        text = f"{_render(q.fst.term, _POSTFIX)} ! {_render(q.snd.term, _PRIMARY)}"
    else:
        a, i, e = q.fst.term, q.snd.fst.term, q.snd.snd.term
        text = f"{_render(a, _POSTFIX)}[{_render(i, _SUM)}] := {_render(e, _PRIMARY)}"
    return text if level <= _POSTFIX else f"({text})"
