"""Concrete syntax for the composed language.

Grammar, loosest first:

    expr    := sum
    sum     := postfix ('+' postfix)*                       left-assoc
    postfix := primary ('!' primary | '[' expr ']' ':=' primary)*
    primary := NAT | 'nil' | 'none' | 'some' '(' expr ')' | '(' expr ')'

The renderer emits minimal parentheses; parse(render(t)) == t.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .functor import InL, InR, Pair, ShapeError, Slot, Term
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


@dataclass(frozen=True, slots=True)
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


def _tokenize(text: str) -> list[_Token]:
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


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"expected {what}", token.offset)
        return self.take()

    def expr(self) -> Term:
        left = self.postfix()
        while self.peek().kind == "plus":
            self.take()
            left = plus(left, self.postfix())
        return left

    def postfix(self) -> Term:
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

    def primary(self) -> Term:
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


def parse(text: str) -> Term:
    """Parse surface syntax into a term."""
    parser = _Parser(_tokenize(text))
    term = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected {trailing.text!r}", trailing.offset)
    return term


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
        raise ShapeError(f"not a term of the composed language: {t!r}")
    tag, p = v
    if tag == "nat":
        return literal_text(p.value)
    if tag == "option":
        return f"some({_render(p.payload.term, _SUM)})" if isinstance(p, InL) else "none"
    if tag == "sum":
        text = f"{_render(p.fst.term, _SUM)} + {_render(p.snd.term, _POSTFIX)}"
        return text if level == _SUM else f"({text})"
    match p:
        case InR(Pair(Slot(a), Slot(i))):
            text = f"{_render(a, _POSTFIX)} ! {_render(i, _PRIMARY)}"
        case InL(InL(Pair(Slot(a), Pair(Slot(i), Slot(e))))):
            text = f"{_render(a, _POSTFIX)}[{_render(i, _SUM)}] := {_render(e, _PRIMARY)}"
        case _:
            return "nil"
    return text if level <= _POSTFIX else f"({text})"
