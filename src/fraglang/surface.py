"""Concrete syntax for the composed language.

Each case's syntax is one row of ``SYNTAX``: the binding level of its form,
and the form's text and slots in order, each slot with the level its term
needs.  A literal is its digits, and ``PARENTHESES`` is a form with no case.
``parse`` runs the rows in one precedence-climbing loop, and ``render``, with
minimal parentheses, is generated from them: parse(render(t)) == t.
"""

from __future__ import annotations

import re
import sys
from itertools import takewhile

from .functor import ShapeError, Term, define
from .lang import BUILDERS, LITERAL, SLOT_PATHS, enat, read_view, view


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


# Binding levels, loosest first: a form stands bare where its level or a
# looser one is needed, and in parentheses where a tighter one is.
SUM, POSTFIX, PRIMARY = 0, 1, 2

# Each case's form: its level, then its text and its slots in payload
# order, a slot as (its number in lang.SLOT_PATHS, the level it needs).
SYNTAX = {
    "some": (PRIMARY, ("some(", (0, SUM), ")")),
    "none": (PRIMARY, ("none",)),
    "plus": (SUM, ((0, SUM), " + ", (1, POSTFIX))),
    "assign": (POSTFIX, ((0, POSTFIX), "[", (1, SUM), "] := ", (2, PRIMARY))),
    "nil": (PRIMARY, ("nil",)),
    "index": (POSTFIX, ((0, POSTFIX), " ! ", (1, PRIMARY))),
}
PARENTHESES = (PRIMARY, ("(", (0, SUM), ")"))

# One token per match: a decimal literal, a run of word characters, ':=',
# or any other single character.  Whitespace matches nothing.
_TOKEN = re.compile(r"\d+|[^\W\d_]+|:=|\S")
# Each form as the parser reads it: (builder, level, items), an item being a token
# of its text, the level of a slot, or None at the end.  The parentheses build nothing.
_FORMS = [
    (BUILDERS[case] if case else lambda t: t, level, (
        *(item for piece in pieces for item in (_TOKEN.findall(piece) if type(piece) is str else (piece[1],))), None))
    for case, (level, pieces) in {**SYNTAX, None: PARENTHESES}.items()
]
# The forms that open with a token, by it, and those that open with a slot, by the token after it.
_PREFIX = {items[0]: (build, level, items[1:]) for build, level, items in _FORMS if type(items[0]) is str}
_INFIX = {items[1]: (build, level, items[0], items[2:]) for build, level, items in _FORMS if type(items[0]) is int}
_SYMBOLS = {item for _, _, items in _FORMS for item in items if type(item) is str}


def _tokenize(text: str) -> list[tuple[str, int]]:
    # Every token is checked before parsing starts, so a bad character anywhere is
    # reported before any syntax error.  The list ends with an empty token at the end.
    tokens = [(m[0], m.start()) for m in _TOKEN.finditer(text)]
    for token, offset in tokens:
        if token not in _SYMBOLS and not token[0].isdecimal():
            # A word run may hold a numeric character that is no letter,
            # such as '²': only the letters before it make the word.
            word = "".join(takewhile(str.isalpha, token))
            if word and word not in _SYMBOLS:
                raise ParseError(f"unknown word {word!r}", offset)
            raise ParseError(f"unexpected character {token[len(word)]!r}", offset + len(word))
    tokens.append(("", len(text)))
    return tokens


def parse(text: str) -> Term:
    """Parse surface syntax into a term."""
    # One pass over the tokens by precedence climbing, with an explicit
    # stack of open forms, so nesting depth is bounded by memory, not by
    # the recursion limit.  An open form is (builder, level, the level its
    # place needs, its items still to read, its slot terms so far).
    tokens = iter(_tokenize(text))
    (token, offset), stack, need = next(tokens), [], SUM
    while True:
        # A term starts at ``token``, in a place that needs the level ``need``.
        form = _PREFIX.get(token)
        if form is not None:
            form = form[0], form[1], need, iter(form[2]), []
        elif token[:1].isdecimal():
            try:
                term, level = enat(int(token)), PRIMARY
            except ValueError:  # a decimal run fails only past the limit
                limit = f"the integer-string limit of {sys.get_int_max_str_digits()}"
                raise ParseError(f"literal of {len(token)} digits is past {limit}", offset) from None
        else:
            raise ParseError("expected an expression", offset)
        token, offset = next(tokens)
        while True:
            if form is not None:
                # Read the form's tokens up to its next slot, or to its end.
                build, level, outer, items, held = form
                for item in items:
                    if type(item) is not str:
                        break
                    if token != item:
                        raise ParseError(f"expected {item!r}", offset)
                    token, offset = next(tokens)
                if item is not None:
                    stack.append(form)
                    need = item
                    break
                term, need = build(*held), outer
            # A term of ``level`` is complete: a form that opens with a slot takes
            # it there if the form fits the place and the term fits the slot.
            form = _INFIX.get(token)
            if form is not None and form[1] >= need and level >= form[2]:
                form = form[0], form[1], need, iter(form[3]), [term]
                token, offset = next(tokens)
            elif stack:
                form = stack.pop()
                form[4].append(term)
            elif token:
                raise ParseError(f"unexpected {token!r}", offset)
            else:
                return term


def _compile_render():
    # render for the rows of SYNTAX: one loop that writes each form's text up to its
    # first slot and descends into that slot's term, stacking the rest in reverse: each
    # later slot as (the text before it, its term, the level it needs), then the last text.
    opener, _, closer = PARENTHESES[1]
    loop = [*read_view("t", "tag", "p"), f"if tag == {LITERAL!r}:", "    try:", "        parts.append(str(p.value))"]
    loop += ["    except ValueError:", "        literal_text(p.value)"]
    for case, (level, pieces) in SYNTAX.items():
        texts, slots, paths = [""], [], SLOT_PATHS[case]
        for piece in pieces:  # texts[k] comes before slots[k], and texts[-1] after the last slot
            if type(piece) is str:
                texts[-1] += piece
            else:
                slots.append(piece)
                texts.append("")
        body = [f"if level > {level}:", f"    parts.append({opener!r})", f"    todo.append({closer!r})"]
        body = body * (level < PRIMARY) + [f"parts.append({texts[0]!r})"] * bool(texts[0])
        if slots:
            later = [f"todo.append(({text!r}, p.{paths[k]}, {need}))" for text, (k, need) in zip(texts[1:], slots[1:])]
            body += [f"todo.append({texts[-1]!r})"] * bool(texts[-1]) + later[::-1]
            body += [f"t, level = p.{paths[slots[0][0]]}, {slots[0][1]}", "continue"]
        loop += [f"elif tag == {case!r}:", *("    " + line for line in body)]
    # A foreign node by its class, not its repr: a deep term's repr recurses too far.
    # After a form, the texts stacked above the next slot are written.
    foreign = "ShapeError('not a term of the composed language: a Term over ' + type(t.node).__name__)"
    loop += ["else:", f"    raise {foreign}", "while todo:", "    t = todo.pop()", "    if type(t) is not str:"]
    loop += ["        text, t, level = t", "        parts.append(text)", "        break", "    parts.append(t)"]
    loop += ["else:", "    return ''.join(parts)"]
    lines = [f"parts, todo, level = [], [], {SUM}", "while True:", *("    " + line for line in loop)]
    return define("render", "t", lines, dict(view=view, literal_text=literal_text, ShapeError=ShapeError))


render = _compile_render()
render.__module__, render.__doc__ = __name__, """Surface syntax for a term, with minimal parentheses.

Raises ShapeError on a term outside the composed language, and
LiteralLimitError on a literal too long to write out.  Generated from
``SYNTAX`` at import: one loop over an explicit stack, so any depth renders.
"""
