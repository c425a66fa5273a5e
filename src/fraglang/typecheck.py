"""Reified typing derivations, their validator, and the inferencer.

Fragment rules (sums, arrays) know nothing about the composed language;
the lift constructors tie them to it.  The option rule is deliberately
shallow: any option term is well-typed, with no demand on what it holds.
Each rule is one row of ``RULES``, from which ``infer`` and
``validate_typing`` are generated, each a loop over a stack, and the
s-expression decoders are written.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import fields
from enum import Enum
from typing import Callable

from .functor import Term, define, is_natural, record
from .lang import SHARED_NATS, SLOT_PATHS, read_view, view


class LangType(Enum):
    NAT = "TNat"
    OPTION = "TOption"
    ARRAY = "TArray"


@record
class OkSum:
    """Addition of two naturals is a natural."""

    left_wt: "ComposedTyping"
    right_wt: "ComposedTyping"
    left: Term
    right: Term


@record
class OkNil:
    """The empty array is an array."""


@record
class OkIns:
    """Assignment of a natural at a natural index preserves array-ness."""

    array_wt: "ComposedTyping"
    value_wt: "ComposedTyping"
    index_wt: "ComposedTyping"
    array: Term
    value: Term
    index: Term


@record
class OkLookup:
    """Lookup of a natural index in an array yields an option."""

    array_wt: "ComposedTyping"
    index_wt: "ComposedTyping"
    array: Term
    index: Term


SumTyping = OkSum
ArrayTyping = OkNil | OkIns | OkLookup


@record
class LiftWtNat:
    n: int


@record
class LiftWtOption:
    term: Term


@record
class LiftWtSum:
    inner: SumTyping


@record
class LiftWtArray:
    inner: ArrayTyping


ComposedTyping = LiftWtNat | LiftWtOption | LiftWtSum | LiftWtArray


# Typing leaves are shared as their terms are (``lang.enat``, ``lang.nil``):
# one LiftWtNat per small literal, one typing of the empty array.
_WT_NATS = tuple(map(LiftWtNat, range(SHARED_NATS)))
WT_NIL = LiftWtArray(OkNil())


def wt_nat(n: int) -> LiftWtNat:
    """The typing of literal ``n``; equal small ones are one object, by enat's rule."""
    if type(n) is int and 0 <= n < SHARED_NATS:
        return _WT_NATS[n]
    return LiftWtNat(n)


# Each case's typing rule as a row of data, in the order of lang.FRAGMENTS:
# the type it concludes; its premises in the order they are tried, each a
# slot of the case's payload (numbered as lang.SLOT_PATHS numbers them)
# and the type that slot's term needs; its lift into ComposedTyping; and
# the fragment's rule record, which holds the premises' derivations, then
# their terms.  A literal's typing and an option's have no rule: the lift
# holds what they type.
TypingRule = namedtuple("TypingRule", "conclusion premises lift rule", defaults=(None,))
_NAT, _OPTION, _ARRAY = LangType
RULES = {
    "nat": TypingRule(_NAT, (), LiftWtNat),
    "some": TypingRule(_OPTION, (), LiftWtOption),
    "none": TypingRule(_OPTION, (), LiftWtOption),
    "plus": TypingRule(_NAT, ((0, _NAT), (1, _NAT)), LiftWtSum, OkSum),
    "assign": TypingRule(_ARRAY, ((0, _ARRAY), (2, _NAT), (1, _NAT)), LiftWtArray, OkIns),
    "nil": TypingRule(_ARRAY, (), LiftWtArray, OkNil),
    "index": TypingRule(_OPTION, ((0, _ARRAY), (1, _NAT)), LiftWtArray, OkLookup),
}

# The rules with no premises, by the record each builds: its derivation of
# a term t with payload p, and the source of the check that a derivation d
# under its lift holds what t, with view (tag, q), does, with {rule} for
# the row's rule record.  What an option holds goes unchecked; view
# shape-checks it.
_AXIOMS = {
    LiftWtNat: (lambda t, p: wt_nat(p.value), "is_natural(d.n) and d.n == q.value"),
    LiftWtOption: (
        lambda t, p: LiftWtOption(t),
        "d.term is t or isinstance(d.term, Term) and view(d.term) == (tag, q)",
    ),
    OkNil: (lambda t, p: WT_NIL, "isinstance(d.inner, {rule})"),
}


def _premise(case: str, k: int, slot: int, need: LangType) -> list[str]:
    # Premise k of the generated infer: its slot's term s is typed by a rule
    # with premises, descended into, or else by an axiom; any other case
    # fails it.  Premises before it are done where ``k`` says so.
    lines, test = [f"s = q.{SLOT_PATHS[case][slot]}", *read_view("s", "tag_s", "q_s"), "terms.append(s)"], "if"
    descend = ["stack.append((tag, q, wts, terms))", "tag, q, wts, terms = tag_s, q_s, [], []", "continue"]
    for i, (sub, row) in enumerate(RULES.items()):
        if row.conclusion is need:
            lines += [f"{test} tag_s == {sub!r}:", *("    " + line for line in descend if row.premises)]
            lines += [f"    wts.append(make{i}(s, q_s))"] * (not row.premises)
            test = "elif"
    return [f"if k <= {k}:", *("    " + line for line in [*lines, "else:", "    return None"])]


def _compile_infer() -> Callable:
    # infer for the rows of RULES: one loop over a stack of the nodes whose
    # premises are under way, with each row's premises and rule inline
    # under a test of the node's case.  A premise of an axiom's case is
    # typed in place, so only the root reaches the axioms' tests, last.
    names, loop, axioms = {"view": view}, [], []
    for i, (case, row) in enumerate(RULES.items()):
        names.update({f"ty{i}": row.conclusion, f"lift{i}": row.lift, f"rule{i}": row.rule})
        if not row.premises:
            names[f"make{i}"] = _AXIOMS[row.rule or row.lift][0]
            axioms += [f"if tag == {case!r}:", f"    return ty{i}, make{i}(t, q)"]
            continue
        body = ["k = len(wts)"]
        for k, (slot, need) in enumerate(row.premises):
            body += _premise(case, k, slot, need)
        body += [f"d = lift{i}(rule{i}(*wts, *terms))", "if not stack:", f"    return ty{i}, d"]
        body += ["tag, q, wts, terms = stack.pop()", "wts.append(d)", "continue"]
        loop += [f"if tag == {case!r}:", *("    " + line for line in body)]
    lines = [*read_view("t", "tag", "q"), "stack, wts, terms = [], [], []", "while True:"]
    return define("infer", "t", [*lines, *("    " + line for line in [*loop, *axioms, "return None"])], names)


def _compile_validate() -> Callable:
    # validate_typing for the rows of RULES: one loop over a stack of the
    # (derivation, term, type) triples still to check, with each row's
    # checks inline under a test of the term's case.  A rule's premises are
    # checked against its term's slots; the first is checked next, the rest
    # wait on the stack.
    names, loop, test = {"Term": Term, "view": view, "is_natural": is_natural}, [], "if"
    for i, (case, row) in enumerate(RULES.items()):
        names.update({f"ty{i}": row.conclusion, f"lift{i}": row.lift, f"rule{i}": row.rule})
        body = [f"if ty is not ty{i} or not isinstance(d, lift{i}):", "    return False"]
        if not row.premises:
            check = _AXIOMS[row.rule or row.lift][1].format(rule=f"rule{i}")
            body += [f"if not ({check}):", "    return False"]
        else:
            held = [f.name for f in fields(row.rule)]  # the premises' derivations, then their terms
            n, same, pending = len(row.premises), [], []
            body += ["w = d.inner", f"if not isinstance(w, rule{i}):", "    return False"]
            for k, (slot, need) in enumerate(row.premises):
                names[f"need{i}_{k}"] = need
                body.append(f"s{k} = q.{SLOT_PATHS[case][slot]}")
                same.append(f"(w.{held[n + k]} is s{k} or w.{held[n + k]} == s{k})")
                pending.append(f"w.{held[k]}, s{k}, need{i}_{k}")
            body += [f"if not ({' and '.join(same)}):", "    return False"]
            body += [f"todo.append(({x}))" for x in reversed(pending[1:])]
            body += [f"d, t, ty = {pending[0]}", "continue"]
        loop += [f"{test} tag == {case!r}:", *("    " + line for line in body)]
        test = "elif"
    loop += ["else:", "    return False", "if not todo:", "    return True", "d, t, ty = todo.pop()"]
    lines = ["if not isinstance(t, Term):", "    return False", "todo = []", "while True:"]
    lines += ["    " + line for line in [*read_view("t", "tag", "q"), *loop]]
    return define("validate_typing", "d, t, ty", lines, names)


validate_typing = _compile_validate()
validate_typing.__module__ = __name__
validate_typing.__doc__ = """True iff d is well-formed throughout and claims exactly (t, ty).

Each node is checked against its case's row and one view of its term:
literals against the view's payload, stored terms against the view's slot
terms, and an option's stored term by its own view.  So no claimed term is
rebuilt, and a term outside the language (a bool literal, say) is rejected
rather than compared equal.  The body is generated from ``RULES`` at
import, with each row's checks inline; a node's view is the one its lifter
recorded, or ``view``'s.
"""

infer = _compile_infer()
infer.__module__, infer.__doc__ = __name__, """The unique type and derivation for t, or None.

The rules are syntax-directed, so the term's case picks its row, and the
premises are inferred depth-first, in order, over a stack of the nodes
whose premises are under way.  Each case concludes one type, so a premise
whose case has the wrong type fails before it is descended into, and the
first failure ends the inference: infer is pure, so the premises after it
could not change the answer.  The body is generated from ``RULES`` at
import, with each row's premises and rule inline; a node's view is the one
its lifter recorded, or ``view``'s.
"""
