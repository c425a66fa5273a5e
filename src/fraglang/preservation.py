"""Derivation transformers witnessing type preservation.

Each fragment supplies only its axiom case, and gets what it needs of the
composed language (how to type a literal or an option) as explicit hooks.
The congruence cases are read off each case's step and typing rows: at
import, ``preserve`` is generated from them as one loop, the induction,
with every congruence case inline, so no fragment writes one.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

from .functor import Term, define, is_natural, record
from .lang import array_lookup, nat_value
from .semantics import FIELD_CODE, STEPS, Lookup, StepV, layout
from .typecheck import RULES, ComposedTyping, LiftWtOption, OkLookup, OkSum, wt_nat


class SubjectMismatchError(Exception):
    """A step and a typing derivation disagree about their subject term."""


def _is_literal(t: Term, n: int) -> bool:
    # Read through nat_value: a non-natural n builds no literal and matches no term.
    return is_natural(n) and nat_value(t) == n


@record
class PreservationHooks:
    """What a fragment's axiom case assumes about the composed language."""

    wt_nat: Callable[[int], ComposedTyping]
    wt_option: Callable[[Term], ComposedTyping]


def preservation_sum(hooks: PreservationHooks, step: StepV, wt: OkSum) -> ComposedTyping:
    """The sum axiom: two literals step to their sum, a natural."""
    if not isinstance(wt, OkSum):
        raise SubjectMismatchError(f"sum step against non-sum typing {type(wt).__name__}")
    if not isinstance(step, StepV) or not _is_literal(wt.left, step.n) or not _is_literal(wt.right, step.m):
        raise SubjectMismatchError("literal-reduction subject mismatch")
    return hooks.wt_nat(step.n + step.m)


def preservation_array(hooks: PreservationHooks, step: Lookup, wt: OkLookup) -> ComposedTyping:
    """The array axiom: a lookup at a literal index steps to an option."""
    ok = isinstance(step, Lookup) and isinstance(wt, OkLookup) and _is_literal(wt.index, step.idx)
    if not ok or wt.array != step.array:
        raise SubjectMismatchError("lookup subject mismatch")
    return hooks.wt_option(array_lookup(step.array, step.idx))


# Each step row's axiom record, with the case of its fragment that rewrites it.
AXIOMS = {StepV: preservation_sum, Lookup: preservation_array}

# Instantiated once: the composed language supplies its own constructors as its hooks.
COMPOSED_HOOKS = PreservationHooks(wt_nat=wt_nat, wt_option=LiftWtOption)


def _compile_preserve() -> Callable:
    # preserve for the rows of STEPS and RULES: one loop down the step's
    # records, with each row's records inline under a test of the step's
    # lift and the typing's.  A congruence checks its subject against its
    # case's typing rule, field by field, and stacks a frame; the axiom's
    # case is looked up in AXIOMS at call time.  Each frame rebuilds the
    # typing rule with the premise at its stepped slot replaced.
    names = dict(AXIOMS=AXIOMS, COMPOSED_HOOKS=COMPOSED_HOOKS, Error=SubjectMismatchError, is_natural=is_natural)
    names.update(nat_value=nat_value, PAIRS={row.lift: RULES[case].lift for case, row in STEPS.items()})
    down, up = ["s = getattr(step, 'step', None)", "kind = type(s)"], []
    for i, (case, row) in enumerate(STEPS.items()):
        typing, body = RULES[case], []
        names.update({f"via{i}": row.lift, f"lift{i}": typing.lift, f"typing{i}": typing.rule})
        names[f"rule{i}"] = row.axiom[0]
        held, slots = [f.name for f in fields(typing.rule)], [slot for slot, _ in typing.premises]
        for slot, record, text in row.context:
            names[f"rule{i}_{slot}"], k, n = record, slots.index(slot), len(slots)
            # Each field that holds a source, on its own and against the
            # typing's term of its slot; the premise and the term rebuilt at
            # the stepped slot, from the field that holds its target.
            checks, args = [], [f"w.{field}" for field in held]
            for kind, name, j in layout(record, text):
                if kind == "after":
                    args[k], args[n + k] = "wt", f"s.{name}"
                else:
                    checks += [c.format(name, held[n + slots.index(j)], "w") for c in FIELD_CODE[kind][1:] if c]
            level = ["w = wt.inner", f"if not isinstance(w, typing{i}):"]
            level += ["    raise Error(f'{kind.__name__} against typing {type(w).__name__}')"]
            level += [f"if not ({' and '.join(checks)}):", "    raise Error(f'{kind.__name__} subject mismatch')"]
            level += ["frames = kind, s, w, frames", f"step, wt = s.inner, w.{held[k]}", "continue"]
            body += [f"if kind is rule{i}_{slot}:", *("    " + line for line in level)]
            up += [f"{'elif' if up else 'if'} kind is rule{i}_{slot}:"]
            up += [f"    wt = lift{i}(typing{i}({', '.join(args)}))"]
        body += [f"if kind is rule{i}:", f"    wt = AXIOMS[rule{i}](COMPOSED_HOOKS, s, wt.inner)", "    break"]
        down += [f"if type(step) is via{i} and isinstance(wt, lift{i}):", *("    " + line for line in body)]
    down += ["lift = PAIRS.get(type(step))", "if lift is None or not isinstance(wt, lift):"]
    down += ["    raise Error(f'step {type(step).__name__} cannot pair with typing {type(wt).__name__}')"]
    down += ["raise Error(f'not a {type(step).__name__} step: {kind.__name__}')"]
    lines = ["frames = ()", "while True:", *("    " + line for line in down), "while frames:"]
    lines += ["    kind, s, w, frames = frames", *("    " + line for line in up), "return wt"]
    return define("preserve", "step, wt", lines, names)


preserve = _compile_preserve()
preserve.__module__, preserve.__doc__ = __name__, """Rewrite a composed typing across a composed step.

The walk goes down the congruences, checking each level's subject, to
the axiom, which its fragment's case in ``AXIOMS`` rewrites.  The typing is
rebuilt up the frames the walk stacked, each replacing the premise at its
stepped slot and keeping every other premise and term as it was.  The body
is generated from ``STEPS`` and ``RULES`` at import, with each row's
records inline.
"""
