"""Containment paths into sum-structured descriptors and the lifts they induce.

A path is the tuple of injections (InL or InR) that selects one summand
of a root descriptor, innermost first; the empty path selects the root
itself.  Each path induces an injective lift from payloads of the selected
summand into terms over the root, with a partial inverse that peels the
injection spine back off.  The path (InR, InL), for one, targets
root.left.right and lifts a payload p to the node InL(InR(p)).
"""

from __future__ import annotations

import threading
from typing import Callable

from .functor import (
    FunctorDesc,
    InL,
    InR,
    Pair,
    Payload,
    Prod,
    Rec,
    ShapeError,
    Slot,
    Sum,
    Term,
    check_source,
    define,
    record,
    set_view_payload,
    set_view_tag,
    validator,
)


class MalformedPathError(Exception):
    """A path step is no injection, or meets a descriptor that is not a sum."""


@record
class ContainsPath:
    """A proof sketch that one descriptor is a (nested) summand of another."""

    steps: tuple[type[InL] | type[InR], ...]
    root: FunctorDesc


def path_target(path: ContainsPath) -> FunctorDesc:
    """The sub-descriptor a path selects; raises on a step into a non-sum."""
    desc = path.root
    for step in reversed(path.steps):
        if not isinstance(desc, Sum):
            raise MalformedPathError(
                f"path step {step.__name__} reaches non-sum descriptor {desc!r}"
            )
        if step is not InL and step is not InR:
            raise MalformedPathError(f"path step {step!r} is no injection")
        desc = desc.left if step is InL else desc.right
    return desc


# What the compiled lifters call: the allocator and the slot writers, so no
# record's __init__ runs.
_LIFT_NAMES = {
    "new": object.__new__,
    "ShapeError": ShapeError,
    "set_term": Slot.term.__set__,
    "set_fst": Pair.fst.__set__,
    "set_snd": Pair.snd.__set__,
    "set_InL": InL.payload.__set__,
    "set_InR": InR.payload.__set__,
    "set_node": Term.node.__set__,
    "set_view_tag": set_view_tag,
    "set_view_payload": set_view_payload,
}
_LIFTERS: dict[tuple[tuple, str | None], list[tuple[FunctorDesc, Callable[[Payload], Term]]]] = {}
_TAGS: dict[str, ContainsPath] = {}
_BINDING = threading.Lock()


def lifter(path: ContainsPath, tag: str | None = None) -> Callable[[Payload], Term]:
    """``upcast`` along one path, compiled once into straight-line code.

    The code checks the payload with one expression, the target's validator,
    then writes the injection spine and the term through their slots.  Given
    a ``tag``, each new term records ``(tag, p)`` as its view (see
    ``lang.view``): the shape check just passed and the spine is the path's.
    A payload that fails the check is reported against the tag's case, and
    without a tag against the path.

    A tag names one spine and a spine carries one tag: a tag already bound
    to another path, a second tag for a spine, or a tag on a path whose
    target is a sum raises ValueError.  So two lifted terms have equal nodes
    exactly when their tags and their view payloads are equal
    (``Term.__eq__``).
    """
    # Keyed on the steps, and the root found by identity first: hashing a
    # root descriptor walks all of it.
    try:
        compiled = _LIFTERS.setdefault((path.steps, tag), [])
    except TypeError:  # unhashable steps: nothing to share
        return _compile_lift(path, tag, None)
    for root, lift in compiled:
        if root is path.root or root == path.root:
            return lift
    lift = _compile_lift(path, tag, None)
    compiled.append((path.root, lift))
    return lift


def builder(path: ContainsPath, tag: str, *params: str) -> Callable[..., Term]:
    """A tagged ``lifter`` that first builds its payload from ``params``.

    The target must be a product tree of recursion slots, one parameter a
    slot, in order.  So ``builder(path, tag, "a", "b")(x, y)`` is
    ``lifter(path, tag)(Pair(Slot(x), Slot(y)))`` for a target
    ``Prod(Rec(), Rec())``, errors included.
    """
    return _compile_lift(path, tag, params)


def _compile_lift(path: ContainsPath, tag: str | None, params: tuple[str, ...] | None) -> Callable:
    # The lifter's code: build the payload from ``params``, if given, or else
    # take it as ``p``; check it; write the spine and the term.
    target = path_target(path)
    where = f"the {tag} case" if tag is not None else f"the target of path {path.steps!r}"
    # The payload's class, not its repr: a deep payload's repr recurses too far.
    names = dict(_LIFT_NAMES, tag=tag, does_not_inhabit=f" payload does not inhabit {where}")
    lines: list[str] = []
    if params is not None:
        lines.append(f"p = {_build(target, iter(params), lines)}")
    lines += [
        f"if not ({check_source(target, 'p', names)}):",
        "    raise ShapeError(type(p).__name__ + does_not_inhabit)",
    ]
    node = "p"
    for k, step in enumerate(path.steps):
        lines.append(f"n{k} = new({step.__name__}); set_{step.__name__}(n{k}, {node})")
        node = f"n{k}"
    lines.append(f"t = new(Term); set_node(t, {node})")
    if tag is not None:
        lines.append("set_view_payload(t, p); set_view_tag(t, tag)")
    lines.append("return t")
    if tag is not None:
        _bind(tag, path, target)
    return define("lift", "p" if params is None else ", ".join(params), lines, names)


def _build(f: FunctorDesc, slots, lines: list[str]) -> str:
    # Appends the lines that build a payload of ``f``, a product tree of
    # recursion slots, from the next of ``slots`` at each; returns its name.
    if isinstance(f, Prod):
        fst, snd = _build(f.left, slots, lines), _build(f.right, slots, lines)
        q = f"q{len(lines)}"
        lines.append(f"{q} = new(Pair); set_fst({q}, {fst}); set_snd({q}, {snd})")
        return q
    if not isinstance(f, Rec):
        raise ValueError(f"a builder's target is a product of recursion slots, not {f!r}")
    q = f"q{len(lines)}"
    lines.append(f"{q} = new(Slot); set_term({q}, {next(slots)})")
    return q


def _bind(tag: str, path: ContainsPath, target: FunctorDesc) -> None:
    # Equal tags with equal view payloads must mean equal nodes, and back.
    # A sum target is refused too: its payload is an injection, so its terms
    # would share nodes with those of a longer spine.
    if isinstance(target, Sum):
        raise ValueError(f"tag {tag!r} would name a sum, not a case")
    with _BINDING:  # two threads must not both bind
        for bound, at in _TAGS.items():
            if bound == tag and at != path:
                raise ValueError(f"tag {tag!r} is already bound to another path")
            if bound != tag and at.steps == path.steps:
                raise ValueError(f"the spine of tag {tag!r} already carries tag {bound!r}")
        _TAGS[tag] = path


def upcast(path: ContainsPath, p: Payload) -> Term:
    """Lift a payload of the path's target into a term over the root."""
    return lifter(path)(p)


def reader(path: ContainsPath) -> Callable[[Payload], Payload | None]:
    """``downcast`` along one path, as a function of a node.

    The target is found and its check compiled once, the first time a
    node's spine matches the path's.
    """
    steps = path.steps[::-1]  # the outermost injection first
    check = None

    def read(node: Payload) -> Payload | None:
        nonlocal check
        for step in steps:
            if not isinstance(node, step):
                return None
            node = node.payload
        if check is None:
            check = validator(path_target(path))
        return node if check(node) else None

    return read


def downcast(path: ContainsPath, t: Term) -> Payload | None:
    """Partial inverse of upcast: recover the payload, or None.

    Returns the unique p with upcast(path, p) == t when t's node carries
    exactly the injection spine the path dictates.
    """
    return reader(path)(t.node)
