"""Containment paths into sum-structured descriptors and the lifts they induce.

A path is the tuple of injections (InL or InR) that selects one summand
of a root descriptor, innermost first; the empty path selects the root
itself.  Each path induces an injective lift from payloads of the selected
summand into terms over the root, with a partial inverse that peels the
injection spine back off.  The path (InR, InL), for one, targets
root.left.right and lifts a payload p to the node InL(InR(p)).
"""

from __future__ import annotations

from typing import Callable

from .functor import (
    FunctorDesc,
    InL,
    InR,
    Payload,
    ShapeError,
    Sum,
    Term,
    record,
    set_view_payload,
    set_view_tag,
    validator,
)


class MalformedPathError(Exception):
    """A path step met a descriptor that is not a sum."""


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
        desc = desc.left if step is InL else desc.right
    return desc


def lifter(path: ContainsPath, tag: str | None = None) -> Callable[[Payload], Term]:
    """``upcast`` along one path, with the target found and compiled once.

    Given a ``tag``, each new term records ``(tag, p)`` as its view (see
    ``lang.view``): the shape check just passed and the spine is the path's.
    A payload that fails the check is reported against the tag's case, and
    without a tag against the path.
    """
    check = validator(path_target(path))
    wraps = path.steps

    def lift(p: Payload) -> Term:
        if not check(p):
            # The payload's class, not its repr: a deep payload's repr recurses too far.
            where = f"the {tag} case" if tag is not None else f"the target of path {path.steps!r}"
            raise ShapeError(f"{type(p).__name__} payload does not inhabit {where}")
        node = p
        for wrap in wraps:
            node = wrap(node)
        t = Term(node)
        if tag is not None:
            set_view_payload(t, p)
            set_view_tag(t, tag)
        return t

    return lift


def upcast(path: ContainsPath, p: Payload) -> Term:
    """Lift a payload of the path's target into a term over the root."""
    return lifter(path)(p)


def downcast(path: ContainsPath, t: Term) -> Payload | None:
    """Partial inverse of upcast: recover the payload, or None.

    Returns the unique p with upcast(path, p) == t when t's node carries
    exactly the injection spine the path dictates.
    """
    node = t.node
    # The outermost injection corresponds to the last path step.
    for step in reversed(path.steps):
        if not isinstance(node, step):
            return None
        node = node.payload
    if not validator(path_target(path))(node):
        return None
    return node
