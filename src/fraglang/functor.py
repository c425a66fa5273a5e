"""Polynomial functor descriptors, their payloads, and fixed-point terms.

A descriptor names one layer of tree structure: a recursion slot, an atom
drawn from a base set, or a sum or product of smaller descriptors.  A
payload is a value of that layer; a term ties the knot by filling every
recursion slot with another term.  Everything here is immutable and
compared structurally.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from typing import Any, Callable, TypeVar


class ShapeError(Exception):
    """A payload was used against a descriptor it does not inhabit."""


_C = TypeVar("_C", bound=type)


def define(name: str, params: str, lines: list[str], names: dict[str, Any]) -> Callable:
    """The function ``def name(params)`` whose body is ``lines``, with ``names`` as its globals."""
    body = "".join("\n    " + line for line in lines) or "\n    pass"
    exec(f"def {name}({params}):{body}", names)
    return names[name]


def record(cls: _C) -> _C:
    """``dataclass(frozen=True, slots=True)``, built through its slots.

    The ``__init__`` a frozen dataclass generates writes each field with
    ``object.__setattr__``, which looks the field up by name and costs about
    twice what writing through the field's slot descriptor does.  The
    replacement writes through the descriptors and keeps the generated
    signature, defaults and annotations.  ``hash``, ``repr`` and
    ``__match_args__`` are the dataclass's own, and so is ``==`` unless the
    class defines its own: ``Term``'s reads the views its lifters record.
    Assignment and deletion raise ``FrozenInstanceError``, as a frozen
    dataclass's do.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    # What the generated __init__ would do beyond storing its arguments.
    if hasattr(cls, "__post_init__") or any(
        not f.init or f.kw_only or f.default_factory is not MISSING for f in fields(cls)
    ):
        raise TypeError(f"{cls.__qualname__}: a record's fields are positional, with plain defaults")
    names = [f.name for f in fields(cls)]
    generated = cls.__init__
    setters = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    params = "".join(", " + name for name in names)
    init = define("__init__", "self" + params, [f"_set_{name}(self, {name})" for name in names], setters)
    init.__qualname__ = generated.__qualname__
    init.__module__ = generated.__module__
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = generated.__annotations__
    cls.__init__ = init
    # The generated __setattr__ and __delattr__ name the class dataclass
    # replaced to add __slots__ (CPython 3.10, 3.11), so for a name that is
    # no field they raise TypeError from super(); these name the new class.
    frozen = frozenset(names)

    def __setattr__(self, name, value):
        if type(self) is cls or name in frozen:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in frozen:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


class BaseSet(Enum):
    """The closed universe of atom sets: naturals and the unit set."""

    NAT = "nat"
    UNIT = "unit"


@record
class Unit:
    """The single inhabitant of the unit set."""

    def __repr__(self) -> str:
        return "unit"


UNIT = Unit()


@record
class Rec:
    """Recursion slot: interpreted as the argument type itself."""


@record
class Atom:
    """Constant layer holding a value of a base set."""

    set: BaseSet


@record
class Sum:
    """Disjoint sum of two layers (a tagged choice)."""

    left: "FunctorDesc"
    right: "FunctorDesc"


@record
class Prod:
    """Cartesian product of two layers (both present)."""

    left: "FunctorDesc"
    right: "FunctorDesc"


FunctorDesc = Rec | Atom | Sum | Prod


@record
class Slot:
    """A filled recursion slot.

    Holds a Term in ordinary use; during a fold the slot temporarily
    carries the recursive result instead.
    """

    term: Any


@record
class AtomVal:
    """An atom tagged with its base set: a natural or the unit value."""

    set: BaseSet
    value: Any


@record
class InL:
    """Left injection into a sum layer."""

    payload: "Payload"


@record
class InR:
    """Right injection into a sum layer."""

    payload: "Payload"


@record
class Pair:
    """Both components of a product layer."""

    fst: "Payload"
    snd: "Payload"


Payload = Slot | AtomVal | InL | InR | Pair


class _ViewSlots:
    """Room on every Term for the view its lifter recorded (``lang.view``).

    Declared slots, not dataclass fields, so ``==``, ``hash``, ``repr`` and
    ``dataclasses.fields`` never see them.  They are set once, when a tagged
    lifter builds the term, and never written after; a term built any other
    way leaves them unset.
    """

    __slots__ = ("view_tag", "view_payload")


@record
class Term(_ViewSlots):
    """One unrolling of the fixed point: a payload whose slots hold terms."""

    node: Payload

    def __eq__(self, other: object) -> bool:
        # The dataclass's rule, equal nodes, read off the recorded views
        # where both terms carry one: a tag names one spine
        # (``subobject.lifter``), so two lifted terms have equal nodes exactly
        # when their tags and their view payloads are equal, and comparing
        # those skips the spine.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        try:
            tag, other_tag = self.view_tag, other.view_tag
        except AttributeError:
            return (self.node,) == (other.node,)
        return tag == other_tag and self.view_payload == other.view_payload


# Writers for the view slots, which are no fields, so no __init__ fills them.
set_view_tag = _ViewSlots.view_tag.__set__
set_view_payload = _ViewSlots.view_payload.__set__


def is_natural(value: Any) -> bool:
    # bool is an int subclass; keep it out of the naturals.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


Validator = Callable[[Any], bool]

# What the compiled checks refer to, by the names they use.
_CHECK_NAMES = {cls.__name__: cls for cls in (Slot, AtomVal, InL, InR, Pair, Term)} | {"UNIT": UNIT}


def _compile(f: Any, p: str, slot: str, names: dict[str, Any]) -> str:
    # One expression over the payload source ``p`` that is true exactly when
    # the payload inhabits ``f``; ``slot`` checks a slot's term, put for its
    # ``{}``.  ``names`` receives the atom sets it names.  The walk does no
    # descriptor matching; a value that is no descriptor accepts nothing.
    match f:
        case Rec():
            return f"isinstance({p}, Slot) and {slot.format(p + '.term')}"
        case Atom(base):
            names[f"_set{id(base)}"] = base
            head = f"isinstance({p}, AtomVal) and {p}.set is _set{id(base)}"
            v = p + ".value"
            if base is BaseSet.NAT:  # is_natural, inline
                return f"{head} and isinstance({v}, int) and not isinstance({v}, bool) and {v} >= 0"
            return f"{head} and {v} == UNIT"
        case Sum(left, right):
            q = p + ".payload"
            left_ok, right_ok = _compile(left, q, slot, names), _compile(right, q, slot, names)
            return f"(({left_ok}) if isinstance({p}, InL) else isinstance({p}, InR) and ({right_ok}))"
        case Prod(left, right):
            left_ok = _compile(left, p + ".fst", slot, names)
            return f"isinstance({p}, Pair) and ({left_ok}) and ({_compile(right, p + '.snd', slot, names)})"
    return "False"


def check_source(f: FunctorDesc, p: str, names: dict[str, Any]) -> str:
    """``validator(f)`` as one expression over the payload source ``p``.

    The names the expression uses are added to ``names``.
    """
    names |= _CHECK_NAMES
    return _compile(f, p, "isinstance({}, Term)", names)


_CHECKS: dict[tuple[FunctorDesc, bool], Validator] = {}
# The same checks by the identity of a descriptor they were asked for, one
# table a depth, each entry keeping its descriptor alive so its id stays its
# own: a descriptor's hash walks all of it.
_SEEN: tuple[dict[int, tuple[FunctorDesc, Validator]], ...] = ({}, {})


def _check(f: FunctorDesc, deep: bool) -> Validator:
    # One function per descriptor, compiled from one expression: of a payload,
    # or, deep, of a term, calling itself on the term in every slot.
    seen = _SEEN[deep].get(id(f))
    if seen is not None:
        return seen[1]
    try:
        check = _CHECKS[f, deep]
    except KeyError:
        check = _CHECKS[f, deep] = _define_check(f, deep)
    except TypeError:  # an unhashable non-descriptor: nothing to share
        return _define_check(f, deep)
    _SEEN[deep][id(f)] = f, check
    return check


def _define_check(f: FunctorDesc, deep: bool) -> Validator:
    names = dict(_CHECK_NAMES)
    if deep:
        expr = f"isinstance(p, Term) and ({_compile(f, 'p.node', 'check({})', names)})"
    else:
        expr = check_source(f, "p", names)
    return define("check", "p", [f"return {expr}"], names)


def validator(f: FunctorDesc) -> Validator:
    """``f``'s shape check as one expression, compiled once per descriptor.

    ``validator(f)(p) == validate_payload(f, p)`` for every payload.
    """
    return _check(f, False)


def validate_payload(f: FunctorDesc, p: Payload) -> bool:
    """Decide whether ``p`` is a value of ``f``'s interpretation.

    Total: any (descriptor, payload) pair is accepted or rejected, never an
    error.  A recursion slot may hold any Term; it is checked one layer deep.
    """
    return validator(f)(p)


def valid_term(f: FunctorDesc, t: Any) -> bool:
    """Deep validity: every layer of ``t`` inhabits ``f``."""
    return _check(f, True)(t)


def fmap(f: FunctorDesc, fn: Callable[[Any], Any], p: Payload) -> Payload:
    """Apply ``fn`` to every slot of ``p``, leaving structure and atoms alone.

    Raises ShapeError when ``p`` does not inhabit ``f``.
    """
    match (f, p):
        case (Rec(), Slot(t)):
            return Slot(fn(t))
        case (Atom(), AtomVal()) if validator(f)(p):
            return p
        case (Sum(left, _), InL(q)):
            return InL(fmap(left, fn, q))
        case (Sum(_, right), InR(q)):
            return InR(fmap(right, fn, q))
        case (Prod(left, right), Pair(a, b)):
            return Pair(fmap(left, fn, a), fmap(right, fn, b))
    # The payload's class, not its repr: a deep payload's repr recurses too far.
    raise ShapeError(f"{type(p).__name__} payload does not inhabit descriptor {f!r}")


def fold(f: FunctorDesc, algebra: Callable[[Payload], Any], t: Term) -> Any:
    """Collapse ``t`` bottom-up with a one-layer algebra.

    The algebra sees the node payload with every slot already replaced by
    the recursive result for the subterm it held.
    """
    if not isinstance(t, Term):
        raise ShapeError(f"fold expects a Term, got {type(t).__name__}")
    return algebra(fmap(f, lambda sub: fold(f, algebra, sub), t.node))
