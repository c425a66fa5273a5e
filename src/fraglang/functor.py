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


def record(cls: _C) -> _C:
    """``dataclass(frozen=True, slots=True)``, built through its slots.

    The ``__init__`` a frozen dataclass generates writes each field with
    ``object.__setattr__``, which looks the field up by name and costs about
    twice what writing through the field's slot descriptor does.  The
    replacement writes through the descriptors and keeps the generated
    signature, defaults and annotations; ``==``, ``hash``, ``repr`` and
    ``__match_args__`` are the dataclass's own.  Assignment and deletion
    raise ``FrozenInstanceError``, as a frozen dataclass's do.
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
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names) or "\n    pass"
    exec(f"def __init__(self{''.join(', ' + name for name in names)}):{body}", setters)
    init = setters["__init__"]
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


# Writers for the view slots, which are no fields, so no __init__ fills them.
set_view_tag = _ViewSlots.view_tag.__set__
set_view_payload = _ViewSlots.view_payload.__set__


def is_natural(value: Any) -> bool:
    # bool is an int subclass; keep it out of the naturals.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


Validator = Callable[[Any], bool]


def _compile(f: Any, check_slot: Callable[[Any], bool] | None) -> Validator:
    # One closure per descriptor node; the payload walk below it does no
    # descriptor matching.  A value that is no descriptor accepts nothing.
    match f:
        case Rec():
            if check_slot is None:
                return lambda p: isinstance(p, Slot) and isinstance(p.term, Term)
            return lambda p: isinstance(p, Slot) and check_slot(p.term)
        case Atom(base) if base is BaseSet.NAT:
            return lambda p: isinstance(p, AtomVal) and p.set is base and is_natural(p.value)
        case Atom(base):
            return lambda p: isinstance(p, AtomVal) and p.set is base and p.value == UNIT
        case Sum(left, right):
            left_ok, right_ok = _compile(left, check_slot), _compile(right, check_slot)

            def check_sum(p: Any) -> bool:
                if isinstance(p, InL):
                    return left_ok(p.payload)
                if isinstance(p, InR):
                    return right_ok(p.payload)
                return False

            return check_sum
        case Prod(left, right):
            left_ok, right_ok = _compile(left, check_slot), _compile(right, check_slot)
            return lambda p: isinstance(p, Pair) and left_ok(p.fst) and right_ok(p.snd)
    return lambda p: False


_VALIDATORS: dict[FunctorDesc, Validator] = {}


def validator(f: FunctorDesc) -> Validator:
    """``f``'s shape check as a closure, compiled once per descriptor.

    ``validator(f)(p) == validate_payload(f, p)`` for every payload.
    """
    try:
        return _VALIDATORS[f]
    except KeyError:
        check = _VALIDATORS[f] = _compile(f, None)
        return check
    except TypeError:  # an unhashable non-descriptor: nothing to share
        return _compile(f, None)


def validate_payload(f: FunctorDesc, p: Payload) -> bool:
    """Decide whether ``p`` is a value of ``f``'s interpretation.

    Total: any (descriptor, payload) pair is accepted or rejected, never an
    error.  A recursion slot may hold any Term; it is checked one layer deep.
    """
    return validator(f)(p)


def valid_term(f: FunctorDesc, t: Any) -> bool:
    """Deep validity: every layer of ``t`` inhabits ``f``."""

    def deep(sub: Any) -> bool:
        return isinstance(sub, Term) and check(sub.node)

    check = _compile(f, deep)
    return deep(t)


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
