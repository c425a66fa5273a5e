import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import fraglang
from fraglang.functor import record


def _dataclasses():
    for info in pkgutil.iter_modules(fraglang.__path__):
        module = importlib.import_module(f"fraglang.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_every_dataclass_is_slotted():
    classes = set(_dataclasses())
    assert len(classes) >= 38  # the payloads, Term, both derivation families, the oracle
    for cls in classes:
        for klass in cls.__mro__[:-1]:
            assert "__slots__" in vars(klass), f"{klass.__qualname__} has no __slots__"
        # Every field is a dummy value: no dataclass here checks its fields.
        instance = cls(*[None] * len(dataclasses.fields(cls)))
        assert not hasattr(instance, "__dict__"), cls.__qualname__
        with pytest.raises(AttributeError):
            object.__setattr__(instance, "extra", 1)



def _records():
    return sorted(
        (cls for cls in set(_dataclasses()) if cls.__dataclass_params__.frozen),
        key=lambda cls: (cls.__module__, cls.__qualname__),
    )


def _dataclass_init(cls):
    # The __init__ dataclass generates for a twin of cls: same fields, types
    # and defaults.
    namespace = {"__annotations__": {f.name: f.type for f in dataclasses.fields(cls)}}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            namespace[f.name] = f.default
    twin = dataclasses.dataclass(frozen=True, slots=True)(type(cls.__name__, (), namespace))
    return twin.__init__


@pytest.mark.parametrize("cls", _records(), ids=lambda cls: cls.__qualname__)
def test_record_builds_through_its_slots(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    # Nothing is written through object.__setattr__, as dataclass's own __init__ does.
    assert "__dataclass_builtins_object__" not in cls.__init__.__code__.co_names
    assert inspect.signature(cls.__init__) == inspect.signature(_dataclass_init(cls))
    instance = cls(*range(len(names)))
    assert [getattr(instance, name) for name in names] == list(range(len(names)))
    assert instance == cls(**dict(zip(names, range(len(names)))))
    # A frozen dataclass refuses every assignment and deletion, of a field
    # or of any other name, with FrozenInstanceError.
    for name in [*names, "extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, name, -1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instance, name)
    for name in names:
        changed = dataclasses.replace(instance, **{name: -1})
        assert getattr(changed, name) == -1 and type(changed) is cls
        assert changed == cls(*[-1 if n == name else getattr(instance, n) for n in names])
    with pytest.raises(TypeError):
        cls(*range(len(names) + 1))
    with pytest.raises(TypeError):
        cls(extra=0)
    required = [f for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    if required:
        with pytest.raises(TypeError):
            cls(*range(len(required) - 1))


def test_record_refuses_what_its_init_does_not_write():
    with pytest.raises(TypeError):
        @record
        class Listed:
            items: list = dataclasses.field(default_factory=list)
    with pytest.raises(TypeError):
        @record
        class Checked:
            n: int

            def __post_init__(self):
                pass
