import dataclasses
import importlib
import pkgutil

import pytest

import fraglang


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

