import ast
import dataclasses
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from typing import get_args

import pytest

import fraglang
from fraglang.functor import UNIT, AtomVal, BaseSet, InL, InR, Pair, Slot
from fraglang.lang import (
    CASE_PATHS,
    FRAGMENTS,
    enat,
    lift_assign,
    lift_index,
    lift_nat,
    lift_nil,
    lift_none,
    lift_plus,
    lift_some,
    nil,
)
from fraglang.preservation import PreservationHooks
from fraglang.semantics import LITERAL, STEPS, ArrayStep, ComposedStep, SumStep, drive_step, validate_step
from fraglang.sexpr import elaborate_step
from fraglang.typecheck import RULES, ArrayTyping, ComposedTyping, SumTyping, infer, validate_typing

MODULES = sorted(info.name for info in pkgutil.iter_modules(fraglang.__path__))

# What importing a module alone loads of the package, where it is pinned:
# the package re-exports nothing, so a module loads only what it names.
LOADS = {
    "functor": {"functor"},
    "lang": {"functor", "subobject", "lang"},
}
# The monolithic twin stands apart from the modular machinery it is checked against.
NOT_LOADED = {"oracle": {"semantics", "preservation", "sexpr"}}


def _fresh(code):
    # What ``code`` prints, run in a fresh interpreter that imports this checkout.
    src = str(Path(fraglang.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def _loaded_alone(module):
    # The fraglang modules a fresh interpreter holds after importing ``module``.
    code = (
        f"import sys, fraglang.{module}; "
        "print(' '.join(m[9:] for m in sys.modules if m.startswith('fraglang.')))"
    )
    return set(_fresh(code))


def test_every_pinned_module_exists():
    assert set(LOADS) | set(NOT_LOADED) <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    loaded = _loaded_alone(module)
    assert module in loaded
    if module in LOADS:
        assert loaded == LOADS[module]
    assert not loaded & NOT_LOADED.get(module, set())


# Classes a dropped copy of the package must not outlive.  A module-level
# ``typing`` subscription over a fraglang class (``Union[...]``,
# ``Optional[...]``, ``typing.Callable[...]``) is cached process-wide and
# keeps its classes, and with them their modules, alive.
PINNED = [("functor", "Slot"), ("typecheck", "OkSum"), ("semantics", "ViaSum"), ("oracle", "ENat")]


def test_a_dropped_import_is_freed():
    code = f"""
import gc, importlib, sys, weakref
for module in {MODULES!r}:
    importlib.import_module("fraglang." + module)
refs = [weakref.ref(getattr(sys.modules["fraglang." + m], name)) for m, name in {PINNED!r}]
for name in [m for m in sys.modules if m == "fraglang" or m.startswith("fraglang.")]:
    del sys.modules[name]
importlib.import_module("fraglang.cli")
gc.collect()
print(" ".join(ref().__qualname__ for ref in refs if ref() is not None))
"""
    assert _fresh(code) == []


def test_derivations_hold_terms_not_payloads():
    # Proofs reach a fragment's payload only through view: no derivation
    # record, and no hook the preservation transformers assume, holds one.
    unions = (ComposedTyping, SumTyping, ArrayTyping, ComposedStep, SumStep, ArrayStep)
    rules = {rule for union in unions for rule in get_args(union) or (union,)}
    assert len(rules) == 15  # LiftWt*, Ok*, Via*, Step*, Lookup
    holders = [
        f"{cls.__name__}.{f.name}: {f.type}"
        for cls in sorted(rules | {PreservationHooks}, key=lambda cls: cls.__name__)
        for f in dataclasses.fields(cls)
        if "Payload" in str(f.type)
    ]
    assert holders == []


# The modules that may name an injection: the functor and path machinery,
# the language that declares each case's injections, and the generator of
# arbitrary payloads.  Every other module reads a node through its case.
INJECTORS = {"functor", "subobject", "lang", "generate"}


def _tree(module):
    return ast.parse(Path(fraglang.__path__[0], f"{module}.py").read_text())


def _imported_names(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)


def test_only_the_language_layers_import_injections():
    importers = sorted(m for m in MODULES if {"InL", "InR"} & set(_imported_names(m)))
    assert set(importers) <= INJECTORS, importers


# The functions that may hold a match statement: the descriptor compiler,
# which runs once per descriptor compiled and not per term, the generic fmap,
# which no layer calls, and a generator of arbitrary payloads for tests.
# Every per-term path dispatches by isinstance or on a viewed case instead,
# because a class pattern that fails costs several times an isinstance.
MATCH_SITES = {"functor": {"_compile", "fmap"}, "generate": {"random_payload"}}


def _match_sites(module):
    # The names of the functions that hold a match statement, or "<module>".
    sites = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Match):
                sites.add(where)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner)

    visit(_tree(module), "<module>")
    return sites


@pytest.mark.parametrize("module", MODULES)
def test_layers_dispatch_without_match(module):
    assert _match_sites(module) == MATCH_SITES.get(module, set())


def test_each_case_lifter_builds_its_spine():
    # The spines the acceptance gate's criterion 6 lists, one per case.
    a, i, e = nil(), enat(0), enat(1)
    unit = AtomVal(BaseSet.UNIT, UNIT)
    payloads = {
        "nat": AtomVal(BaseSet.NAT, 6),
        "some": Slot(e),
        "none": unit,
        "plus": Pair(Slot(a), Slot(i)),
        "assign": Pair(Slot(a), Pair(Slot(i), Slot(e))),
        "nil": unit,
        "index": Pair(Slot(a), Slot(i)),
    }
    spines = {
        "nat": InL(InL(InL(payloads["nat"]))),
        "some": InL(InL(InR(InL(payloads["some"])))),
        "none": InL(InL(InR(InR(unit)))),
        "plus": InL(InR(payloads["plus"])),
        "assign": InR(InL(InL(payloads["assign"]))),
        "nil": InR(InL(InR(unit))),
        "index": InR(InR(payloads["index"])),
    }
    cases = [case for fragment in FRAGMENTS.values() for case in fragment]
    assert cases == list(CASE_PATHS) == ["nat", "some", "none", "plus", "assign", "nil", "index"]
    lifters = [lift_nat, lift_some, lift_none, lift_plus, lift_assign, lift_nil, lift_index]
    for case, lift in zip(cases, lifters):
        t = lift(payloads[case])
        assert t.node == spines[case], case
        assert (t.view_tag, t.view_payload) == (case, payloads[case])


# The functions that write code from the row tables.  Every case a generated
# body tests comes from the rows (or, for the literal the driver's scan
# tests for, from semantics.LITERAL beside them), so no string in these
# names a case, alone or as a word of generated code.
GENERATORS = {
    "lang": {"read_view"},
    "preservation": {"_compile_preserve"},
    "semantics": {"layout", "_rebuilt", "_axiom_args", "scanned", "_compile_apply", "_compile_driver", "_compile_validate"},
    "sexpr": {"_compile_render", "_decoder", "_compile_parse", "_compile_elaborate"},
    "typecheck": {"_premise", "_compile_infer", "_compile_validate"},
}


@pytest.mark.parametrize("module", sorted(GENERATORS))
def test_generators_name_no_case(module):
    cases = {case for fragment in FRAGMENTS.values() for case in fragment}
    defined = {node.name: node for node in ast.walk(_tree(module)) if isinstance(node, ast.FunctionDef)}
    assert GENERATORS[module] <= set(defined)
    named = [
        (name, node.value)
        for name in sorted(GENERATORS[module])
        for node in ast.walk(defined[name])
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        if any(re.search(rf"\b{case}\b", node.value) for case in cases)
    ]
    assert named == []


def test_generated_bodies_test_the_rows_cases():
    def tested(fn):
        return {c for c in fn.__code__.co_consts if isinstance(c, str)} & {
            case for fragment in FRAGMENTS.values() for case in fragment
        }

    assert tested(drive_step) == tested(validate_step) == tested(elaborate_step) == set(STEPS) | {LITERAL}
    assert tested(infer) == tested(validate_typing) == set(RULES)
