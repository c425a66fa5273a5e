"""Fixtures shared by the test modules."""

import gc

import pytest


@pytest.fixture
def gc_off():
    """The cyclic collector off for one test, then the caller's setting back.

    A test that builds 100,000-level terms makes millions of records, none of
    them in a cycle, and the collector's passes over them would take most of
    its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
