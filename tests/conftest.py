"""Shared pytest fixtures and hypothesis strategies."""

from __future__ import annotations

import os
import random
import sys
import threading
import time

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.boolean.dnf import DNF


@pytest.fixture(autouse=True)
def _no_ambient_fault_plan():
    """Keep fault plans test-local.

    ``Engine(EngineConfig(fault_plan=...))`` installs the plan as
    process-ambient state; without this guard one test's plan would keep
    firing in every later test.
    """
    from repro.reliability import faults

    faults.clear()
    yield
    faults.clear()


@pytest.fixture(autouse=True)
def _no_leaked_threads():
    """Fail a test that leaves a thread it started running.

    Whatever starts a thread stops it: a front-end's workers exit on
    ``close()`` or when the front-end is collected, and
    ``LogStore.close()`` joins a running compaction.  Threads get a
    short grace period to finish.
    """
    before = set(threading.enumerate())
    yield
    started = [thread for thread in threading.enumerate()
               if thread not in before]
    deadline = time.monotonic() + 2.0
    for thread in started:
        thread.join(max(0.0, deadline - time.monotonic()))
    leaked = [thread.name for thread in started if thread.is_alive()]
    if leaked:
        pytest.fail(f"the test left threads running: {leaked}")


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator for tests."""
    return random.Random(12345)


@pytest.fixture
def example9_dnf() -> DNF:
    """The function of Example 9/11: (x0 & x1) | (x0 & x2)."""
    return DNF([[0, 1], [0, 2]])


@pytest.fixture
def example13_dnf() -> DNF:
    """The function of Example 13: (x0 & x1) | (x0 & x2) | x3."""
    return DNF([[0, 1], [0, 2], [3]])


