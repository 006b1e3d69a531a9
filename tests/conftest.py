"""Shared pytest fixtures and hypothesis strategies."""

from __future__ import annotations

import glob
import os
import random
import signal
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


def _running_children():
    """PIDs of this process's running children, or ``None`` if unlisted.

    Each thread's ``/proc/self/task/TID/children`` lists the children it
    started, exited ones (state ``Z``, not yet reaped) included; those
    are dropped.  Where the kernel keeps no such file the answer is
    ``None``.
    """
    listings = glob.glob("/proc/self/task/*/children")
    if not listings:
        return None
    children = set()
    for listing in listings:
        try:
            with open(listing) as handle:
                children.update(int(pid) for pid in handle.read().split())
        except OSError:
            continue  # the thread has exited
    running = set()
    for pid in children:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # reaped since it was listed
        # The state follows the parenthesized command name.
        if stat[stat.rindex(")") + 2] != "Z":
            running.add(pid)
    return running


@pytest.fixture(autouse=True)
def _no_leaked_children():
    """Fail a test that leaves a child process it started running.

    Whoever starts a child process waits for it, or kills and reaps it on
    every path out.  Children get a short grace period to exit; a leaked
    one is killed, so it does not outlive the test run.  Skipped where the
    kernel does not list children.
    """
    before = _running_children()
    yield
    if before is None:
        return
    deadline = time.monotonic() + 2.0
    leaked = _running_children() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = _running_children() - before
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass  # it exited, or its owner reaped it, meanwhile
    if leaked:
        pytest.fail(f"the test left child processes running: "
                    f"{sorted(leaked)}")


@pytest.fixture
def running_children():
    """The child listing :func:`_no_leaked_children` checks, as a callable."""
    return _running_children


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


