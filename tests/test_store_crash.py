"""Crash-injection tests for the log store (subprocess kill -9).

The contract under test is the flush ack point: once a writer's
``flush()`` returns (the child prints ``ACK n``), those records must
survive the writer dying without any shutdown path running -- including
dying mid-append of a later batch (a torn tail the reopen skips) and
dying mid-compaction (the old log must remain fully intact).  And no
matter where the crash landed, a reopened store must never serve a
corrupted ``Fraction``: every readable record is checksum-verified.

Runs in the ``concurrency`` CI lane (subprocesses + kill timing).
"""

import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from repro.engine.cache import CachedAttribution
from repro.engine.logstore import LogStore

pytestmark = pytest.mark.concurrency

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _crash_key(i):
    return ((3, ((0, 1), (1, 2))), "approximate",
            Fraction(i + 1, 999_983), None)


def _crash_value(i):
    # Big numerators force multi-digit exact arithmetic through the
    # codec, so a silent precision loss cannot hide.
    return Fraction(12345678901234567890 + i, 7)


# The writer child: flush per batch, print "ACK <batch>", then idle
# until killed.  Never closes the store -- the kill is the only exit.
_WRITER = r"""
import sys, time
from fractions import Fraction
from repro.engine.logstore import LogStore
from repro.engine.cache import CachedAttribution

path, batches, per = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = LogStore(path, auto_compact=False)
for b in range(batches):
    for j in range(per):
        i = b * per + j
        key = ((3, ((0, 1), (1, 2))), "approximate",
               Fraction(i + 1, 999983), None)
        value = CachedAttribution(
            method_used="approximate",
            values={0: Fraction(12345678901234567890 + i, 7)},
            bounds={0: (i, i + 1)}, converged=True)
        store.put(key, value)
    store.flush()
    print(f"ACK {b}", flush=True)
time.sleep(120)
"""

# The compacting child: build a garbage-heavy log, ack it, then print
# "COMPACTING" immediately before compact() so the parent can kill it
# mid-rewrite.
_COMPACTOR = r"""
import sys, time
from fractions import Fraction
from repro.engine.logstore import LogStore
from repro.engine.cache import CachedAttribution

path, entries = sys.argv[1], int(sys.argv[2])
store = LogStore(path, auto_compact=False)
for round in range(3):
    for i in range(entries):
        key = ((3, ((0, 1), (1, 2))), "approximate",
               Fraction(i + 1, 999983), None)
        value = CachedAttribution(
            method_used="approximate",
            values={0: Fraction(12345678901234567890 + i + round, 7)},
            bounds={0: (i + round, i + round + 1)}, converged=True)
        store.put(key, value)
    store.flush()
print("ACK all", flush=True)
print("COMPACTING", flush=True)
store.compact()
print("COMPACTED", flush=True)
time.sleep(120)
"""


def _spawn(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = _REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, *[str(a) for a in args]],
        stdout=subprocess.PIPE, env=env, text=True)


def _read_until(process, prefix, limit=50):
    """Read child stdout lines until one starts with ``prefix``."""
    lines = []
    for _ in range(limit):
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line.strip())
        if line.startswith(prefix):
            return lines
    raise AssertionError(
        f"child never printed {prefix!r}; got {lines!r}")


def _kill(process):
    process.kill()  # SIGKILL: no Python cleanup runs in the child
    process.wait(timeout=30)
    process.stdout.close()


class TestCrashRecovery:
    def test_every_acked_flush_survives_kill(self, tmp_path):
        per = 20
        child = _spawn(_WRITER, tmp_path, 5, per)
        try:
            _read_until(child, "ACK 2")  # three acked batches
        finally:
            _kill(child)
        with LogStore(str(tmp_path)) as store:
            for i in range(3 * per):
                loaded = store.get(_crash_key(i))
                assert loaded is not None, f"acked entry {i} lost"
                assert loaded.values[0] == _crash_value(i)
                assert isinstance(loaded.values[0], Fraction)

    def test_torn_tail_after_kill_is_skipped_and_repaired(self, tmp_path):
        per = 10
        child = _spawn(_WRITER, tmp_path, 3, per)
        try:
            _read_until(child, "ACK 2")
        finally:
            _kill(child)
        # Simulate the torn append the kill could have left: chop the
        # log mid-frame, then also flip a byte inside an earlier record.
        log_path = os.path.join(str(tmp_path), "store.log")
        size = os.path.getsize(log_path)
        with open(log_path, "r+b") as handle:
            handle.truncate(size - 11)
            handle.seek(size // 2)
            byte = handle.read(1)
            handle.seek(size // 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with LogStore(str(tmp_path)) as store:
            assert store.truncated_bytes > 0       # tail repaired
            assert store.corrupt_records >= 1      # bit flip detected
            served = 0
            for i in range(3 * per):
                loaded = store.get(_crash_key(i))
                if loaded is None:
                    continue  # the torn/corrupted records, nothing else
                served += 1
                # Never a corrupted Fraction: whatever is served is
                # exactly what was written.
                assert loaded.values[0] == _crash_value(i)
            assert 0 < served < 3 * per
            # The writer reopened cleanly: appends work again.
            store.put(_crash_key(1000),
                      CachedAttribution("exact", {0: Fraction(1, 3)},
                                        {0: (0, 1)}, True))
            store.flush()
        with LogStore(str(tmp_path)) as again:
            assert again.get(_crash_key(1000)) is not None

    def test_kill_mid_compaction_preserves_every_live_record(self, tmp_path):
        entries = 400
        child = _spawn(_COMPACTOR, tmp_path, entries)
        try:
            _read_until(child, "COMPACTING")
        finally:
            _kill(child)  # races compact(): before, during, or after
        with LogStore(str(tmp_path)) as store:
            # Whichever file won the race -- the garbage-heavy original
            # or the compacted replacement -- every live record is
            # intact with its newest value.
            assert len(store) == entries
            for i in range(entries):
                loaded = store.get(_crash_key(i))
                assert loaded is not None
                assert loaded.values[0] == \
                    Fraction(12345678901234567890 + i + 2, 7)
            # A crashed compaction's temp file is cleaned on writer open.
            leftovers = [name for name in os.listdir(str(tmp_path))
                         if name.startswith(".compact-")]
            assert leftovers == []

    def test_kill_at_random_point_never_corrupts_reopen(self, tmp_path):
        # No ack coordination at all: kill the writer at an arbitrary
        # moment mid-stream.  Reopen must succeed and serve only
        # verified records.
        child = _spawn(_WRITER, tmp_path, 200, 5)
        try:
            _read_until(child, "ACK 0")
            time.sleep(0.05)
        finally:
            _kill(child)
        with LogStore(str(tmp_path)) as store:
            count = 0
            for key, value in store.items():
                assert isinstance(value.values[0], Fraction)
                count += 1
            assert count >= 5  # at least the first acked batch
            assert count == len(store)
