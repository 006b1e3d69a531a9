"""Multi-process tests for the log store: one writer, many readers.

The concurrency contract: readers opened in ``ro`` mode (no lock) see a
*consistent prefix* of the writer's acked flushes at every instant --
never a hole, never a torn or partially applied batch, never a value
other than the one written -- while the advisory writer lock excludes a
second writer cross-process with a clear error.  Compactions happening
mid-stream are invisible to readers beyond a full rescan: the log file
is atomically replaced and ``refresh()`` follows the new inode.

Runs in the ``concurrency`` CI lane (real subprocesses).
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.engine.logstore import LogStore, StoreLockedError

pytestmark = pytest.mark.concurrency

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

# Writer: `per` entries per batch in strictly increasing index order,
# one flush (= ack) per batch, a compaction every 10 batches, "ACK n"
# per flush.  Sleeps when done so the parent controls teardown.
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
    if b and b % 10 == 0:
        store.compact()
    print(f"ACK {b}", flush=True)
store.close()
print("DONE", flush=True)
time.sleep(120)
"""

# Reader: loop over read-only snapshots until every index is visible,
# asserting the prefix property and exact values on each snapshot.
_READER = r"""
import sys, time
from fractions import Fraction
from repro.engine.logstore import LogStore

path, target = sys.argv[1], int(sys.argv[2])
store = LogStore(path, mode="ro")
deadline = time.time() + 90
top = -1
snapshots = 0
while time.time() < deadline and top < target - 1:
    indexes = []
    for key, value in store.items():
        i = key[2].numerator - 1
        expected = Fraction(12345678901234567890 + i, 7)
        if value.values[0] != expected:
            print(f"READER_FAIL wrong value at {i}", flush=True)
            sys.exit(1)
        indexes.append(i)
    indexes.sort()
    if indexes != list(range(len(indexes))):
        print(f"READER_FAIL non-prefix {indexes[:10]}...", flush=True)
        sys.exit(1)
    if indexes:
        top = indexes[-1]
    snapshots += 1
if top < target - 1:
    print(f"READER_FAIL timeout at {top}", flush=True)
    sys.exit(1)
print(f"READER_OK {top} {snapshots}", flush=True)
"""

# Second-writer probe: report which role the lock allows.
_SECOND_WRITER = r"""
import sys
from repro.engine.logstore import LogStore, StoreLockedError

path = sys.argv[1]
try:
    store = LogStore(path)
    print("ACQUIRED", flush=True)
except StoreLockedError as error:
    assert "writer lock" in str(error)
    print("LOCKED", flush=True)
follower = LogStore(path, mode="auto")
print(f"AUTO {follower.mode}", flush=True)
"""


def _spawn(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = _REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, *[str(a) for a in args]],
        stdout=subprocess.PIPE, env=env, text=True)


def _read_until(process, prefix, limit=1000):
    lines = []
    for _ in range(limit):
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line.strip())
        if line.startswith(prefix):
            return lines
    raise AssertionError(f"child never printed {prefix!r}; got "
                         f"{lines[-5:]!r}")


class TestWriterReaderConcurrency:
    def test_readers_see_consistent_prefix_under_live_writes(self, tmp_path):
        batches, per, readers = 30, 10, 3
        processes = [_spawn(_WRITER, tmp_path, batches, per)]
        writer = processes[0]
        try:
            _read_until(writer, "ACK 0")
            for _ in range(readers):
                processes.append(_spawn(_READER, tmp_path, batches * per))
            _read_until(writer, "DONE")
            for reader in processes[1:]:
                output, _ = reader.communicate(timeout=90)
                assert reader.returncode == 0, output
                assert "READER_OK" in output, output
                # Each reader converged on the full stream, through
                # however many mid-stream compactions it raced.
                assert f"READER_OK {batches * per - 1}" in output, output
        finally:
            # The writer sleeps once done; a reader still polls when a
            # wait above failed.  Neither outlives the test.
            for process in processes:
                process.kill()
                process.wait(timeout=30)
                process.stdout.close()

    def test_second_writer_is_excluded_cross_process(self, tmp_path):
        with LogStore(str(tmp_path)) as _holder:
            probe = _spawn(_SECOND_WRITER, tmp_path)
            output, _ = probe.communicate(timeout=60)
            assert probe.returncode == 0, output
            assert "LOCKED" in output        # rw open failed loudly
            assert "AUTO ro" in output       # auto degraded to reader
        # Lock released with the handle: now the probe acquires it.
        probe = _spawn(_SECOND_WRITER, tmp_path)
        output, _ = probe.communicate(timeout=60)
        assert probe.returncode == 0, output
        assert "ACQUIRED" in output

    def test_in_process_second_writer_also_excluded(self, tmp_path):
        # flock conflicts apply between file descriptors, so even two
        # handles in one process exclude each other -- a config bug
        # (two engines opening the same root) fails fast, not silently.
        with LogStore(str(tmp_path)):
            with pytest.raises(StoreLockedError):
                LogStore(str(tmp_path))
