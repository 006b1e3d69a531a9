"""Transient-I/O recovery for the persistent store tiers.

The persistent store is an optimization, so infrastructure failures
must degrade it, never the requests: this file drives real ``ENOSPC``/
``EIO`` faults (via :mod:`repro.reliability.faults`) into
:class:`LogStore` and the legacy :class:`DiskStore` reader and pins the
recovery contract at each layer:

* a failed flush never loses acked data, and a retry after the fault
  clears persists everything that was pending;
* the :class:`ResilientStore` wrapper retries transient reads, degrades
  terminal failures to cache misses, and trips its circuit breaker into
  memory-only operation under a persistent outage;
* the serving layer keeps answering (memory-only) with the breaker
  open, and surfaces a *locked* store as a structured
  ``{"ok": false, "degraded": true}`` response;
* ``repro serve`` / ``repro cache`` exit with code 2 and one structured
  JSON line -- not a traceback -- when the store cannot be opened.
"""

import io
import json

import pytest

from repro import Database
from repro.cli import run as cli_run
from repro.engine import EngineConfig
from repro.engine.logstore import LogStore, StoreLockedError
from repro.engine.serve import AttributionService
from repro.engine.store import DiskStore, encode_entry, encode_key
from repro.reliability import (
    CircuitBreaker,
    FaultInjected,
    ResilientStore,
    RetryPolicy,
    TransientStoreError,
    faults,
)
from repro.reliability.breaker import OPEN

from tests.test_store import _entry, _key, _write_shard


def _fast_wrap(store, *, attempts=3, threshold=5, counters=None):
    """A ResilientStore that never sleeps (tests pin behaviour, not time)."""
    sink = counters.append if counters is not None else None
    return ResilientStore(
        store,
        retry=RetryPolicy(attempts=attempts, base_delay=0.0, jitter=0.0),
        breaker=CircuitBreaker(failure_threshold=threshold),
        on_counter=(lambda **deltas: sink(deltas)) if sink else None)


class TestDiskStoreTransients:
    def test_read_fault_degrades_to_miss_then_recovers(self, tmp_path):
        key, entry = _key(), _entry()
        _write_shard(tmp_path, "shard-0000.json",
                     {encode_key(key): (1, encode_entry(entry))})
        store = _fast_wrap(DiskStore(str(tmp_path)), attempts=1)
        with faults.installed({"rules": [{"site": "store.read",
                                          "errno": "EIO", "times": 1}]}):
            assert store.get(key) is None   # degraded to a miss, no raise
            assert store.get(key) == entry  # fault cleared: served again


class TestLogStoreTransients:
    def test_enospc_on_flush_recovers_on_retry(self, tmp_path):
        counters = []
        store = _fast_wrap(LogStore(str(tmp_path)), counters=counters)
        key, entry = _key(), _entry()
        store.put(key, entry)
        with faults.installed({"rules": [{"site": "store.flush",
                                          "errno": "ENOSPC", "times": 1}]}):
            store.flush()  # first attempt hits ENOSPC, the retry lands
        assert {"store_retries": 1} in counters
        store.close()
        with LogStore(str(tmp_path)) as reopened:
            assert reopened.get(key) == entry

    def test_failed_append_preserves_acked_data_and_pending(self, tmp_path):
        store = LogStore(str(tmp_path))
        first_key, second_key = _key(), _key(clauses=((0, 2), (1, 2)))
        store.put(first_key, _entry())
        store.flush()  # first entry is now acked (durable)
        store.put(second_key, _entry(converged=False))
        with faults.installed({"rules": [{"site": "store.flush",
                                          "errno": "EIO", "times": 1}]}):
            with pytest.raises(TransientStoreError) as excinfo:
                store.flush()
            assert isinstance(excinfo.value.__cause__, FaultInjected)
            # Nothing was lost: the acked entry still reads, the failed
            # write stays pending (read-your-writes).
            assert store.get(first_key) == _entry()
            assert store.get(second_key) == _entry(converged=False)
        store.flush()  # fault cleared: the pending entry persists now
        store.close()
        with LogStore(str(tmp_path)) as reopened:
            assert reopened.get(first_key) == _entry()
            assert reopened.get(second_key) == _entry(converged=False)

    def test_injected_lock_error_propagates_unwrapped(self, tmp_path):
        store = LogStore(str(tmp_path))
        with faults.installed({"rules": [{"site": "store.read",
                                          "error": "StoreLockedError",
                                          "times": 1}]}):
            with pytest.raises(StoreLockedError):
                store.get(_key())
        store.close()

    def test_persistent_flush_failure_recovers_through_the_wrapper(
            self, tmp_path):
        counters = []
        store = _fast_wrap(LogStore(str(tmp_path)), attempts=2,
                           counters=counters)
        key, entry = _key(), _entry()
        store.put(key, entry)
        with faults.installed({"rules": [{"site": "store.flush",
                                          "errno": "ENOSPC",
                                          "times": 3}]}):
            store.flush()  # both attempts fail; swallowed, entry pending
            assert store.get(key) == entry  # still served from the buffer
            store.flush()  # 3rd fault burns, the retry persists everything
        assert counters.count({"store_retries": 1}) == 2
        store.close()
        with LogStore(str(tmp_path)) as reopened:
            assert reopened.get(key) == entry


QUERY = "Q(X) :- R(X), S(X, Y)"
QUERY2 = "Q(X) :- R(X), T(X, Y)"
QUERY3 = "Q(X, Y) :- S(X, Y)"


@pytest.fixture
def database():
    db = Database()
    for value in ("a", "b", "c"):
        db.add_fact("R", (value,))
    for row in (("a", 1), ("b", 1), ("c", 2)):
        db.add_fact("S", row)
        db.add_fact("T", row)
    return db


class TestServingDegradation:
    def test_breaker_trips_to_memory_only_serving(self, database, tmp_path):
        service = AttributionService(
            database,
            EngineConfig(store_retries=0, breaker_threshold=2),
            store=LogStore(str(tmp_path)))
        # A dead disk fails everything: reads and flushes alike.  (Reads
        # alone never trip the breaker here, because each request's
        # successful flush resets the *consecutive* failure count.)
        with faults.installed({"rules": [{"site": "store.read",
                                          "errno": "EIO"},
                                         {"site": "store.flush",
                                          "errno": "EIO"}]}):
            responses = [service.submit({"op": "attribute", "query": query,
                                         "id": index})
                         for index, query in enumerate(
                             (QUERY, QUERY2, QUERY3))]
        # Every request computed fine without the persistent tier...
        assert all(response["ok"] is True for response in responses)
        # ...and the outage was accounted: breaker open, degradation
        # counted, store I/O now skipped outright.
        assert service.store.breaker.state == OPEN
        report = service.stats()
        assert report["reliability"]["store_degraded"] == 1

    def test_locked_store_read_is_a_structured_degraded_response(
            self, database, tmp_path):
        service = AttributionService(database,
                                     store=LogStore(str(tmp_path)))
        with faults.installed({"rules": [{"site": "store.read",
                                          "error": "StoreLockedError",
                                          "times": 1}]}):
            response = service.submit({"op": "attribute", "query": QUERY,
                                       "id": 3})
        assert response["ok"] is False
        assert response["degraded"] is True
        assert "StoreLockedError" in response["error"]
        assert response["id"] == 3
        assert service.stats()["requests_degraded"] == 1
        # The fault was one-shot: the next request serves normally.
        healed = service.submit({"op": "attribute", "query": QUERY})
        assert healed["ok"] is True


class TestCliStoreFailures:
    """Unopenable stores exit with code 2 and one JSON line, no traceback."""

    @pytest.fixture
    def serve_inputs(self, tmp_path):
        facts = tmp_path / "r.csv"
        facts.write_text("a\nb\n", encoding="utf-8")
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"op": "attribute", "query": "Q(X) :- R(X)"}) + "\n",
            encoding="utf-8")
        return facts, requests

    def test_cache_actions_on_a_locked_store_exit_2(self, tmp_path):
        store_dir = str(tmp_path / "store")
        holder = LogStore(store_dir)
        try:
            for argv in (["cache", "load", "--store", store_dir],
                         ["cache", "compact", "--store", store_dir]):
                output = io.StringIO()
                assert cli_run(argv, output=output) == 2
                row = json.loads(output.getvalue())
                assert row["ok"] is False
                assert "StoreLockedError" in row["error"]
                assert row["store"] == store_dir
        finally:
            holder.close()

    def test_serve_on_a_locked_store_exits_2(self, tmp_path, serve_inputs,
                                             capsys):
        facts, requests = serve_inputs
        store_dir = str(tmp_path / "store")
        holder = LogStore(store_dir)
        try:
            output = io.StringIO()
            code = cli_run(["serve", "--facts", f"R={facts}",
                            "--requests", str(requests),
                            "--store", store_dir],
                           output=output)
        finally:
            holder.close()
        assert code == 2
        assert output.getvalue() == ""  # no half-served response stream
        error_lines = [line for line
                       in capsys.readouterr().err.splitlines()
                       if line.startswith("{")]
        assert len(error_lines) == 1
        row = json.loads(error_lines[0])
        assert row["ok"] is False and "StoreLockedError" in row["error"]

    def test_serve_reliability_flags_are_validated(self, serve_inputs):
        facts, requests = serve_inputs
        with pytest.raises(SystemExit):
            cli_run(["serve", "--facts", f"R={facts}",
                     "--requests", str(requests), "--store-retries", "-1"],
                    output=io.StringIO())

    def test_serve_accepts_the_reliability_flags(self, tmp_path,
                                                 serve_inputs):
        facts, requests = serve_inputs
        output = io.StringIO()
        code = cli_run(["serve", "--facts", f"R={facts}",
                        "--requests", str(requests),
                        "--store", str(tmp_path / "store"),
                        "--store-retries", "0",
                        "--breaker-threshold", "0"],
                       output=output)
        assert code == 0
        response = json.loads(output.getvalue().splitlines()[0])
        assert response["ok"] is True
