"""Chaos lane: seeded fault schedules against the full serving stack.

Every test installs a deterministic :class:`FaultPlan` (seeded, so a
failure replays bit-identically) and checks the *global* invariants the
reliability subsystem promises, rather than any single component:

* exactly one response per request, in request order, no matter what
  faults fire mid-request;
* every ``ok: true`` response is bit-identical to the fault-free run
  (exact ``Fraction`` values survive retries, fallbacks and
  recomputation);
* a store written under flush faults is never poisoned -- after the
  faults clear, everything it holds loads cleanly.

CI runs these in a dedicated ``-m chaos`` lane under pytest-timeout.
"""

import io
import json

import pytest

from repro import Database
from repro.engine import Engine, EngineConfig
from repro.engine.frontend import FrontendConfig, serve_jsonl_concurrent
from repro.engine.logstore import LogStore
from repro.engine.serve import AttributionService
from repro.reliability import faults

pytestmark = pytest.mark.chaos

QUERIES = (
    "Q(X) :- R(X), S(X, Y)",
    "Q(X) :- R(X), T(X, Y)",
    "Q(X, Y) :- S(X, Y), T(X, Y)",
)


@pytest.fixture
def database():
    db = Database()
    for value in ("a", "b", "c"):
        db.add_fact("R", (value,))
    for row in (("a", 1), ("b", 1), ("c", 2)):
        db.add_fact("S", row)
        db.add_fact("T", row)
    return db


def _requests(count=9):
    return [{"op": "attribute", "query": QUERIES[index % len(QUERIES)],
             "id": index} for index in range(count)]


def _baseline(database, requests):
    """Fault-free responses, keyed by request id."""
    service = AttributionService(database)
    return {request["id"]: service.submit(dict(request))
            for request in requests}


class TestServiceChaos:
    def test_batch_chaos_is_bit_identical_to_fault_free(self, database,
                                                        tmp_path):
        requests = _requests()
        baseline = _baseline(database, requests)
        plan = {
            "seed": 1234,
            "rules": [
                # A flaky disk underneath: reads and flushes fail half
                # the time; the wrapper retries or degrades to misses.
                {"site": "store.read", "errno": "EIO",
                 "probability": 0.5},
                {"site": "store.flush", "errno": "ENOSPC",
                 "probability": 0.5},
            ],
        }
        store_dir = str(tmp_path / "store")
        service = AttributionService(database, store=LogStore(store_dir))
        with faults.installed(plan):
            responses = [service.submit(dict(r)) for r in requests]
        assert len(responses) == len(requests)  # exactly one per request
        assert [r["id"] for r in responses] == [r["id"] for r in requests]
        for response in responses:
            assert response["ok"] is True
            assert response == baseline[response["id"]]  # bit-identical
        # The store took writes under injected flush faults; once they
        # clear it must hold only clean, loadable records (a failed
        # write is never served back).
        service.flush()
        service.store.close()
        with LogStore(store_dir) as reopened:
            loaded = Engine(EngineConfig()).load_cache(reopened)
            assert loaded >= 0  # every surviving record decoded cleanly

    def test_chaos_schedule_replays_deterministically(self, database):
        plan_spec = {
            "seed": 77,
            "rules": [{"site": "store.read", "errno": "EIO",
                       "probability": 0.5},
                      {"site": "serve.request", "action": "delay",
                       "delay_seconds": 0.0, "probability": 0.5}],
        }
        outcomes = []
        for _run in range(2):
            service = AttributionService(database)
            with faults.installed(plan_spec) as plan:
                for request in _requests(6):
                    service.submit(dict(request))
                outcomes.append((dict(plan.fired),
                                 {site: plan.calls(site)
                                  for site in ("store.read",
                                               "serve.request")}))
        assert outcomes[0] == outcomes[1]


class TestFrontendChaos:
    def test_every_request_gets_exactly_one_response(self, database,
                                                     tmp_path):
        requests = _requests(12)
        baseline = _baseline(database, requests)
        plan = {
            "seed": 99,
            "rules": [
                {"site": "serve.request", "error": "RuntimeError",
                 "probability": 0.5},
                {"site": "store.read", "errno": "EIO",
                 "probability": 0.4},
                {"site": "serve.request", "action": "delay",
                 "delay_seconds": 0.002, "probability": 0.3},
            ],
        }
        service = AttributionService(
            database, store=LogStore(str(tmp_path / "store")))
        lines = [json.dumps(request) for request in requests]
        output = io.StringIO()
        with faults.installed(plan):
            serve_jsonl_concurrent(service, lines, output,
                                   FrontendConfig(workers=3))
        service.store.close()
        rows = [json.loads(line) for line in output.getvalue().splitlines()]
        assert len(rows) == len(requests)
        # Responses come back in request order, one per request.
        assert [row["id"] for row in rows] == [r["id"] for r in requests]
        # A request that fails mid-flight comes back as an error
        # response (never a stranded ticket); everything that did
        # succeed is bit-identical to the fault-free run.
        for row in rows:
            if row["ok"]:
                assert row == baseline[row["id"]]
            else:
                assert "error" in row  # structured, never a lost ticket
        assert any(row["ok"] for row in rows)
        assert not all(row["ok"] for row in rows)  # the raise fired
