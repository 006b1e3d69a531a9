"""Fault-injection tests for the concurrent serving front-end.

Every failure a production front-end meets must come back as a
*structured response* -- never a lost ticket, a hung client, or a dead
worker loop:

* malformed JSONL lines,
* an engine raising mid-computation,
* queue-full / per-client-budget admission rejections,
* deadlines expiring in the queue and deadlines exhausted mid-compute
  (graceful degradation to best-effort partial bounds).

The injection point is :meth:`Engine.attribute` (class-level
monkeypatch), which is exactly where the service's own worker-side
computation happens.
"""

import gc
import io
import json
import threading
import time
import weakref

import pytest

from repro import Database
from repro.engine import EngineConfig
from repro.engine.engine import Engine
from repro.engine.frontend import (
    FrontendConfig,
    ServingFrontend,
    serve_jsonl_concurrent,
)
from repro.engine.serve import AttributionService, serve_jsonl

pytestmark = pytest.mark.concurrency

QUERY = "Q(X) :- R(X), S(X, Y)"
QUERY2 = "Q(X) :- R(X), T(X, Y)"
#: Non-read-once (non-hierarchical) shape: compilation must Shannon-expand,
#: so a zero-step budget exhausts deterministically.
HARD = "Q() :- R(X), S(X, Y), T(Y)"


@pytest.fixture
def database():
    db = Database()
    for value in ("a", "b", "c"):
        db.add_fact("R", (value,))
    for row in (("a", 1), ("b", 1), ("c", 2)):
        db.add_fact("S", row)
        db.add_fact("T", row)
    return db


@pytest.fixture
def hard_database():
    """Bipartite join forcing Shannon expansion (no read-once form)."""
    db = Database()
    for i in range(4):
        db.add_fact("R", (i,))
        db.add_fact("T", (i,))
        for j in range(4):
            db.add_fact("S", (i, j))
    return db


class _Gate:
    """Patch Engine.attribute so the worker blocks until released --
    the deterministic way to hold a queue slot or expire a deadline."""

    def __init__(self, monkeypatch):
        self.started = threading.Event()
        self.release = threading.Event()
        original = Engine.attribute

        def gated(engine, query, database, **kwargs):
            self.started.set()
            assert self.release.wait(timeout=30), "gate never released"
            return original(engine, query, database, **kwargs)

        monkeypatch.setattr(Engine, "attribute", gated)


def _serve_frontend_jsonl(service, lines, output):
    return serve_jsonl_concurrent(service, lines, output,
                                  FrontendConfig(workers=3))


class TestMalformedInput:
    @pytest.mark.parametrize("serve_lines", [serve_jsonl,
                                             _serve_frontend_jsonl],
                             ids=["serial", "concurrent"])
    def test_bad_jsonl_lines_become_error_responses(self, database,
                                                    serve_lines):
        service = AttributionService(database)
        lines = [
            json.dumps({"op": "attribute", "query": QUERY, "id": 0}),
            "this is not json {",
            json.dumps({"op": "attribute", "query": QUERY2, "id": 1}),
            json.dumps({"op": "nonsense", "query": QUERY, "id": 2}),
            json.dumps({"op": "attribute", "query": QUERY, "id": 3}),
        ]
        output = io.StringIO()
        all_ok = serve_lines(service, lines, output)
        assert all_ok is False
        rows = [json.loads(line) for line in output.getvalue().splitlines()]
        assert len(rows) == 5  # one response per input line, in order
        assert [row.get("id") for row in rows] == [0, None, 1, 2, 3]
        assert [row["ok"] for row in rows] == [True, False, True, False,
                                               True]
        assert "error" in rows[1] and "error" in rows[3]
        report = service.stats()
        assert report["requests_served"] == 5
        assert report["request_errors"] == 2

    def test_invalid_request_rejected_at_admission(self, database):
        service = AttributionService(database)
        with ServingFrontend(service, FrontendConfig(workers=2)) as frontend:
            response = frontend.submit({"op": "attribute", "query": QUERY,
                                        "k": 3, "id": 9})
            assert response["ok"] is False
            assert response["id"] == 9
            assert "k" in response["error"]
            # The bad request never occupied a queue slot.
            assert frontend.stats()["rejected_invalid"] == 1
            assert frontend.stats()["submitted"] == 0


class TestEngineFaults:
    def test_mid_compute_raise_is_a_structured_response(self, database,
                                                        monkeypatch):
        service = AttributionService(database)
        broken = threading.Event()
        broken.set()
        original = Engine.attribute

        def flaky(engine, query, db, **kwargs):
            if broken.is_set():
                raise RuntimeError("injected mid-compute fault")
            return original(engine, query, db, **kwargs)

        monkeypatch.setattr(Engine, "attribute", flaky)
        frontend = ServingFrontend(service, FrontendConfig(workers=4))
        try:
            # A storm of identical requests while the engine is broken:
            # coalescing must not let the leader's failure strand the
            # followers or poison the single-flight map.
            tickets = [frontend.submit_nowait(
                {"op": "attribute", "query": QUERY, "id": i})
                for i in range(8)]
            responses = [ticket.result(timeout=30) for ticket in tickets]
            assert all(r["ok"] is False for r in responses)
            assert all("error" in r for r in responses)
            assert sorted(r["id"] for r in responses) == list(range(8))

            # Heal the engine: the same key must compute fresh (the
            # failed flight was not cached and not left in-flight).
            broken.clear()
            healed = frontend.submit({"op": "attribute", "query": QUERY})
            assert healed["ok"] is True
            assert healed["answers"]
        finally:
            frontend.close()


class TestAdmissionControl:
    def test_queue_full_rejects_with_structure(self, database, monkeypatch):
        service = AttributionService(database)
        gate = _Gate(monkeypatch)
        frontend = ServingFrontend(
            service, FrontendConfig(workers=1, max_queue=1))
        try:
            running = frontend.submit_nowait(
                {"op": "attribute", "query": QUERY, "id": "running"})
            assert gate.started.wait(timeout=30)  # worker busy
            queued = frontend.submit_nowait(
                {"op": "attribute", "query": QUERY, "id": "queued"})
            rejected = frontend.submit_nowait(
                {"op": "attribute", "query": QUERY, "id": "rejected"})
            # The overflow submission came back immediately as a dict,
            # not a ticket.
            assert isinstance(rejected, dict)
            assert rejected["ok"] is False
            assert rejected["rejected"] == "queue_full"
            assert rejected["id"] == "rejected"

            gate.release.set()
            assert running.result(timeout=30)["ok"] is True
            assert queued.result(timeout=30)["ok"] is True
            assert frontend.stats()["shed"]["queue_full"] == 1
            assert service.stats_counters.shed_requests == 1
        finally:
            frontend.close()

    def test_client_budget_rejects_only_the_hog(self, database,
                                                monkeypatch):
        service = AttributionService(database)
        gate = _Gate(monkeypatch)
        frontend = ServingFrontend(
            service, FrontendConfig(workers=1, max_queue=4,
                                    max_inflight_per_client=1))
        try:
            first = frontend.submit_nowait(
                {"op": "attribute", "query": QUERY, "client": "alice"})
            assert gate.started.wait(timeout=30)
            over_budget = frontend.submit_nowait(
                {"op": "attribute", "query": QUERY, "client": "alice",
                 "id": "second"})
            assert isinstance(over_budget, dict)
            assert over_budget["ok"] is False
            assert over_budget["rejected"] == "client_budget"
            # A different client is unaffected by alice's budget.
            other = frontend.submit_nowait(
                {"op": "attribute", "query": QUERY2, "client": "bob"})
            assert not isinstance(other, dict)

            gate.release.set()
            assert first.result(timeout=30)["ok"] is True
            assert other.result(timeout=30)["ok"] is True
            # Budget released with the response: alice may submit again.
            again = frontend.submit({"op": "attribute", "query": QUERY,
                                     "client": "alice"})
            assert again["ok"] is True
            assert frontend.stats()["shed"]["client_budget"] == 1
        finally:
            frontend.close()

    def test_deadline_expired_in_queue_is_shed(self, database, monkeypatch):
        service = AttributionService(database)
        gate = _Gate(monkeypatch)
        frontend = ServingFrontend(
            service, FrontendConfig(workers=1, max_queue=4))
        try:
            blocker = frontend.submit_nowait(
                {"op": "attribute", "query": QUERY})
            assert gate.started.wait(timeout=30)
            # 1ms budget, and the only worker is held until the deadline
            # has passed: by the time the request is dequeued it is gone.
            doomed = frontend.submit_nowait(
                {"op": "attribute", "query": QUERY2, "deadline_ms": 1,
                 "id": "late"})
            time.sleep(0.05)
            gate.release.set()
            assert blocker.result(timeout=30)["ok"] is True
            response = doomed.result(timeout=30)
            assert response["ok"] is False
            assert response["rejected"] == "deadline"
            assert response["id"] == "late"
            assert frontend.stats()["shed"]["deadline"] == 1
        finally:
            frontend.close()


class TestShutdownRaces:
    def test_submit_racing_close_is_settled_not_stranded(
            self, database, monkeypatch):
        """A submission that passes the closed-check but enqueues after
        close() drained the queue must still get a response.

        Regression: the request used to sit in the dead queue forever
        while its caller blocked waiting for its result.  The window is
        validation (query parsing) between the closed-check and the
        enqueue; holding the submission there while close() runs to
        completion makes the race deterministic.
        """
        service = AttributionService(database)
        frontend = ServingFrontend(service, FrontendConfig(workers=2))
        in_validate = threading.Event()
        proceed = threading.Event()
        original = AttributionService.validate_request

        def slow_validate(self, request):
            in_validate.set()
            assert proceed.wait(timeout=30)
            return original(self, request)

        monkeypatch.setattr(AttributionService, "validate_request",
                            slow_validate)
        outcome = {}

        def late_client():
            outcome["response"] = frontend.submit(
                {"op": "attribute", "query": QUERY, "id": "late"})

        thread = threading.Thread(target=late_client)
        thread.start()
        assert in_validate.wait(timeout=30)
        frontend.close()  # completes while the submission is mid-validation
        proceed.set()
        thread.join(timeout=30)
        assert not thread.is_alive(), "late submission stranded its caller"
        response = outcome["response"]
        assert response["ok"] is False
        assert response["rejected"] == "shutdown"
        assert response["id"] == "late"
        # Counted as what it is, and as a response the client received.
        assert frontend.stats()["shed"] == {
            "queue_full": 0, "client_budget": 0, "deadline": 0,
            "shutdown": 1}
        report = service.stats()
        assert report["requests_served"] == 1
        assert report["request_errors"] == 1
        assert report["shed_requests"] == 1

    def test_blocking_submitters_racing_close_never_hang(
            self, database, monkeypatch):
        """close() under a single worker and a full queue of blocking
        submitters must terminate, and every submitter must get an
        answer: the sole worker must exit although blocked submitters
        keep its queue full.
        """
        service = AttributionService(database)
        gate = _Gate(monkeypatch)
        frontend = ServingFrontend(
            service, FrontendConfig(workers=1, max_queue=1))
        results = []
        lock = threading.Lock()

        def client(index):
            try:
                response = frontend.submit(
                    {"op": "attribute", "query": QUERY, "id": index},
                    block=True)
            except RuntimeError:
                response = {"ok": False, "rejected": "closed"}
            with lock:
                results.append(response)

        first = frontend.submit_nowait({"op": "attribute", "query": QUERY2})
        assert gate.started.wait(timeout=30)  # the only worker is busy
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # let the submitters saturate the 1-slot queue
        closer = threading.Thread(target=frontend.close)
        closer.start()
        gate.release.set()
        closer.join(timeout=30)
        assert not closer.is_alive(), "close() hung"
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "a blocking submitter hung"
        assert first.result(timeout=30)["ok"] is True
        assert len(results) == 4  # every submitter got exactly one answer


class TestOwnership:
    def test_a_dropped_frontend_is_collected_with_its_workers(self,
                                                              database):
        """A front-end its caller never closed is collected, and its
        worker threads exit with it."""
        before = set(threading.enumerate())
        frontend = ServingFrontend(AttributionService(database),
                                   FrontendConfig(workers=3))
        futures = [frontend.submit_nowait({"op": "attribute",
                                           "query": query})
                   for query in (QUERY, QUERY2, QUERY)]
        assert all(future.result(timeout=30)["ok"] for future in futures)
        workers = set(threading.enumerate()) - before
        assert workers
        collected = weakref.ref(frontend)
        del frontend
        # A worker drops its reference to the request it ran just after
        # the response is delivered.
        deadline = time.monotonic() + 10
        while collected() is not None and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert collected() is None
        for thread in workers:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in workers)


class TestDeadlineDegradation:
    """A zero-step Shannon budget makes compilation exhaustion
    deterministic: with a deadline the service degrades to best-effort
    IchiBan bounds; without one the exhaustion is a structured error."""

    @pytest.fixture
    def strict_service(self, hard_database):
        return AttributionService(
            hard_database, EngineConfig(method="exact",
                                        max_shannon_steps=0))

    def test_deadline_miss_degrades_to_partial_bounds(self, strict_service):
        response = strict_service.submit({"op": "attribute", "query": HARD,
                                          "deadline_ms": 60000, "id": 5})
        assert response["ok"] is True
        assert response["degraded"] is True
        assert response["partial"] is True
        assert response["id"] == 5
        for answer in response["answers"]:
            for entry in answer["attributions"]:
                assert entry["lower"] <= entry["float"] <= entry["upper"]
        assert strict_service.stats()["requests_degraded"] == 1

    def test_without_deadline_budget_exhaustion_is_an_error(
            self, strict_service):
        response = strict_service.submit({"op": "attribute", "query": HARD,
                                          "id": 6})
        assert response["ok"] is False
        assert response["id"] == 6
        assert "error" in response

    def test_degradation_through_the_frontend(self, strict_service):
        with ServingFrontend(strict_service,
                             FrontendConfig(workers=2)) as frontend:
            response = frontend.submit({"op": "attribute", "query": HARD,
                                        "deadline_ms": 60000})
            assert response["ok"] is True
            assert response["degraded"] is True
            assert frontend.stats()["degraded"] == 1

    def test_rank_degrades_under_deadline(self, strict_service):
        response = strict_service.submit({"op": "rank", "query": HARD,
                                          "deadline_ms": 60000})
        assert response["ok"] is True
        assert response["degraded"] is True
        for answer in response["answers"]:
            for entry in answer["ranking"]:
                assert entry["lower"] <= entry["upper"]
