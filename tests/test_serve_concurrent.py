"""Concurrency tests for the serving front-end (repro.engine.frontend)
and the engine's single-flight compute stage behind it.

The load-bearing claims, each pinned here:

* **Correctness under concurrency**: N client threads hammering one
  front-end get bit-identical ``Fraction`` values to serial execution --
  single-flight and micro-batching are pure compute-sharing, never
  approximations.
* **Exactly-once computation**: overlapping isomorphic workloads compile
  each distinct canonical lineage once, whether the duplicates arrive
  through front-end workers, micro-batches or plain library threads;
  the sharing shows up in the ``coalesced_requests`` counter.
* **No lost or duplicated responses**: every submitted request produces
  exactly one response, routed back via its ``id``.

The workloads mix *textually different but WL-isomorphic* queries
(same lineage shape over differently-named relations) to prove that the
single-flight key is canonical, not textual.
"""

import io
import itertools
import json
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

import repro.engine.engine as engine_module
import repro.engine.serve as serve_module
from repro import Database
from repro.engine.engine import Engine
from repro.engine.frontend import (
    FrontendConfig,
    ServingFrontend,
    serve_jsonl_concurrent,
)
from repro.engine.serve import AttributionService

pytestmark = pytest.mark.concurrency


@pytest.fixture
def database():
    """Two isomorphism classes: R-S joins (shape A) and three-way joins
    (shape B), each duplicated over twin relations so textually different
    queries share canonical lineages."""
    db = Database()
    for value in ("a", "b", "c"):
        db.add_fact("R", (value,))
        db.add_fact("R2", (value,))
    for row in (("a", 1), ("b", 1), ("c", 2)):
        db.add_fact("S", row)
        db.add_fact("S2", row)
        db.add_fact("T", row)
    return db


#: Shape A: textually different, WL-isomorphic (same lineage over twins).
QUERY_A = "Q(X) :- R(X), S(X, Y)"
QUERY_A_ISO = "Q(X) :- R2(X), S2(X, Y)"
#: Shape B: a different isomorphism class (three atoms per clause).
QUERY_B = "Q(X) :- R(X), S(X, Y), T(X, Z)"
#: No answers, so nothing to compile.
QUERY_EMPTY = "Q(X) :- R(X), S(X, 3)"


def _run_concurrent(service, requests, workers=4, **config_kwargs):
    """Fan the requests out from one client thread each; returns the
    responses indexed by request id."""
    frontend = ServingFrontend(
        service, FrontendConfig(workers=workers, max_queue=len(requests),
                                **config_kwargs))
    responses = {}
    lock = threading.Lock()

    def client(request):
        response = frontend.submit(request)
        with lock:
            assert response["id"] not in responses, "duplicated response id"
            responses[response["id"]] = response

    threads = [threading.Thread(target=client, args=(request,))
               for request in requests]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    frontend.close()
    return frontend, responses


class _HeldCompile:
    """Patch ``Engine._compute_serial`` so the first computation blocks.

    It resumes once ``release`` is set -- by the test, or by the
    ``release_at``-th computation starting -- or after ``hold_seconds``.
    ``calls`` counts the computations that started.
    """

    def __init__(self, monkeypatch, release_at=None, hold_seconds=30.0):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        lock = threading.Lock()
        original = Engine._compute_serial

        def held(engine, canonical, k=None):
            with lock:
                self.calls += 1
                call = self.calls
            if call == release_at:
                self.release.set()
            if call == 1:
                self.started.set()
                self.release.wait(hold_seconds)
            return original(engine, canonical, k)

        monkeypatch.setattr(Engine, "_compute_serial", held)


def _in_thread(target, *args):
    """Run ``target(*args)`` in a started thread; returns (thread, box)
    where ``box["result"]`` holds the return value once it joined."""
    box = {}

    def run():
        box["result"] = target(*args)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, box


def _join(*threads, timeout=30):
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "thread did not finish in time"


def _fractions(response):
    """The exact per-answer Fractions of an attribute response, keyed so
    responses of the same query compare positionally."""
    return [
        [(entry["fact"], Fraction(entry["value"]))
         for entry in answer["attributions"]]
        for answer in response["answers"]
    ]


class TestBitIdenticalResults:
    def test_concurrent_equals_serial(self, database):
        queries = [QUERY_A, QUERY_A_ISO, QUERY_B]
        serial = AttributionService(database)
        expected = {query: serial.submit({"op": "attribute", "query": query})
                    for query in queries}

        requests = [{"op": "attribute", "query": queries[i % 3], "id": i}
                    for i in range(24)]
        _, responses = _run_concurrent(AttributionService(database),
                                       requests, workers=6)
        assert len(responses) == 24
        for request in requests:
            response = responses[request["id"]]
            assert response["ok"] is True
            assert _fractions(response) == _fractions(
                expected[request["query"]])

    def test_rank_and_topk_concurrent_equal_serial(self, database):
        serial = AttributionService(database)
        expected_rank = serial.submit({"op": "rank", "query": QUERY_B})
        expected_topk = serial.submit({"op": "topk", "query": QUERY_B,
                                       "k": 2})
        requests = []
        for i in range(16):
            if i % 2:
                requests.append({"op": "rank", "query": QUERY_B, "id": i})
            else:
                requests.append({"op": "topk", "query": QUERY_B, "k": 2,
                                 "id": i})
        _, responses = _run_concurrent(AttributionService(database),
                                       requests)
        for request in requests:
            response = responses[request["id"]]
            assert response["ok"] is True
            expected = expected_rank if request["op"] == "rank" \
                else expected_topk
            assert response["answers"] == expected["answers"]


class TestExactlyOnceComputation:
    def test_isomorphic_traffic_compiles_once_per_class(self, database):
        # Serial ground truth: how many fresh computations the workload
        # needs at all (one per canonical lineage per method config).
        serial = AttributionService(database)
        for query in (QUERY_A, QUERY_A_ISO, QUERY_B):
            serial.submit({"op": "attribute", "query": query})
        required = serial.stats_counters.compilations

        service = AttributionService(database)
        requests = [
            {"op": "attribute",
             "query": (QUERY_A, QUERY_A_ISO, QUERY_B)[i % 3], "id": i}
            for i in range(30)
        ]
        frontend, responses = _run_concurrent(service, requests, workers=6)
        assert all(r["ok"] for r in responses.values())
        # 10x the traffic, identical compute: every duplicate was served
        # by the cache, a single-flight leader, or an in-batch dedup.
        assert service.stats_counters.compilations == required
        report = frontend.stats()
        assert report["completed"] == 30
        assert report["shed"] == {"queue_full": 0, "client_budget": 0,
                                  "deadline": 0}

    def test_coalesce_counter_reports_sharing(self, database):
        service = AttributionService(database)
        # Identical requests racing through many workers: whoever is not
        # the owner of the computation waits for it or hits the warm
        # cache after it completed.
        requests = [{"op": "attribute", "query": QUERY_B, "id": i}
                    for i in range(12)]
        _, responses = _run_concurrent(service, requests, workers=6,
                                       batch_max=1)
        assert all(r["ok"] for r in responses.values())
        counters = service.stats_counters
        assert counters.compilations == 1
        # The counter only covers answers that *waited* for the owner
        # (late arrivals hit the warm cache without waiting), so it is
        # workload-dependent; each such answer is also a memory hit, and
        # every answer is served by exactly one tier.
        assert 0 <= counters.coalesced_requests <= counters.cache_hits
        assert counters.answers == (counters.cache_hits
                                    + counters.store_hits
                                    + counters.cache_misses)


class TestResponseDelivery:
    def test_every_request_gets_exactly_one_response(self, database):
        service = AttributionService(database)
        requests = []
        for i in range(40):
            kind = i % 4
            if kind == 0:
                requests.append({"op": "attribute", "query": QUERY_A,
                                 "id": i})
            elif kind == 1:
                requests.append({"op": "rank", "query": QUERY_A, "id": i})
            elif kind == 2:
                requests.append({"op": "topk", "query": QUERY_B, "k": 1,
                                 "id": i})
            else:
                requests.append({"op": "attribute", "query": QUERY_A_ISO,
                                 "id": i})
        _, responses = _run_concurrent(service, requests, workers=8)
        assert sorted(responses) == list(range(40))
        assert all(r["ok"] for r in responses.values())
        assert all(responses[i]["id"] == i for i in responses)

    def test_jsonl_concurrent_preserves_input_order(self, database):
        service = AttributionService(database)
        lines = [json.dumps({"op": "attribute",
                             "query": (QUERY_A, QUERY_A_ISO)[i % 2],
                             "id": i})
                 for i in range(12)]
        import io
        output = io.StringIO()
        assert serve_jsonl_concurrent(service, lines, output,
                                      FrontendConfig(workers=4)) is True
        rows = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [row["id"] for row in rows] == list(range(12))

    def test_batching_disabled_still_serves_everything(self, database):
        service = AttributionService(database)
        requests = [{"op": "attribute", "query": QUERY_A, "id": i}
                    for i in range(10)]
        frontend, responses = _run_concurrent(service, requests,
                                              workers=2, batch_max=1)
        assert len(responses) == 10
        assert frontend.stats()["batches"] == 0

    def test_jsonl_streams_responses_before_eof(self, database):
        """Responses must be emitted as they finish, not buffered until
        the input is exhausted -- an interactive client sends its next
        line only after seeing the previous answer."""
        service = AttributionService(database)
        output = io.StringIO()

        def interactive_lines():
            yield json.dumps({"op": "attribute", "query": QUERY_A,
                              "id": 0}) + "\n"
            deadline = time.monotonic() + 20
            while "\n" not in output.getvalue():
                assert time.monotonic() < deadline, (
                    "no response streamed before the next input line")
                time.sleep(0.01)
            yield json.dumps({"op": "attribute", "query": QUERY_B,
                              "id": 1}) + "\n"

        assert serve_jsonl_concurrent(service, interactive_lines(), output,
                                      FrontendConfig(workers=2)) is True
        rows = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [row["id"] for row in rows] == [0, 1]
        assert all(row["ok"] for row in rows)

    def test_close_is_idempotent_and_flushes(self, database):
        service = AttributionService(database)
        frontend = ServingFrontend(service, FrontendConfig(workers=2))
        assert frontend.submit({"op": "attribute", "query": QUERY_A})["ok"]
        frontend.close()
        frontend.close()
        with pytest.raises(RuntimeError):
            frontend.submit({"op": "attribute", "query": QUERY_A})


class TestLeftoverServing:
    def test_crossed_leftovers_do_not_deadlock(self, database, monkeypatch):
        """Two workers whose batch-drained leftovers follow *each other's*
        in-flight engine computations must both complete.

        Regression: leftovers used to be served while their worker still
        held its own computation, so two workers whose leftovers waited
        on each other hung forever.  Now a leftover is served after its
        worker's batch settled, and the engine waits for another
        caller's computation only after releasing every key it owns.
        The orchestration pins the crossed interleaving: both batch
        leaders are held at a barrier inside their computations before
        either leftover is served.
        """
        service = AttributionService(database)
        original_rank = Engine.rank
        original_attribute = Engine.attribute
        rank_count = itertools.count()
        rank_started = [threading.Event(), threading.Event()]
        rank_release = [threading.Event(), threading.Event()]
        attribute_started = threading.Semaphore(0)
        compute_barrier = threading.Barrier(2, timeout=30)

        def gated_rank(engine, query, db, **kwargs):
            index = next(rank_count)
            rank_started[index].set()
            assert rank_release[index].wait(timeout=30)
            return original_rank(engine, query, db, **kwargs)

        def synced_attribute(engine, query, db, **kwargs):
            attribute_started.release()
            compute_barrier.wait()
            return original_attribute(engine, query, db, **kwargs)

        monkeypatch.setattr(Engine, "rank", gated_rank)
        monkeypatch.setattr(Engine, "attribute", synced_attribute)
        frontend = ServingFrontend(
            service, FrontendConfig(workers=2, max_queue=8, batch_max=8))
        try:
            # Occupy both workers with gated rank computations so the
            # four attribute tickets below are queued, not picked up.
            warmup_a = frontend.submit_nowait({"op": "rank",
                                               "query": QUERY_A})
            assert rank_started[0].wait(timeout=30)
            warmup_b = frontend.submit_nowait({"op": "rank",
                                               "query": QUERY_B})
            assert rank_started[1].wait(timeout=30)

            # Queue order: leader 1 (exact A) drains leftover (approx B);
            # leader 2 (approx B) drains leftover (exact A).  Each
            # leftover needs the *other* worker's computation.
            tickets = [frontend.submit_nowait(request) for request in (
                {"op": "attribute", "query": QUERY_A, "method": "exact",
                 "id": "leader-1"},
                {"op": "attribute", "query": QUERY_B,
                 "method": "approximate", "id": "leftover-1"},
                {"op": "attribute", "query": QUERY_B,
                 "method": "approximate", "id": "leader-2"},
                {"op": "attribute", "query": QUERY_A, "method": "exact",
                 "id": "leftover-2"},
            )]

            # Release worker 1 alone: it takes leader-1 and drains
            # leftover-1 before worker 2 can steal it, then blocks at the
            # barrier inside its computation (key registered, held).
            rank_release[0].set()
            assert warmup_a.result(timeout=30)["ok"] is True
            assert attribute_started.acquire(timeout=30)
            # Release worker 2: it takes leader-2, drains leftover-2, and
            # joins the barrier -- both keys held, both leftovers pending.
            rank_release[1].set()
            assert warmup_b.result(timeout=30)["ok"] is True

            responses = [ticket.result(timeout=30) for ticket in tickets]
            assert all(response["ok"] is True for response in responses)
            assert sorted(response["id"] for response in responses) == [
                "leader-1", "leader-2", "leftover-1", "leftover-2"]
        finally:
            rank_release[0].set()
            rank_release[1].set()
            frontend.close()


class TestBatchEvaluationSharing:
    def test_batch_accounting_does_not_reevaluate_queries(
            self, database, monkeypatch):
        """Front-end requests evaluate their queries in the engine only,
        once per distinct query: the front-end computes no key of its
        own, so the service module's evaluation binding is never called
        -- neither for a single request nor for micro-batch members."""
        service = AttributionService(database)
        engine_evaluations = []
        serve_evaluations = []
        original_evaluate = engine_module.lineage_of_answers

        def counting(calls):
            def evaluate(query, db, **kwargs):
                calls.append(query)
                return original_evaluate(query, db, **kwargs)
            return evaluate

        monkeypatch.setattr(engine_module, "lineage_of_answers",
                            counting(engine_evaluations))
        monkeypatch.setattr(serve_module, "lineage_of_answers",
                            counting(serve_evaluations))

        release = threading.Event()
        started = threading.Event()
        original_attribute = Engine.attribute

        def gated_attribute(engine, query, db, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            return original_attribute(engine, query, db, **kwargs)

        monkeypatch.setattr(Engine, "attribute", gated_attribute)
        frontend = ServingFrontend(
            service, FrontendConfig(workers=1, max_queue=8, batch_max=8))
        try:
            blocker = frontend.submit_nowait({"op": "attribute",
                                              "query": QUERY_B})
            assert started.wait(timeout=30)
            batched = [frontend.submit_nowait(
                {"op": "attribute", "query": QUERY_A, "id": i})
                for i in range(3)]
            release.set()
            assert blocker.result(timeout=30)["ok"] is True
            responses = [ticket.result(timeout=30) for ticket in batched]
            assert all(response["ok"] is True for response in responses)
            report = frontend.stats()
            assert report["batches"] == 1
            assert report["batched_requests"] == 3
            # Four requests over two distinct queries: two evaluations,
            # all of them the engine's; the batch's repeats of QUERY_A
            # read the engine's prepared tier.
            assert len(engine_evaluations) == 2
            assert serve_evaluations == []
        finally:
            release.set()
            frontend.close()


class TestEngineSingleFlight:
    """Identical concurrent work is computed once by the engine itself:
    the shared cache's in-flight table, not the front-end, does it."""

    def test_batchmate_waits_for_an_inflight_isomorph(self, database,
                                                      monkeypatch):
        """A micro-batch member isomorphic to another worker's in-flight
        computation waits for it instead of compiling it again.

        Pinned interleaving: worker 1 is held at a rank gate, worker 2
        holds the first compilation (shape A); B and A's isomorph queue
        behind them, so worker 1 micro-batches them once released.  The
        held compilation resumes when a third one starts (the isomorph
        compiling again) or after 0.5 s.
        """
        held = _HeldCompile(monkeypatch, release_at=3, hold_seconds=0.5)
        rank_started = threading.Event()
        rank_release = threading.Event()
        original_rank = Engine.rank

        def gated_rank(engine, query, db, **kwargs):
            rank_started.set()
            assert rank_release.wait(timeout=30)
            return original_rank(engine, query, db, **kwargs)

        monkeypatch.setattr(Engine, "rank", gated_rank)
        service = AttributionService(database)
        frontend = ServingFrontend(
            service, FrontendConfig(workers=2, max_queue=8, batch_max=8))
        try:
            blocker = frontend.submit_nowait({"op": "rank",
                                              "query": QUERY_EMPTY})
            assert rank_started.wait(timeout=30)
            first = frontend.submit_nowait({"op": "attribute",
                                            "query": QUERY_A, "id": "a"})
            assert held.started.wait(timeout=30)
            batched = [frontend.submit_nowait(request) for request in (
                {"op": "attribute", "query": QUERY_B, "id": "b"},
                {"op": "attribute", "query": QUERY_A_ISO, "id": "a-iso"},
            )]
            rank_release.set()
            assert blocker.result(timeout=30)["ok"] is True
            responses = [ticket.result(timeout=30)
                         for ticket in [first] + batched]
        finally:
            rank_release.set()
            held.release.set()
            frontend.close()
        assert all(response["ok"] is True for response in responses)
        assert frontend.stats()["batches"] == 1
        # Two lineage classes, two compilations.
        assert held.calls == 2
        assert service.stats_counters.compilations == 2

    def test_library_threads_share_one_computation(self, database,
                                                   monkeypatch):
        """Two plain threads calling ``AttributionService.submit`` for
        one query compile it once: the second waits for the first."""
        held = _HeldCompile(monkeypatch, release_at=2, hold_seconds=0.5)
        service = AttributionService(database)
        request = {"op": "attribute", "query": QUERY_B}
        first, first_box = _in_thread(service.submit, request)
        assert held.started.wait(timeout=30)
        second, second_box = _in_thread(service.submit, request)
        _join(first, second)
        responses = [first_box["result"], second_box["result"]]
        assert all(response["ok"] is True for response in responses)
        assert _fractions(responses[0]) == _fractions(responses[1])
        assert held.calls == 1
        assert service.stats_counters.compilations == 1

    def test_owner_failure_hands_the_key_to_a_follower(self, database,
                                                       monkeypatch):
        """An owner that raises while a follower waits wakes it; the
        follower then computes the lineage itself, and no claim is left
        behind."""
        service = AttributionService(database)
        followed = threading.Event()
        owner_computing = threading.Event()
        original_claim = service.cache.claim
        original_compute = Engine._compute_serial
        calls = itertools.count()

        def observed_claim(key):
            flight = original_claim(key)
            if flight is not None:
                followed.set()
            return flight

        def failing_first(engine, canonical, k=None):
            if next(calls) == 0:
                owner_computing.set()
                assert followed.wait(timeout=30)
                raise RuntimeError("owner failed")
            return original_compute(engine, canonical, k)

        monkeypatch.setattr(service.cache, "claim", observed_claim)
        monkeypatch.setattr(Engine, "_compute_serial", failing_first)
        request = {"op": "attribute", "query": QUERY_B}
        owner, owner_box = _in_thread(service.submit, request)
        assert owner_computing.wait(timeout=30)
        follower, follower_box = _in_thread(service.submit, request)
        _join(owner, follower)

        assert owner_box["result"]["ok"] is False
        assert "owner failed" in owner_box["result"]["error"]
        assert follower_box["result"]["ok"] is True
        counters = service.stats_counters
        assert counters.compilations == 1
        assert counters.coalesced_requests == 0
        assert service.cache._inflight == {}

    def test_deadline_request_runs_beside_a_held_computation(
            self, database, monkeypatch):
        """A deadline-scoped engine has its own budget, so it never waits
        for an unbudgeted computation of the same key."""
        held = _HeldCompile(monkeypatch)
        service = AttributionService(database)
        background, box = _in_thread(
            service.submit, {"op": "attribute", "query": QUERY_B})
        try:
            assert held.started.wait(timeout=30)
            response = service.submit({"op": "attribute", "query": QUERY_B,
                                       "deadline_ms": 60_000})
            assert response["ok"] is True
            assert not response.get("degraded")
            # The unbudgeted computation is still held.
            assert background.is_alive()
            assert held.calls == 2
        finally:
            held.release.set()
            _join(background)
        assert box["result"]["ok"] is True
        assert _fractions(box["result"]) == _fractions(response)

    def test_stress_compiles_once_per_class(self, database):
        """Eight threads send isomorphic and distinct requests, singly
        and in micro-batches, under a tiny thread switch interval."""
        queries = [QUERY_A, QUERY_A_ISO, QUERY_B,
                   "Q() :- R(X), S(X, Y)",
                   "Q() :- R(X), S(X, Y), T(X, Z)",
                   "Q(Y) :- R(X), S(X, Y)"]
        requests = [{"op": "attribute", "query": query}
                    for query in queries]
        requests += [{"op": "attribute", "query": query, "method": "exact"}
                     for query in queries]
        requests += [{"op": "rank", "query": query} for query in queries]

        serial = AttributionService(database)
        expected = [serial.submit(request) for request in requests]
        required = serial.stats_counters.compilations

        service = AttributionService(database)
        failures = []

        def client(seed):
            order = list(range(len(requests)))
            random.Random(seed).shuffle(order)
            if seed % 2:
                # Micro-batch path: the default-method attribute requests
                # go through one submit_batch call.
                batch = [index for index in order if index < len(queries)]
                order = [index for index in order if index >= len(queries)]
                responses = service.submit_batch(
                    [requests[index] for index in batch])
                pairs = list(zip(batch, responses))
            else:
                pairs = []
            pairs += [(index, service.submit(requests[index]))
                      for index in order]
            for index, response in pairs:
                if (not response["ok"]
                        or response["answers"] != expected[index]["answers"]):
                    failures.append((index, response))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            _join(*threads, timeout=120)
        finally:
            sys.setswitchinterval(previous)

        assert failures == []
        counters = service.stats_counters
        assert counters.compilations == required
        assert counters.answers == (counters.cache_hits
                                    + counters.store_hits
                                    + counters.cache_misses)
        assert service.cache._inflight == {}
