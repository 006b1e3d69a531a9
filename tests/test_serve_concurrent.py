"""Concurrency tests for the serving front-end (repro.engine.frontend)
and the engine's single-flight compute stage behind it.

The load-bearing claims, each pinned here:

* **Correctness under concurrency**: N client threads hammering one
  front-end get bit-identical ``Fraction`` values to serial execution --
  single-flight is pure compute-sharing, never an approximation.
* **Exactly-once computation**: overlapping isomorphic workloads compile
  each distinct canonical lineage once, whether the duplicates arrive
  through front-end workers or plain library threads; the sharing shows
  up in the ``coalesced_requests`` counter.
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
from repro import Database, parse_query
from repro.db.lineage import lineage_of_answers
from repro.engine.canonical import canonicalize
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
    """Run ``target(*args)`` in a started daemon thread (a deadlocked one
    must not hang the interpreter); returns (thread, box) where
    ``box["result"]`` holds the return value once it joined."""
    box = {}

    def run():
        box["result"] = target(*args)

    thread = threading.Thread(target=run, daemon=True)
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
        # by the cache or a single-flight leader.
        assert service.stats_counters.compilations == required
        report = frontend.stats()
        assert report["completed"] == 30
        assert report["shed"] == {"queue_full": 0, "client_budget": 0,
                                  "deadline": 0, "shutdown": 0}

    def test_coalesce_counter_reports_sharing(self, database):
        service = AttributionService(database)
        # Identical requests racing through many workers: whoever is not
        # the owner of the computation waits for it or hits the warm
        # cache after it completed.
        requests = [{"op": "attribute", "query": QUERY_B, "id": i}
                    for i in range(12)]
        _, responses = _run_concurrent(service, requests, workers=6)
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

    def test_removed_batch_max_raises_type_error(self):
        # A worker executes one request at a time; there is no batch
        # bound to set.
        with pytest.raises(TypeError):
            FrontendConfig(batch_max=4)


class TestBatchEvaluationSharing:
    def test_batch_accounting_does_not_reevaluate_queries(
            self, database, monkeypatch):
        """Front-end requests evaluate their queries in the engine only,
        once per distinct query: the front-end computes no key of its
        own, so the service module's evaluation binding is never
        called."""
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
        with ServingFrontend(service, FrontendConfig(workers=1)) as frontend:
            tickets = [frontend.submit_nowait({"op": "attribute",
                                               "query": query})
                       for query in (QUERY_B, QUERY_A, QUERY_A, QUERY_A)]
            responses = [ticket.result(timeout=30) for ticket in tickets]
        assert all(response["ok"] is True for response in responses)
        # Four requests over two distinct queries: two evaluations, all
        # of them the engine's; the repeats of QUERY_A read the engine's
        # prepared tier.
        assert len(engine_evaluations) == 2
        assert serve_evaluations == []

    @pytest.mark.parametrize("deadline_ms", [None, 60_000])
    def test_front_end_parses_each_request_once(self, database,
                                                monkeypatch, deadline_ms):
        """Admission validates the request and the worker executes the
        parsed request it admitted: one query parse per request."""
        parses = []
        original_parse = serve_module.parse_query

        def counting_parse(text):
            parses.append(text)
            return original_parse(text)

        monkeypatch.setattr(serve_module, "parse_query", counting_parse)
        service = AttributionService(database)
        requests = [{"op": op, "query": QUERY_A, "id": index}
                    for index, op in enumerate(("attribute", "rank",
                                                "attribute", "rank"))]
        if deadline_ms is not None:
            for request in requests:
                request["deadline_ms"] = deadline_ms
        with ServingFrontend(service, FrontendConfig(workers=2)) as frontend:
            responses = [frontend.submit(request) for request in requests]
        assert all(response["ok"] is True for response in responses)
        assert len(parses) == len(requests)


class TestEngineSingleFlight:
    """Identical concurrent work is computed once by the engine itself:
    the shared cache's in-flight table, not the front-end, does it."""

    def test_batchmate_waits_for_an_inflight_isomorph(self, database,
                                                      monkeypatch):
        """A queued request isomorphic to another worker's in-flight
        computation waits for it instead of compiling it again.

        Pinned interleaving: worker 1 is held at a rank gate, worker 2
        holds the first compilation (shape A); B and A's isomorph queue
        behind them, so worker 1 serves them in turn once released.  The
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
            service, FrontendConfig(workers=2, max_queue=8))
        try:
            blocker = frontend.submit_nowait({"op": "rank",
                                              "query": QUERY_EMPTY})
            assert rank_started.wait(timeout=30)
            first = frontend.submit_nowait({"op": "attribute",
                                            "query": QUERY_A, "id": "a"})
            assert held.started.wait(timeout=30)
            queued = [frontend.submit_nowait(request) for request in (
                {"op": "attribute", "query": QUERY_B, "id": "b"},
                {"op": "attribute", "query": QUERY_A_ISO, "id": "a-iso"},
            )]
            rank_release.set()
            assert blocker.result(timeout=30)["ok"] is True
            responses = [ticket.result(timeout=30)
                         for ticket in [first] + queued]
        finally:
            rank_release.set()
            held.release.set()
            frontend.close()
        assert all(response["ok"] is True for response in responses)
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
        """Eight threads send isomorphic and distinct requests, to the
        service directly and through one shared front-end, under a tiny
        thread switch interval."""
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
        frontend = ServingFrontend(service, FrontendConfig(workers=4))
        failures = []

        def client(seed):
            order = list(range(len(requests)))
            random.Random(seed).shuffle(order)
            # Odd seeds go through the front-end's workers.
            submit = frontend.submit if seed % 2 else service.submit
            for index in order:
                response = submit(requests[index])
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
            frontend.close()

        assert failures == []
        assert frontend.stats()["completed"] == 4 * len(requests)
        counters = service.stats_counters
        assert counters.compilations == required
        assert counters.answers == (counters.cache_hits
                                    + counters.store_hits
                                    + counters.cache_misses)
        assert service.cache._inflight == {}

    def test_crossed_claim_orders_do_not_deadlock(self, monkeypatch):
        """Two threads on one engine whose answer classes come in
        opposite orders each own one key and follow the other's; both
        must finish.

        The engine waits for a followed key only after releasing every
        key it owns.  Each thread's claims are held at a barrier, so both
        own their first key before either looks up its second, and both
        follow before either computes.
        """
        db = Database()
        for value in ("a", "b", "c"):
            db.add_fact("R", (value,))
        for row in (("a", 1), ("b", 1), ("c", 2)):
            db.add_fact("S", row)
        for row in (("a", 1), ("b", 2), ("c", 2)):
            db.add_fact("S2", row)
        queries = [parse_query("Q(Y) :- R(X), S(X, Y)"),
                   parse_query("Q(Y) :- R(X), S2(X, Y)")]
        engine = Engine()
        # Precondition: one two-clause and one one-clause class, in
        # opposite answer orders.
        orders = [[canonicalize(answer.lineage).key
                   for answer in lineage_of_answers(query, db)]
                  for query in queries]
        assert len(set(orders[0])) == 2
        assert orders[1] == orders[0][::-1]

        barrier = threading.Barrier(2, timeout=30)
        original_claim = engine.cache.claim

        def held_claim(key):
            flight = original_claim(key)
            barrier.wait()
            return flight

        monkeypatch.setattr(engine.cache, "claim", held_claim)
        runs = [_in_thread(engine.attribute, query, db) for query in queries]
        _join(*(thread for thread, _ in runs))
        for query, (_, box) in zip(queries, runs):
            assert box["result"] == Engine().attribute(query, db)
        assert engine.stats.compilations == 2
        assert engine.stats.coalesced_requests == 2
        assert engine.cache._inflight == {}
