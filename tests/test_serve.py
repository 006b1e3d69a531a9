"""Tests for the warm-start serving loop (repro.engine.serve)."""

import io
import json
from fractions import Fraction

import pytest

from repro import Database
from repro.engine import EngineConfig
from repro.engine.logstore import LogStore
from repro.engine.serve import AttributionService, serve_jsonl
from repro.engine.store import MemoryStore


@pytest.fixture
def database():
    db = Database()
    for value in ("a", "b", "c"):
        db.add_fact("R", (value,))
    for row in (("a", 1), ("b", 1), ("c", 2)):
        db.add_fact("S", row)
    return db


QUERY = "Q(X) :- R(X), S(X, Y)"


class TestRequests:
    def test_attribute_request(self, database):
        service = AttributionService(database)
        response = service.submit({"op": "attribute", "query": QUERY})
        assert response["ok"] is True
        assert response["method"] == "auto"
        assert len(response["answers"]) == 3
        first = response["answers"][0]
        assert first["attributions"][0]["value"] == "1"
        assert first["attributions"][0]["float"] == 1.0

    def test_attribute_with_method_override(self, database):
        service = AttributionService(database)
        response = service.submit({"op": "attribute", "query": QUERY,
                                   "method": "shapley"})
        assert response["ok"] is True
        assert response["method"] == "shapley"

    def test_rank_and_topk_requests(self, database):
        service = AttributionService(database)
        ranked = service.submit({"op": "rank", "query": QUERY})
        assert ranked["ok"] is True
        assert all(len(answer["ranking"]) == 2
                   for answer in ranked["answers"])
        topped = service.submit({"op": "topk", "query": QUERY, "k": 1})
        assert topped["ok"] is True
        assert topped["k"] == 1
        assert all(len(answer["ranking"]) == 1
                   for answer in topped["answers"])

    def test_responses_are_json_serializable(self, database):
        service = AttributionService(database)
        for request in ({"op": "attribute", "query": QUERY},
                        {"op": "rank", "query": QUERY},
                        {"op": "topk", "query": QUERY, "k": 2}):
            json.dumps(service.submit(request))


class TestErrorHandling:
    def test_unknown_op(self, database):
        service = AttributionService(database)
        response = service.submit({"op": "explode", "query": QUERY})
        assert response["ok"] is False
        assert "unknown op" in response["error"]

    def test_missing_query(self, database):
        response = AttributionService(database).submit({"op": "attribute"})
        assert response["ok"] is False
        assert "query" in response["error"]

    def test_unparseable_query(self, database):
        response = AttributionService(database).submit(
            {"op": "attribute", "query": "not a query"})
        assert response["ok"] is False
        assert "unparseable query" in response["error"]

    def test_topk_needs_integer_k(self, database):
        service = AttributionService(database)
        for bad_k in (None, 0, -1, "three", True):
            response = service.submit({"op": "topk", "query": QUERY,
                                       "k": bad_k})
            assert response["ok"] is False

    def test_attribute_rejects_k(self, database):
        response = AttributionService(database).submit(
            {"op": "attribute", "query": QUERY, "k": 3})
        assert response["ok"] is False
        assert "topk" in response["error"]

    def test_ranking_ops_reject_method(self, database):
        service = AttributionService(database)
        for request in ({"op": "rank", "query": QUERY, "method": "exact"},
                        {"op": "topk", "query": QUERY, "k": 1,
                         "method": "auto"}):
            response = service.submit(request)
            assert response["ok"] is False
            assert "method" in response["error"]

    def test_rank_rejects_k(self, database):
        # 'rank' returning the full list while silently ignoring k would
        # surprise clients that meant 'topk'.
        response = AttributionService(database).submit(
            {"op": "rank", "query": QUERY, "k": 3})
        assert response["ok"] is False
        assert "topk" in response["error"]

    def test_bad_method(self, database):
        response = AttributionService(database).submit(
            {"op": "attribute", "query": QUERY, "method": "rank"})
        assert response["ok"] is False

    def test_errors_do_not_stop_the_loop(self, database):
        service = AttributionService(database)
        responses = list(service.serve([
            {"op": "bogus"},
            {"op": "attribute", "query": QUERY},
        ]))
        assert [r["ok"] for r in responses] == [False, True]
        assert service.request_errors == 1
        assert service.requests_served == 2

    def test_ranking_config_method_rejected(self, database):
        with pytest.raises(ValueError):
            AttributionService(database, EngineConfig(method="rank"))


class TestSharedTiers:
    def test_engines_share_memory_cache(self, database):
        service = AttributionService(database)
        service.submit({"op": "attribute", "query": QUERY,
                        "method": "exact"})
        misses_before = service.stats_counters.cache_misses
        # Same canonical shapes, same method -> pure memory hits.
        service.submit({"op": "attribute", "query": QUERY,
                        "method": "exact"})
        assert service.stats_counters.cache_misses == misses_before

    def test_store_shared_across_methods_and_restart(self, database,
                                                     tmp_path):
        with LogStore(str(tmp_path)) as store:
            service = AttributionService(database, store=store)
            service.submit({"op": "attribute", "query": QUERY,
                            "method": "exact"})
            service.submit({"op": "topk", "query": QUERY, "k": 1})
            service.flush()

        with LogStore(str(tmp_path)) as store:
            restarted = AttributionService(database, store=store)
            restarted.submit({"op": "attribute", "query": QUERY,
                              "method": "exact"})
            restarted.submit({"op": "topk", "query": QUERY, "k": 1})
        assert restarted.stats_counters.store_hits > 0
        assert restarted.stats_counters.compilations == 0

    def test_warm_start_preloads_memory(self, database, tmp_path):
        with LogStore(str(tmp_path)) as store:
            cold = AttributionService(database, store=store)
            cold.submit({"op": "attribute", "query": QUERY})
            cold.flush()

        with LogStore(str(tmp_path)) as store:
            warm = AttributionService(database, store=store,
                                      warm_start=True)
            assert warm.warm_loaded > 0
            warm.submit({"op": "attribute", "query": QUERY})
        assert warm.stats_counters.store_hits == 0  # memory had it already
        assert warm.stats_counters.cache_misses == 0

    def test_warm_values_identical_to_cold(self, database, tmp_path):
        with LogStore(str(tmp_path)) as store:
            cold = AttributionService(database, store=store)
            cold_response = cold.submit({"op": "attribute", "query": QUERY,
                                         "method": "exact"})
            cold.flush()
        with LogStore(str(tmp_path)) as store:
            warm = AttributionService(database, store=store)
            warm_response = warm.submit({"op": "attribute", "query": QUERY,
                                         "method": "exact"})
        assert warm_response["answers"] == cold_response["answers"]

    def test_save_and_load_cache(self, database):
        service = AttributionService(database)
        service.submit({"op": "attribute", "query": QUERY})
        store = MemoryStore()
        assert service.save_cache(store) > 0
        fresh = AttributionService(database)
        assert fresh.load_cache(store) > 0
        fresh.submit({"op": "attribute", "query": QUERY})
        assert fresh.stats_counters.cache_misses == 0


class TestDeadlineDegradation:
    QUERY = "Q() :- R(X), S(X, Y), T(Y)"

    @pytest.fixture
    def join(self):
        db = Database()
        for x in range(5):
            db.add_fact("R", (x,))
            db.add_fact("T", (x,))
            for y in range(5):
                db.add_fact("S", (x, y))
        return db

    def test_degraded_bounds_come_from_the_partial_tree(self, join):
        # The Shannon budget, not the clock, runs out: the failed exact
        # compilation leaves its partial tree for the best-effort pass.
        service = AttributionService(join, EngineConfig(
            method="exact", max_shannon_steps=5))
        response = service.submit({"op": "attribute", "query": self.QUERY,
                                   "deadline_ms": 60000})
        assert response["ok"] is True
        assert response["degraded"] is True
        exact = AttributionService(join, EngineConfig(method="exact")).submit(
            {"op": "attribute", "query": self.QUERY})
        values = {entry["fact"]: Fraction(entry["value"])
                  for entry in exact["answers"][0]["attributions"]}
        (answer,) = response["answers"]
        entries = answer["attributions"]
        assert len(entries) == len(values) == 35
        assert any(entry["lower"] > 0 for entry in entries)
        for entry in entries:
            assert entry["lower"] <= values[entry["fact"]] <= entry["upper"]


class TestStatsReport:
    def test_stats_shape(self, database, tmp_path):
        with LogStore(str(tmp_path)) as store:
            service = AttributionService(database, store=store)
            service.submit({"op": "attribute", "query": QUERY})
            report = service.stats()
        assert report["requests_served"] == 1
        assert report["request_errors"] == 0
        assert set(report["tier_hit_rates"]) == {"memory", "store",
                                                 "compute"}
        assert report["store"]["backend"] == "log"
        assert "auto" in report["engines"]

    def test_stats_without_store(self, database):
        report = AttributionService(database).stats()
        assert report["store"] is None


class TestServeJsonl:
    def test_jsonl_roundtrip(self, database):
        service = AttributionService(database)
        lines = [
            json.dumps({"op": "attribute", "query": QUERY}),
            "",
            "# a comment",
            "not json",
            json.dumps({"op": "topk", "query": QUERY, "k": 1}),
        ]
        output = io.StringIO()
        all_ok = serve_jsonl(service, lines, output)
        assert all_ok is False  # the bad line failed
        responses = [json.loads(line)
                     for line in output.getvalue().splitlines()]
        assert len(responses) == 3  # blank/comment lines produce nothing
        assert [r["ok"] for r in responses] == [True, False, True]

    def test_jsonl_all_ok(self, database):
        service = AttributionService(database)
        output = io.StringIO()
        assert serve_jsonl(
            service, [json.dumps({"op": "rank", "query": QUERY})],
            output) is True
