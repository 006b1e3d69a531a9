"""Tests for the engine's prepared tier (``LineageCache.prepared``).

A query's answer tuples and canonical lineages depend on the query, the
domain policy and the database alone, so the engine memoizes them per
``(query, domain, id(database), database.version)``.  A repeat query over
an unchanged database skips query evaluation and canonicalization; every
effective insert bumps ``Database.version``, so the next request evaluates
again.  The oracle for every response is a fresh engine over the same
database.  Evaluations and canonicalizations are counted through the
engine module's bindings, the ones the benchmark tracer wraps.
"""

import gc
import threading
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.engine as engine_module
from repro import Database, Engine, EngineConfig, parse_query
from repro.db.lineage import lineage_of_answers
from repro.engine.canonical import canonicalize
from repro.engine.serve import AttributionService

QUERY = "Q(X) :- R(X), S(X, Y)"

#: Paper query shapes over R/1, S/2, T/1: hierarchical, the
#: non-hierarchical RST query, a self-join and a union.
SHAPES = (
    "Q(X) :- R(X), S(X, Y)",
    "Q() :- R(X), S(X, Y), T(Y)",
    "Q(Y) :- S(X, Y), T(Y)",
    "Q(X) :- S(X, Y), S(Y, X)",
    "Q(X) :- R(X), S(X, Y); Q(X) :- S(X, X), T(X)",
)


def _database():
    """Answers 0..3 of QUERY with S-fanouts 1, 2, 3, 1 (four answers, three
    canonical keys), and S(5, 0) waiting for an R(5)."""
    database = Database()
    for x in range(4):
        database.add_fact("R", (x,))
        for y in range(x % 3 + 1):
            database.add_fact("S", (x, y))
    database.add_fact("S", (5, 0))
    return database


@pytest.fixture
def calls(monkeypatch):
    """Calls through the engine module's evaluation and canonicalization
    bindings."""
    counts = {"evaluate": 0, "canonicalize": 0}
    for name, label in (("lineage_of_answers", "evaluate"),
                        ("canonicalize", "canonicalize")):
        def counting(*args, _original=getattr(engine_module, name),
                     _label=label, **kwargs):
            counts[_label] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(engine_module, name, counting)
    return counts


def _attributions(results):
    """Answers, facts, values with their type, bounds, in output order."""
    return [(result.answer,
             [(a.fact, a.variable, a.value, type(a.value), a.lower, a.upper)
              for a in result.attributions])
            for result in results]


def _rankings(rankings):
    return [(answer,
             [(fact, e.variable, e.estimate, type(e.estimate), e.lower,
               e.upper) for fact, e in entries])
            for answer, entries in rankings]


def _held_answers(engine):
    return sum(len(entry[1]) for _, entry in engine.cache.prepared.snapshot())


class TestRepeatRequests:
    def test_repeat_attribute_and_topk_evaluate_once(self, calls):
        service = AttributionService(_database())
        requests = [{"op": "attribute", "query": QUERY},
                    {"op": "topk", "query": QUERY, "k": 2}] * 2
        responses = [service.submit(dict(request)) for request in requests]
        assert all(response["ok"] for response in responses)
        assert responses[2] == responses[0]
        assert responses[3] == responses[1]
        # One evaluation and one canonicalization per answer (4), shared
        # by the attribute and topk engines; the other three requests hit.
        assert calls == {"evaluate": 1, "canonicalize": 4}
        assert service.stats()["prepared_hits"] == 3

    def test_equal_queries_share_an_entry(self, calls):
        engine = Engine(EngineConfig(method="exact"))
        database = _database()
        first = engine.attribute(parse_query(QUERY), database)
        second = engine.attribute(parse_query(QUERY), database)
        assert _attributions(second) == _attributions(first)
        assert calls["evaluate"] == 1
        assert engine.stats.prepared_hits == 1

    def test_clear_drops_the_tier(self, calls):
        engine = Engine(EngineConfig(method="exact"))
        query, database = parse_query(QUERY), _database()
        engine.attribute(query, database)
        engine.cache.clear()
        assert len(engine.cache.prepared) == 0
        engine.attribute(query, database)
        assert calls["evaluate"] == 2


class TestWarmHitWorkGuard:
    """The second identical request does no per-answer work before the
    result tier: no evaluation, no canonicalization, and one memory-tier
    read per distinct canonical key, not per answer."""

    def test_second_request_reads_each_key_once(self, calls, monkeypatch):
        engine = Engine(EngineConfig(method="exact"))
        query, database = parse_query(QUERY), _database()
        first = engine.attribute(query, database)
        keys = {canonicalize(answer.lineage).key
                for answer in lineage_of_answers(query, database)}
        assert len(first) == 4 and len(keys) == 3
        before = dict(calls)
        reads = []
        original_get = engine.cache.results.get

        def counting_get(key):
            reads.append(key)
            return original_get(key)

        monkeypatch.setattr(engine.cache.results, "get", counting_get)
        second = engine.attribute(query, database)
        assert _attributions(second) == _attributions(first)
        assert calls == before
        assert len(reads) == len(keys)
        assert engine.stats.cache_hits == 4 + 1


class TestInserts:
    @pytest.mark.parametrize("domain", ["lineage", "database"])
    @pytest.mark.parametrize("fact", [("R", (5,)), ("S", (0, 9))],
                             ids=["adds-an-answer", "extends-a-lineage"])
    def test_insert_between_requests(self, calls, domain, fact):
        config = EngineConfig(method="exact", domain=domain)
        engine = Engine(config)
        query, database = parse_query(QUERY), _database()
        before = engine.attribute(query, database)
        version = database.version
        database.add_fact(*fact)
        assert database.version == version + 1
        after = engine.attribute(query, database)
        assert calls["evaluate"] == 2
        assert _attributions(after) != _attributions(before)
        assert _attributions(after) == _attributions(
            Engine(config).attribute(query, database))
        # A duplicate insert changes nothing, so the next request hits.
        database.add_fact(*fact)
        assert database.version == version + 1
        evaluations = calls["evaluate"]
        assert _attributions(engine.attribute(query, database)) \
            == _attributions(after)
        assert calls["evaluate"] == evaluations

    def test_an_insert_during_evaluation_keeps_no_entry(self, monkeypatch):
        """The version is read before the evaluation and checked after it:
        answers evaluated across an insert are returned, not kept."""
        engine = Engine(EngineConfig(method="exact"))
        query, database = parse_query(QUERY), _database()
        evaluate = engine_module.lineage_of_answers

        def evaluate_then_insert(*args, **kwargs):
            answers = evaluate(*args, **kwargs)
            database.add_fact("R", (5,))
            return answers

        monkeypatch.setattr(engine_module, "lineage_of_answers",
                            evaluate_then_insert)
        assert len(engine.attribute(query, database)) == 4
        assert len(engine.cache.prepared) == 0

    def test_version_counts_effective_inserts(self):
        database = Database()
        assert database.version == 0
        database.add_facts("R", [(1,), (2,), (1,)])
        assert database.version == 2
        database.add_fact("T", (1,), endogenous=False)
        database.add_fact("T", (1,), endogenous=False)
        assert database.version == 3
        with pytest.raises(ValueError):
            database.add_fact("R", (1,), endogenous=False)
        with pytest.raises(ValueError):
            database.add_fact("R", (1, 2))
        assert database.version == 3


class TestDatabaseIdentity:
    def test_equal_databases_never_share_an_entry(self, calls):
        engine = Engine(EngineConfig(method="exact"))
        query = parse_query(QUERY)
        first, second = _database(), _database()
        assert first.version == second.version
        engine.attribute(query, first)
        engine.attribute(query, second)
        assert calls["evaluate"] == 2
        assert engine.stats.prepared_hits == 0
        assert len(engine.cache.prepared) == 2

    def test_equal_versions_of_different_databases(self):
        engine = Engine(EngineConfig(method="exact"))
        query = parse_query(QUERY)
        first, second = _database(), Database()
        for x in range(first.version // 2):
            second.add_fact("R", (x,))
            second.add_fact("S", (x, x))
        assert second.version == first.version
        engine.attribute(query, first)
        assert _attributions(engine.attribute(query, second)) \
            == _attributions(Engine(EngineConfig(method="exact"))
                             .attribute(query, second))

    def test_the_memo_does_not_keep_a_database_alive(self):
        engine = Engine(EngineConfig(method="exact"))
        database = _database()
        engine.attribute(parse_query(QUERY), database)
        assert len(engine.cache.prepared) == 1
        reference = weakref.ref(database)
        del database
        gc.collect()
        assert reference() is None

    def test_an_entry_of_another_database_is_a_miss(self, calls):
        """An id reused by a new database: the entry's weak reference
        names another object, so the lookup misses."""
        engine = Engine(EngineConfig(method="exact"))
        query, database, impostor = parse_query(QUERY), _database(), Database()
        key = (query, "lineage", id(database), database.version)
        engine.cache.prepared.put(key, (weakref.ref(impostor), [("x",)], []))
        results = engine.attribute(query, database)
        assert calls["evaluate"] == 1
        assert engine.stats.prepared_hits == 0
        assert _attributions(results) == _attributions(
            Engine(EngineConfig(method="exact")).attribute(query, database))


class TestBound:
    @staticmethod
    def _database():
        database = Database()
        for relation, size in (("A", 3), ("B", 2), ("C", 2), ("D", 8)):
            database.add_facts(relation, [(x,) for x in range(size)])
        return database

    def test_the_tier_holds_at_most_cache_size_answers(self, calls):
        engine = Engine(EngineConfig(method="exact", cache_size=6))
        database = self._database()
        queries = {name: parse_query(f"Q(X) :- {name}(X)") for name in "ABCD"}
        for name in "ABACAD":
            engine.attribute(queries[name], database)
            assert _held_answers(engine) <= 6
        # A(3) + B(2) held, A reused, C(2) evicts B (least recently
        # used), A hits again, D(8) exceeds the bound and is not kept.
        assert calls["evaluate"] == 4
        assert engine.stats.prepared_hits == 2
        assert _held_answers(engine) == 5

    def test_a_query_above_the_bound_is_answered_every_time(self, calls):
        engine = Engine(EngineConfig(method="exact", cache_size=6))
        database = self._database()
        query = parse_query("Q(X) :- D(X)")
        expected = _attributions(Engine(EngineConfig(method="exact"))
                                 .attribute(query, database))
        calls["evaluate"] = 0
        for _ in range(2):
            assert _attributions(engine.attribute(query, database)) \
                == expected
        assert calls["evaluate"] == 2
        assert len(engine.cache.prepared) == 0


@st.composite
def facts(draw):
    relation = draw(st.sampled_from("RST"))
    arity = 2 if relation == "S" else 1
    row = tuple(draw(st.lists(st.integers(0, 2), min_size=arity,
                              max_size=arity)))
    # Mostly endogenous: exogenous-only support drops an answer.
    return relation, row, draw(st.sampled_from([True, True, True, False]))


STEPS = st.lists(st.one_of(
    st.tuples(st.just("query"), st.integers(0, len(SHAPES) - 1),
              st.sampled_from(["attribute", "topk"])),
    st.tuples(st.just("insert"), facts())), min_size=1, max_size=12)


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(initial=st.lists(facts(), min_size=4, max_size=16), steps=STEPS,
           domain=st.sampled_from(["lineage", "database"]))
    def test_memo_matches_a_fresh_engine(self, initial, steps, domain):
        """Interleaved queries and inserts: one long-lived engine per
        method (with its prepared tier) against a fresh engine per call."""
        configs = {"attribute": EngineConfig(method="exact", domain=domain),
                   "topk": EngineConfig(method="topk", k=2, domain=domain)}
        engines = {op: Engine(config) for op, config in configs.items()}
        database = Database()
        for step in [("insert", fact) for fact in initial] + steps:
            if step[0] == "insert":
                relation, row, endogenous = step[1]
                version = database.version
                known = database.contains_fact(relation, row)
                try:
                    database.add_fact(relation, row, endogenous=endogenous)
                except ValueError:
                    assert database.version == version
                    continue
                assert database.version == version + (not known)
                continue
            _, shape, op = step
            query = parse_query(SHAPES[shape])
            fresh = Engine(configs[op])
            if op == "attribute":
                got = _attributions(engines[op].attribute(query, database))
                expected = _attributions(fresh.attribute(query, database))
            else:
                got = _rankings(engines[op].rank(query, database))
                expected = _rankings(fresh.rank(query, database))
            assert got == expected
            assert all(isinstance(entry[2], Fraction)
                       for _, entries in got for entry in entries)


@pytest.mark.concurrency
def test_concurrent_inserts_leave_no_stale_entry():
    """A writer appends facts while four threads submit one query; once
    the writer has joined, a new request answers over the final
    database."""
    database = _database()
    config = EngineConfig(method="exact")
    service = AttributionService(database, config)
    request = {"op": "attribute", "query": QUERY}
    stop = threading.Event()
    failures = []

    def reader():
        while not stop.is_set():
            response = service.submit(dict(request))
            if not response["ok"]:
                failures.append(response)

    def writer():
        for x in range(10, 40):
            database.add_fact("R", (x,))
            database.add_fact("S", (x, x % 3))
            time.sleep(0.001)

    readers = [threading.Thread(target=reader) for _ in range(4)]
    for thread in readers:
        thread.start()
    inserting = threading.Thread(target=writer)
    inserting.start()
    inserting.join(timeout=60)
    stop.set()
    for thread in readers:
        thread.join(timeout=60)
    assert not inserting.is_alive()
    assert not any(thread.is_alive() for thread in readers)
    assert failures == []
    final = service.submit(dict(request))
    assert final == AttributionService(database, config).submit(dict(request))
    assert len(final["answers"]) == 4 + 30
