"""Tests for the engine's prepared tier (``LineageCache.prepared``).

A query's answer tuples and canonical lineages depend on the query, the
domain policy and the database alone, so the engine memoizes them per
``(query, domain, id(database), database.version)``.  A repeat query over
an unchanged database skips query evaluation and canonicalization; every
effective insert bumps ``Database.version``, so the next request evaluates
again.  Each entry also keeps its query's assembled answers, one slot per
kind (``"values"``, ``"ranked"``), reused while every answer's result is
the very cache entry they were built from.  The oracle for every
response is a fresh engine over the same database.  Evaluations and
canonicalizations are counted through the engine module's bindings, the
ones the benchmark tracer wraps.
"""

import gc
import random
import sys
import threading
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.engine as engine_module
from repro import (Database, Engine, EngineConfig, FactAttribution,
                   RankedVariable, parse_query)
from repro.boolean.dnf import DNF
from repro.core.intervals import Interval
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


def _slots(engine):
    """The assembled-answer slots of each prepared entry."""
    return [entry[3] for _, entry in engine.cache.prepared.snapshot()]


class TestAssembledAnswers:
    def test_a_repeat_call_shares_the_records_in_new_lists(self):
        query, database = parse_query(QUERY), _database()
        engine = Engine(EngineConfig(method="exact"))
        first = engine.attribute(query, database)
        assert engine.stats.assembly_hits == 0
        second = engine.attribute(query, database)
        assert engine.stats.assembly_hits == 1
        assert second == first and second is not first
        assert all(a is b for a, b in zip(first, second))

        ranker = Engine(EngineConfig(method="topk", k=2))
        first = ranker.rank(query, database)
        second = ranker.rank(query, database)
        assert ranker.stats.assembly_hits == 1
        assert second == first and second is not first
        for (answer, entries), (again, repeated) in zip(first, second):
            assert again is answer and repeated is not entries
            assert all(a is b for a, b in zip(entries, repeated))

    def test_a_new_cache_entry_reassembles(self):
        query, database = parse_query(QUERY), _database()
        engine = Engine(EngineConfig(method="exact"))
        expected = _attributions(engine.attribute(query, database))
        engine.cache.results.clear()
        assert _attributions(engine.attribute(query, database)) == expected
        assert engine.stats.assembly_hits == 0
        assert engine.stats.prepared_hits == 1

    def test_an_evicted_cache_entry_reassembles(self):
        """Raw lineages fill the result tier but leave the prepared tier
        alone, so the entry stays while its results are recomputed."""
        query, database = parse_query(QUERY), _database()
        engine = Engine(EngineConfig(method="exact", cache_size=4))
        expected = _attributions(engine.attribute(query, database))
        engine.attribute_lineages([DNF([[0]]), DNF([[0], [1]]),
                                   DNF([[0], [1], [2]]), DNF([[0, 1, 2]])])
        assert _attributions(engine.attribute(query, database)) == expected
        assert engine.stats.assembly_hits == 0
        assert engine.stats.prepared_hits == 1
        assert engine.stats.cache_misses == 3 + 4 + 3

    def test_mutating_what_a_call_returns_changes_no_later_call(self):
        query, database = parse_query(QUERY), _database()
        engine = Engine(EngineConfig(method="exact"))
        results = engine.attribute(query, database)
        expected = _attributions(results)
        results.clear()
        assert _attributions(engine.attribute(query, database)) == expected

        ranker = Engine(EngineConfig(method="rank"))
        rankings = ranker.rank(query, database)
        expected = _rankings(rankings)
        rankings[0][1].clear()
        rankings.clear()
        assert _rankings(ranker.rank(query, database)) == expected
        assert engine.stats.assembly_hits == ranker.stats.assembly_hits == 1

    def test_alternating_k_keeps_one_ranked_slot(self):
        """The oracle is a twin engine with the same history whose prepared
        tier is cleared before every call, so it always assembles afresh.
        (A fresh engine is no oracle here: the trees that earlier k runs
        expanded make a later k's intervals tighter than a fresh run's.)"""
        query, database = parse_query(QUERY), _database()
        engine = Engine(EngineConfig(method="topk", k=2))
        twin = Engine(EngineConfig(method="topk", k=2))
        for k in (1, 2, 3, 1):
            got = engine.rank(query, database, k=k)
            twin.cache.prepared.clear()
            assert _rankings(got) == _rankings(twin.rank(query, database, k=k))
            (slots,) = _slots(engine)
            assert list(slots) == ["ranked"]
            assert slots["ranked"][0] == engine.cache.result_suffix(
                "topk", engine.config.epsilon, k)
        assert engine.stats.assembly_hits == 0

    def test_an_unconverged_ranking_keeps_no_slot(self):
        database = Database()
        for x in range(3):
            database.add_fact("R", (x,))
            database.add_fact("T", (x,))
            for y in range(3):
                database.add_fact("S", (x, y))
        query = parse_query("Q() :- R(X), S(X, Y), T(Y)")
        engine = Engine(EngineConfig(method="rank", max_shannon_steps=0))
        first = engine.rank(query, database)
        assert engine.stats.partial_results == 1
        assert _slots(engine) == [{}]
        assert _rankings(engine.rank(query, database)) == _rankings(first)
        assert engine.stats.assembly_hits == 0

    def test_records_are_immutable_tuples(self):
        attribution = FactAttribution("R(1)", 3, Fraction(1, 2))
        entry = RankedVariable(3, Interval(1, 2), Fraction(3, 2))
        for record, field in ((attribution, "value"), (entry, "estimate")):
            with pytest.raises(AttributeError):
                setattr(record, field, Fraction(0))
        assert attribution._replace(lower=1, upper=1) == \
            ("R(1)", 3, Fraction(1, 2), 1, 1)
        assert entry._replace(interval=Interval(2, 2)).lower == 2
        assert (entry.lower, entry.upper) == (1, 2)


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


def _shapes_database():
    """:func:`_database` plus T(0), T(1), T(2), so every shape has
    answers."""
    database = _database()
    for y in range(3):
        database.add_fact("T", (y,))
    return database


def test_topk_intervals_depend_on_request_order():
    """A top-k request served before its query's d-trees exist runs
    IchiBan from scratch and caches sound, possibly wider intervals; one
    served after the query's attribute request ranks off the exact trees
    and reads points.  Both choose the exact top-k facts."""
    database = _shapes_database()
    widened = 0
    for query in SHAPES[:3]:
        attribution = AttributionService(database).submit(
            {"op": "attribute", "query": query})
        exact = {tuple(answer["answer"]): {entry["fact"]:
                                           Fraction(entry["value"])
                                           for entry in
                                           answer["attributions"]}
                 for answer in attribution["answers"]}
        for k in (2, 3):
            request = {"op": "topk", "query": query, "k": k}
            ranked_first = AttributionService(database).submit(
                dict(request))
            primed = AttributionService(database)
            primed.submit({"op": "attribute", "query": query})
            ranked_after = primed.submit(dict(request))
            for first, after in zip(ranked_first["answers"],
                                    ranked_after["answers"]):
                values = exact[tuple(first["answer"])]
                assert all(entry["lower"] <= values[entry["fact"]]
                           <= entry["upper"] for entry in first["ranking"])
                assert ({entry["fact"] for entry in first["ranking"]}
                        == {entry["fact"] for entry in after["ranking"]})
                assert all(entry["lower"] == entry["upper"]
                           for entry in after["ranking"])
                widened += sum(entry["lower"] != entry["upper"]
                               for entry in first["ranking"])
    assert widened > 0


@pytest.mark.concurrency
def test_threads_share_assembled_answers():
    """Eight threads send a shuffled mix of attribute and top-k requests
    over three queries to one service; every response equals the serial
    service's response to the same request.  Both services serve the
    attribute requests first: a top-k request's intervals depend on
    whether its query's d-trees exist yet (see the test above)."""
    database = _shapes_database()
    requests = [{"op": "attribute", "query": query} for query in SHAPES[:3]]
    requests += [{"op": "topk", "query": query, "k": k}
                 for query in SHAPES[:3] for k in (2, 3)]
    serial = AttributionService(database)
    expected = [serial.submit(dict(request)) for request in requests]
    work = [index for index in range(len(requests)) for _ in range(12)]
    random.Random(7).shuffle(work)
    service = AttributionService(database)
    for request in requests[:3]:
        service.submit(dict(request))
    mismatches = []

    def client(share):
        for index in share:
            if service.submit(dict(requests[index])) != expected[index]:
                mismatches.append(requests[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(work[i::8],))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert service.stats()["assembly_hits"] > 0
