"""Differential tests for the engine's answer templates.

A cached entry orders its canonical variables once; each answer then only
renames that order and breaks ties by its own variable ids.  The oracle is
the ordering rule written out here -- ``(-value, variable)`` for
attributions and ``(class, -estimate, variable)[:k]`` for rankings -- over
each answer's values and bounds in its own variable space.

Every answer's lineage is a random tie-rich DNF whose facts were inserted
in a shuffled order, so isomorphic answers reach one entry under different
renamings.
"""

import random
import sys
import threading
from fractions import Fraction

import pytest

from repro import Database, Engine, EngineConfig, parse_query
from repro.baselines.brute_force import banzhaf_all_brute_force
from repro.db.lineage import lineage_of_answers
from repro.engine.cache import CachedAttribution, LineageCache
from repro.engine.canonical import canonicalize

#: Each answer A's lineage is the DNF listed by the exogenous clause
#: relations C1..C3 over A's endogenous X facts.
QUERY = parse_query(
    "Q(A) :- C1(A, K, U), X(A, U); "
    "Q(A) :- C2(A, K, U, V), X(A, U), X(A, V); "
    "Q(A) :- C3(A, K, U, V, W), X(A, U), X(A, V), X(A, W)")

#: Symmetric shapes: their automorphisms make whole value groups tie.
SHAPES = (
    [[0, 1], [2, 3], [4, 5]],
    [[0, 1], [0, 2], [0, 3], [0, 4]],
    [[0, 1, 2], [3, 4, 5], [6]],
    [[0, 3], [0, 4], [1, 3], [1, 4], [2, 5]],
)


def _random_shape(rng):
    size = rng.randint(3, 7)
    return [rng.sample(range(size), rng.randint(1, min(3, size)))
            for _ in range(rng.randint(2, 5))]


def _database(seed, answers=8):
    """Answers over two or three shapes, their facts in shuffled order."""
    rng = random.Random(seed)
    shapes = [rng.choice(SHAPES), _random_shape(rng), _random_shape(rng)]
    database = Database()
    facts = []
    for answer in range(answers):
        clauses = rng.choice(shapes)
        facts.extend((answer, v) for v in {v for c in clauses for v in c})
        for index, clause in enumerate(clauses):
            database.add_fact(f"C{len(clause)}", (answer, index, *clause),
                              endogenous=False)
    rng.shuffle(facts)
    for fact in facts:
        database.add_fact("X", fact)
    return database


def _expected_attributions(values, bounds, database):
    rows = [(database.fact_of(v), v, Fraction(value),
             *bounds.get(v, (None, None))) for v, value in values.items()]
    return sorted(rows, key=lambda row: (-row[2], row[1]))


def _observed_attributions(result):
    assert all(type(a.value) is Fraction for a in result.attributions)
    return [(a.fact, a.variable, a.value, a.lower, a.upper)
            for a in result.attributions]


def _classes(bounds, k):
    """0 certainly in the top-k, 1 undecided, 2 certainly out."""
    classes = {}
    for v, (lower, upper) in bounds.items():
        above = sum(1 for w, (other, _) in bounds.items()
                    if w != v and other > upper)
        possible = sum(1 for w, (_, other) in bounds.items()
                       if w != v and other > lower)
        classes[v] = 2 if above >= k else 0 if possible < k else 1
    return classes


def _expected_ranking(bounds, k, database):
    classes = _classes(bounds, k) if k is not None else dict.fromkeys(bounds, 0)
    estimate = {v: Fraction(lower + upper, 2)
                for v, (lower, upper) in bounds.items()}
    order = sorted(bounds, key=lambda v: (classes[v], -estimate[v], v))[:k]
    return [(database.fact_of(v), v, bounds[v], estimate[v]) for v in order]


def _observed_ranking(entries):
    assert all(type(entry.estimate) is Fraction for _, entry in entries)
    return [(fact, entry.variable, (entry.lower, entry.upper), entry.estimate)
            for fact, entry in entries]


@pytest.mark.parametrize("domain", ["lineage", "database"])
@pytest.mark.parametrize("method", ["exact", "auto", "approximate", "shapley"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_computed_attributions_follow_the_rule(seed, method, domain):
    database = _database(seed)
    engine = Engine(EngineConfig(method=method, domain=domain))
    results = engine.attribute(QUERY, database)
    answers = lineage_of_answers(QUERY, database, domain=domain)
    assert [r.answer for r in results] == [a.values for a in answers]
    assert engine.stats.cache_hits > 0  # some answers reuse a template
    for result, answer in zip(results, answers):
        (truth,) = engine.attribute_lineages([answer.lineage])
        assert _observed_attributions(result) == _expected_attributions(
            truth.values, truth.bounds, database)
        if method == "exact" and domain == "lineage":
            assert truth.values == banzhaf_all_brute_force(answer.lineage)


def _crafted_entries(engine, database, domain, make_entry, k=None):
    """Put a crafted entry under every answer's result key; returns each
    answer's entry in its own variable space."""
    config = engine.config
    by_key = {}
    own = []
    for answer in lineage_of_answers(QUERY, database, domain=domain):
        canonical = canonicalize(answer.lineage)
        key = LineageCache.result_key(canonical.key, config.method,
                                      config.epsilon, k)
        entry = by_key.get(key)
        if entry is None:
            entry = by_key[key] = make_entry(canonical.key[0])
            engine.cache.results.put(key, entry)
        rename = canonical.from_canonical
        own.append(({rename[v]: x for v, x in entry.values.items()},
                    {rename[v]: b for v, b in entry.bounds.items()}))
    return own


@pytest.mark.parametrize("domain", ["lineage", "database"])
@pytest.mark.parametrize("method", ["exact", "approximate"])
def test_crafted_ties_with_distinct_bounds(method, domain):
    """Few distinct values (ints and Fractions) and bounds that differ
    inside a value group: ties must follow the answer's ids and every
    variable keeps its own bounds."""
    rng = random.Random(5)
    choices = [Fraction(1, 3), Fraction(2, 3), 1, Fraction(1), 0]

    def make_entry(size):
        values = {v: rng.choice(choices) for v in range(size)}
        bounds = {}
        for v in range(size):
            if rng.random() < 0.8:
                lower = rng.randint(0, 4)
                bounds[v] = (lower, lower + rng.randint(0, 3))
        return CachedAttribution(method_used=method, values=values,
                                 bounds=bounds)

    database = _database(3, answers=10)
    engine = Engine(EngineConfig(method=method, domain=domain))
    own = _crafted_entries(engine, database, domain, make_entry)
    results = engine.attribute(QUERY, database)
    assert engine.stats.cache_misses == 0
    for result, (values, bounds) in zip(results, own):
        assert _observed_attributions(result) == _expected_attributions(
            values, bounds, database)


@pytest.mark.parametrize("domain", ["lineage", "database"])
@pytest.mark.parametrize("method, k", [("rank", None), ("topk", 1),
                                       ("topk", 2), ("topk", 3)])
def test_crafted_rankings_cut_through_ties(method, k, domain):
    """Repeated intervals tie in class and estimate; k lands inside such
    a group, so which tied variables make the cut depends on the ids."""
    rng = random.Random(11)
    intervals = [(2, 2), (2, 2), (1, 3), (0, 4), (3, 5), (1, 1), (0, 0)]

    def make_entry(size):
        bounds = {v: rng.choice(intervals) for v in range(size)}
        return CachedAttribution(
            method_used="approximate",
            values={v: Fraction(lower + upper, 2)
                    for v, (lower, upper) in bounds.items()},
            bounds=bounds)

    database = _database(4, answers=10)
    engine = Engine(EngineConfig(method=method, k=k, domain=domain))
    own = _crafted_entries(engine, database, domain, make_entry, k)
    rankings = engine.rank(QUERY, database)
    assert engine.stats.cache_misses == 0
    for (_, entries), (_, bounds) in zip(rankings, own):
        assert _observed_ranking(entries) == _expected_ranking(bounds, k,
                                                               database)


@pytest.mark.parametrize("domain", ["lineage", "database"])
@pytest.mark.parametrize("k", [None, 1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_computed_rankings_follow_the_rule(seed, k, domain):
    database = _database(seed)
    method = "rank" if k is None else "topk"
    engine = Engine(EngineConfig(method=method, k=k, domain=domain))
    rankings = engine.rank(QUERY, database)
    answers = lineage_of_answers(QUERY, database, domain=domain)
    for (answer_values, entries), answer in zip(rankings, answers):
        assert answer_values == answer.values
        (truth,) = engine.attribute_lineages([answer.lineage])
        assert _observed_ranking(entries) == _expected_ranking(
            truth.bounds, k, database)


@pytest.mark.concurrency
def test_threads_racing_to_build_templates_agree():
    """Threads sharing an engine build the same entries' templates at the
    same time; each gets the serial output (a lost write of a template
    only costs a rebuild)."""
    database = _database(6, answers=12)
    expected = Engine(EngineConfig(method="exact")).attribute(QUERY, database)
    engine = Engine(EngineConfig(method="exact"))
    # Fill the result tier without assembling, so no template exists yet.
    engine.attribute_lineages([answer.lineage for answer
                               in lineage_of_answers(QUERY, database)])
    outputs = {}

    def worker(index):
        outputs[index] = engine.attribute(QUERY, database)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outputs == {index: expected for index in range(6)}
