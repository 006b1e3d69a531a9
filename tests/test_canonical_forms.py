"""Canonical forms: first-occurrence encodings, the ``forms`` memo and keys.

The canonical key of a lineage is a pure function of the lineage: the
``forms`` tier only memoizes it per first-occurrence encoding, so neither
the memo nor the order in which an engine meets lineages can change a key.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.dnf import DNF
from repro.engine import Engine, EngineConfig, canonicalize
from repro.engine.cache import CachedAttribution, LRUCache
from repro.engine.logstore import LogStore
from repro.workloads.generators import random_positive_dnf

from dnf_strategies import small_dnfs


def _renamed(function, mapping):
    return DNF([[mapping[v] for v in clause] for clause in function.clauses],
               domain=[mapping[v] for v in function.domain])


def _lineages(seed, count=40):
    """Random lineages, each also under a random renaming."""
    rng = random.Random(seed)
    lineages = []
    for _ in range(count):
        function = random_positive_dnf(rng, rng.randint(2, 7),
                                       rng.randint(1, 5), clause_width=(1, 3))
        ids = rng.sample(range(100), len(function.domain))
        lineages.append(function)
        lineages.append(_renamed(function, dict(zip(sorted(function.domain),
                                                    ids))))
    return lineages


class TestMemo:
    def test_memo_miss_and_hit_equal_the_plain_form(self):
        memo = LRUCache(8)
        for function in _lineages(1, count=10):
            plain = canonicalize(function)
            missed = canonicalize(function, memo=memo)
            hit = canonicalize(function, memo=memo)
            for form in (missed, hit):
                assert form == plain
                assert form.key == plain.key
                assert form.renaming == plain.renaming
                assert form.to_canonical == plain.to_canonical
                assert form.from_canonical == plain.from_canonical

    def test_equal_encodings_share_the_memo_entry(self):
        memo = LRUCache(8)
        first = canonicalize(DNF([[0, 2], [1, 3]]), memo=memo)
        # Same sorted clause list up to an increasing relabelling.
        second = canonicalize(DNF([[10, 30], [20, 40]]), memo=memo)
        assert len(memo) == 1
        assert first.key is second.key
        assert second.renaming == (10, 30, 20, 40)

    def test_key_of_the_changed_example(self):
        # Ties now break by occurrence index, not by original id.
        assert canonicalize(DNF([[0, 2], [1, 3]])).key == (4, ((0, 1), (2, 3)))

    def test_silent_domain_variables_follow_in_id_order(self):
        canonical = canonicalize(DNF([[7, 3]], domain=[3, 7, 1, 9]))
        assert canonical.key == (4, ((2, 3),))
        assert canonical.renaming == (1, 9, 3, 7)

    def test_opposite_orders_give_identical_result_keys(self):
        lineages = _lineages(2)
        keys = []
        for order in (lineages, lineages[::-1]):
            engine = Engine(EngineConfig(method="exact"))
            engine.attribute_lineages(order)
            keys.append({key for key, _ in engine.cache.results.snapshot()})
        assert keys[0] == keys[1]
        assert len(keys[0]) < len(lineages)

    def test_forms_evict_at_cache_size(self):
        engine = Engine(EngineConfig(method="exact", cache_size=3))
        engine.attribute_lineages([DNF([[0, 1]] + [[v] for v in range(2, n)])
                                   for n in range(3, 8)])
        assert len(engine.cache.forms) == 3
        engine.cache.clear()
        assert len(engine.cache.forms) == 0


@settings(max_examples=80, deadline=None)
@given(small_dnfs(), st.data())
def test_increasing_relabelling_keeps_key_and_facts(function, data):
    """A strictly increasing relabelling keeps the first-occurrence
    encoding, so the key is equal and the renaming maps every canonical
    variable -- and so every cached value -- to the relabelled fact."""
    domain = sorted(function.domain)
    ids = sorted(data.draw(st.lists(st.integers(0, 200), min_size=len(domain),
                                    max_size=len(domain), unique=True)))
    relabel = dict(zip(domain, ids))
    original = canonicalize(function)
    relabelled = canonicalize(_renamed(function, relabel))
    assert relabelled.key == original.key
    assert relabelled.renaming == tuple(relabel[v] for v in original.renaming)


def test_records_under_old_keys_are_never_served(tmp_path):
    """Keys changed when ties began to break by occurrence index.  A record
    a store holds under ``DNF([[0, 2], [1, 3]])``'s old key is an ordinary
    record of the lineage that key spells, never a wrong answer here."""
    lineage = DNF([[0, 2], [1, 3]])
    old_key = (4, ((0, 2), (1, 3)))
    assert canonicalize(lineage).key != old_key
    wrong = CachedAttribution(method_used="exact",
                              values={v: Fraction(-1) for v in range(4)},
                              bounds={v: (-1, -1) for v in range(4)})
    (expected,) = Engine(EngineConfig(method="exact")).attribute_lineages(
        [lineage])
    for warm in (False, True):
        path = str(tmp_path / f"warm-{warm}")
        with LogStore(path) as store:
            store.put((old_key, "exact", None, None), wrong)
            store.flush()
        with LogStore(path) as store:
            engine = Engine(EngineConfig(method="exact", store=store))
            if warm:
                assert engine.load_cache() == 1
            (served,) = engine.attribute_lineages([lineage])
        assert engine.stats.store_hits == 0
        assert engine.stats.cache_hits == 0
        assert served.values == expected.values
        assert served.bounds == expected.bounds
