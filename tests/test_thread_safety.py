"""Thread-safety tests for the engine's shared mutable state.

The concurrent front-end hits :class:`EngineStats` (every counter bump)
and the cache tiers (:class:`LogStore` put/flush) from many worker
threads at once.  These tests race exactly those operations behind a
barrier -- so every thread contends on the same instant -- and assert
that not a single update is lost.  Under the pre-``bump()`` code
(``stats.cache_hits += 1`` read-modify-write), the counter test loses
increments reliably at this contention level.  The legacy
:class:`DiskStore` reader, which counts the writes it drops, gets the
same race.  A :class:`Database` is raced by query readers against one
fact writer, which is what it supports.  Concurrent AdaBan and IchiBan runs
must size their expansion batches exactly as serial runs do: each run owns
its work counters.
"""

import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from join_reference import reference_answers, reference_lineages
from repro.core.adaban import adaban_all
from repro.core.ichiban import _IchiBanRun, _topk_controller
from repro.db.database import Database
from repro.db.datalog import parse_query
from repro.db.evaluation import evaluate_query
from repro.db.lineage import lineage_of_answers
from repro.dtree.heuristics import select_most_frequent
from repro.engine.cache import CachedAttribution
from repro.engine.stats import COUNTER_FIELDS, EngineStats
from repro.engine.logstore import LogStore
from repro.engine.store import DiskStore
from repro.workloads.generators import random_positive_dnf

pytestmark = pytest.mark.concurrency

THREADS = 8
ROUNDS = 250


def _race(worker, threads=THREADS):
    """Run ``worker(thread_index)`` in N threads released together."""
    barrier = threading.Barrier(threads)
    errors = []

    def run(index):
        barrier.wait()
        try:
            worker(index)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors, errors


class TestEngineStats:
    def test_concurrent_bumps_lose_nothing(self):
        stats = EngineStats()

        def worker(_index):
            for _ in range(ROUNDS):
                stats.bump(cache_hits=1)
                stats.bump(compilations=1, queries=2)

        _race(worker)
        assert stats.cache_hits == THREADS * ROUNDS
        assert stats.compilations == THREADS * ROUNDS
        assert stats.queries == 2 * THREADS * ROUNDS

    def test_every_counter_field_bumps_atomically(self):
        stats = EngineStats()

        def worker(index):
            field = COUNTER_FIELDS[index % len(COUNTER_FIELDS)]
            for _ in range(ROUNDS):
                stats.bump(**{field: 1})

        _race(worker, threads=len(COUNTER_FIELDS))
        assert sum(getattr(stats, field) for field in COUNTER_FIELDS) \
            == len(COUNTER_FIELDS) * ROUNDS

    def test_bump_rejects_unknown_counter(self):
        with pytest.raises(AttributeError):
            EngineStats().bump(not_a_counter=1)

    def test_concurrent_timed_sections_accumulate(self):
        stats = EngineStats()

        def worker(_index):
            for _ in range(ROUNDS // 5):
                with stats.timed("evaluate"):
                    pass

        _race(worker)
        assert stats.stage_seconds["evaluate"] >= 0.0

    def test_merge_from_while_bumping(self):
        target = EngineStats()

        def worker(index):
            if index == 0:
                for _ in range(ROUNDS):
                    scratch = EngineStats()
                    scratch.bump(fallbacks=1)
                    target.merge_from(scratch)
            else:
                for _ in range(ROUNDS):
                    target.bump(answers=1)

        _race(worker)
        assert target.fallbacks == ROUNDS
        assert target.answers == (THREADS - 1) * ROUNDS


def _store_key(seed):
    return ((3, ((0, seed % 3), (1, 2))), "exact", None, seed)


def _store_entry(seed):
    return CachedAttribution(
        method_used="exact",
        values={0: Fraction(seed, 7), 1: Fraction(1, seed + 1)},
        bounds={},
        converged=True,
    )


class TestLogStore:
    def test_concurrent_put_and_flush_lose_nothing(self, tmp_path):
        store = LogStore(str(tmp_path / "store"))
        per_thread = 25

        def worker(index):
            for i in range(per_thread):
                seed = index * per_thread + i
                store.put(_store_key(seed), _store_entry(seed))
                if i % 5 == 0:
                    store.flush()  # flush races against other puts

        _race(worker)
        store.close()

        # Everything survives a cold reload from disk.
        with LogStore(str(tmp_path / "store")) as reloaded:
            assert len(reloaded) == THREADS * per_thread
            for seed in range(THREADS * per_thread):
                entry = reloaded.get(_store_key(seed))
                assert entry is not None
                assert entry.values[0] == Fraction(seed, 7)

    def test_concurrent_readers_and_writers(self, tmp_path):
        store = LogStore(str(tmp_path / "store"))
        for seed in range(20):
            store.put(_store_key(seed), _store_entry(seed))
        store.flush()

        def worker(index):
            for i in range(50):
                if index % 2:
                    seed = 20 + index * 50 + i
                    store.put(_store_key(seed), _store_entry(seed))
                else:
                    entry = store.get(_store_key(i % 20))
                    assert entry is not None

        _race(worker)
        store.flush()
        assert len(store) == 20 + (THREADS // 2) * 50
        store.close()


class TestDiskStore:
    """The legacy reader: concurrent reads, and no dropped write uncounted."""

    @staticmethod
    def _reader(tmp_path, count):
        from repro.engine.store import encode_entry, encode_key

        from tests.test_store import _write_shard

        _write_shard(tmp_path, "shard-0000.json",
                     {encode_key(_store_key(seed)):
                      (seed, encode_entry(_store_entry(seed)))
                      for seed in range(count)})
        return DiskStore(str(tmp_path))

    def test_concurrent_put_and_flush_lose_nothing(self, tmp_path):
        store = self._reader(tmp_path, 20)
        per_thread = 25

        def worker(index):
            for i in range(per_thread):
                seed = 20 + index * per_thread + i
                store.put(_store_key(seed), _store_entry(seed))
                if i % 5 == 0:
                    store.flush()  # a no-op, racing the puts

        _race(worker)
        assert store.stats()["dropped_writes"] == THREADS * per_thread
        assert len(store) == 20
        assert len(DiskStore(str(tmp_path))) == 20

    def test_concurrent_readers_and_writers(self, tmp_path):
        store = self._reader(tmp_path, 20)

        def worker(index):
            for i in range(50):
                if index % 2:
                    seed = 20 + index * 50 + i
                    store.put(_store_key(seed), _store_entry(seed))
                else:
                    entry = store.get(_store_key(i % 20))
                    assert entry == _store_entry(i % 20)

        _race(worker)
        assert store.dropped_writes == (THREADS // 2) * 50
        assert len(store) == 20


class TestDatabase:
    def test_readers_see_every_fact_once_the_writer_is_done(self):
        """Readers evaluate while one writer grows every joined relation.

        Each reader evaluates once more after the writer has finished; that
        evaluation must equal the nested-loop reference over the grown
        database, so no index built mid-write is served stale.
        """
        query = parse_query("Q(A) :- R(A, B), S(B, C), T(C), C != 'c4'")
        database = Database()
        database.add_fact("R", ("a", "b0"))
        database.add_fact("S", ("b0", "c"))
        database.add_fact("T", ("c",), endogenous=False)
        readers, facts = 4, 60
        written = threading.Event()
        finals = {}

        def evaluate():
            return ([(a.values, [(g.binding, g.facts) for g in a.groundings])
                     for a in evaluate_query(query, database)],
                    [(e.values, e.lineage.clauses, e.lineage.domain)
                     for e in lineage_of_answers(query, database)])

        def write():
            for i in range(facts):  # each fact is new and joins earlier ones
                relation, row = (("R", (f"a{i}", f"b{i % 5}")),
                                 ("S", (f"b{i % 5}", f"c{i}")),
                                 ("T", (f"c{i - 1}",)))[i % 3]
                database.add_fact(relation, row, endogenous=i % 4 != 0)
                time.sleep(0.0002)  # let the readers run mid-write

        def worker(index):
            if index == readers:
                try:
                    write()
                finally:
                    written.set()
                return
            while not written.is_set():
                evaluate()
            finals[index] = evaluate()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _race(worker, threads=readers + 1)
        finally:
            sys.setswitchinterval(interval)
        expected = (list(reference_answers(query, database).items()),
                    reference_lineages(query, database))
        assert expected[0]
        assert finals == {index: expected for index in range(readers)}


class TestAnytimeRuns:
    def test_concurrent_runs_match_serial_runs(self):
        # Multi-round lineages, so each batch's size depends on the run's
        # own evaluation work; a shared counter would change steps/rounds.
        lineages = [random_positive_dnf(random.Random(seed), 22, 33, (2, 3))
                    for seed in (18, 20, 28, 35)]

        def outcome(index):
            function = lineages[index]
            run = _IchiBanRun(function, select_most_frequent)
            intervals = run.run(_topk_controller(1, None), None, None)
            results = adaban_all(function, epsilon=0.1)
            return (run.steps, run.rounds, run.state.work, intervals,
                    {v: (r.interval, r.refinement_steps)
                     for v, r in results.items()})

        serial = [outcome(index) for index in range(len(lineages))]
        concurrent = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _race(lambda index: concurrent.__setitem__(index, outcome(index)),
                  threads=len(lineages))
        finally:
            sys.setswitchinterval(interval)
        assert all(rounds > 1 for _, rounds, *_ in serial)
        assert [concurrent[index] for index in range(len(lineages))] == serial
