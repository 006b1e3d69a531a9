"""Thread-safety tests for the engine's shared mutable state.

The concurrent front-end hits :class:`EngineStats` (every counter bump)
and the cache tiers (:class:`LogStore` put/flush) from many worker
threads at once.  These tests race exactly those operations behind a
barrier -- so every thread contends on the same instant -- and assert
that not a single update is lost.  Under the pre-``bump()`` code
(``stats.cache_hits += 1`` read-modify-write), the counter test loses
increments reliably at this contention level.  The legacy
:class:`DiskStore` reader, which counts the writes it drops, gets the
same race.
"""

import threading
from fractions import Fraction

import pytest

from repro.engine.cache import CachedAttribution
from repro.engine.stats import COUNTER_FIELDS, EngineStats
from repro.engine.logstore import LogStore
from repro.engine.store import DiskStore

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
