"""Unit tests for the append-only log store tier (repro.engine.logstore).

Crash-injection, multi-process concurrency, and model-based property
coverage live in ``test_store_crash.py`` / ``test_store_multiproc.py`` /
``test_store_properties.py``; this file pins the single-process
contract: exact round-trips, torn-tail and corrupt-record recovery,
tombstoned eviction, compaction, locking modes, consistent-hash
sharding, backend selection, and the one-shot migration path.
"""

import os
from fractions import Fraction

import pytest

from repro.engine import Engine, EngineConfig
from repro.engine.logstore import (
    LogStore,
    _CompactionWorker,
    ShardedStore,
    StoreLockedError,
    migrate_store,
    open_store,
    resolve_store,
)
from repro.engine.store import (
    DiskStore,
    MemoryStore,
    encode_entry,
    encode_key,
)

from tests.test_store import (
    _artifact,
    _canonical_key,
    _entry,
    _key,
    _snapshot,
    _write_shard,
    _write_tree_shard,
)


def _keys(count, method="approximate"):
    return [_key(method=method, epsilon=Fraction(i + 1, 999_983))
            for i in range(count)]


class TestLogStoreRoundTrip:
    def test_roundtrip_across_handles_is_exact(self, tmp_path):
        key, entry = _key(), _entry()
        with LogStore(str(tmp_path)) as writer:
            writer.put(key, entry)
            writer.flush()
        with LogStore(str(tmp_path)) as reader:
            loaded = reader.get(key)
        assert loaded == entry
        for variable, value in loaded.values.items():
            assert isinstance(value, Fraction)
            assert value == entry.values[variable]
        for lower, upper in loaded.bounds.values():
            assert isinstance(lower, int) and isinstance(upper, int)

    def test_unflushed_puts_are_not_durable(self, tmp_path):
        writer = LogStore(str(tmp_path))
        writer.put(_key(), _entry())
        assert writer.get(_key()) == _entry()  # read-your-writes
        # Simulate a crash: drop the handle without flushing.
        writer._pending.clear()
        writer.close()
        with LogStore(str(tmp_path)) as reopened:
            assert reopened.get(_key()) is None

    def test_artifact_roundtrip_across_handles(self, tmp_path):
        from repro.dtree.serialize import trees_equal

        key = _canonical_key()
        for artifact in (_artifact(complete=True),
                         _artifact(complete=False)):
            with LogStore(str(tmp_path)) as writer:
                writer.put_artifact(key, artifact)
                writer.flush()
            with LogStore(str(tmp_path)) as reader:
                loaded = reader.get_artifact(key)
            assert loaded is not None
            assert loaded.complete == artifact.complete
            assert trees_equal(loaded.root, artifact.root)

    def test_items_cover_pending_and_flushed(self, tmp_path):
        keys = _keys(4)
        with LogStore(str(tmp_path)) as store:
            store.put(keys[0], _entry())
            store.flush()
            store.put(keys[1], _entry())
            snapshot = dict(store.items())
        assert set(snapshot) == {keys[0], keys[1]}
        assert len(store) == 2  # closed handles still answer sizing

    def test_superseding_put_wins_after_reopen(self, tmp_path):
        key = _key()
        newer = _entry(converged=False)
        with LogStore(str(tmp_path)) as writer:
            writer.put(key, _entry())
            writer.flush()
            writer.put(key, newer)
            writer.flush()
        with LogStore(str(tmp_path)) as reader:
            assert reader.get(key) == newer
            assert len(reader) == 1


class TestLogStoreDamage:
    def test_torn_tail_is_skipped_and_truncated(self, tmp_path):
        keys = _keys(3)
        with LogStore(str(tmp_path)) as writer:
            for key in keys:
                writer.put(key, _entry())
            writer.flush()
        log_path = os.path.join(str(tmp_path), "store.log")
        size = os.path.getsize(log_path)
        with open(log_path, "r+b") as handle:
            handle.truncate(size - 7)  # tear the last frame
        with LogStore(str(tmp_path)) as reopened:
            assert reopened.truncated_bytes > 0
            recovered = [key for key in keys
                         if reopened.get(key) is not None]
            assert len(recovered) == 2  # the torn record is gone
            # The log is clean again: new appends land and survive.
            reopened.put(keys[2], _entry())
            reopened.flush()
        with LogStore(str(tmp_path)) as again:
            assert all(again.get(key) == _entry() for key in keys)

    def test_corrupted_record_is_never_served(self, tmp_path):
        keys = _keys(3)
        with LogStore(str(tmp_path)) as writer:
            for key in keys:
                writer.put(key, _entry())
            writer.flush()
            offset = writer._index[encode_key(keys[1])].offset
        log_path = os.path.join(str(tmp_path), "store.log")
        with open(log_path, "r+b") as handle:
            handle.seek(offset + 12)  # into the payload: a bit flip
            original = handle.read(1)
            handle.seek(offset + 12)
            handle.write(bytes([original[0] ^ 0xFF]))
        with LogStore(str(tmp_path)) as reopened:
            # The damaged record fails its checksum and is skipped; its
            # neighbors -- *after* it in the file too -- still decode.
            assert reopened.get(keys[1]) is None
            assert reopened.get(keys[0]) == _entry()
            assert reopened.get(keys[2]) == _entry()
            assert reopened.corrupt_records == 1

    def test_alien_log_file_is_rotated_not_parsed(self, tmp_path):
        log_path = os.path.join(str(tmp_path), "store.log")
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(log_path, "wb") as handle:
            handle.write(b"this is not a record log at all")
        with LogStore(str(tmp_path)) as store:
            assert len(store) == 0
            store.put(_key(), _entry())
            store.flush()
        with LogStore(str(tmp_path)) as reopened:
            assert reopened.get(_key()) == _entry()
        assert os.path.exists(log_path + ".alien")


class TestLogStoreEviction:
    def test_eviction_appends_tombstones_and_survives_reopen(self, tmp_path):
        keys = _keys(6)
        with LogStore(str(tmp_path), max_entries=4,
                      auto_compact=False) as store:
            for key in keys:
                store.put(key, _entry())
                store.flush()
            assert len(store) == 4
            survivors = {key for key in keys if store.get(key) is not None}
        assert survivors == set(keys[2:])  # oldest two evicted
        with LogStore(str(tmp_path), max_entries=4) as reopened:
            # Tombstones persist the eviction: nothing resurrects.
            assert all(reopened.get(key) is None for key in keys[:2])
            assert all(reopened.get(key) == _entry() for key in keys[2:])

    def test_artifact_bound_is_independent(self, tmp_path):
        with LogStore(str(tmp_path), max_entries=1,
                      max_artifacts=8) as store:
            store.put_artifact(_canonical_key(), _artifact())
            for key in _keys(3):
                store.put(key, _entry())
                store.flush()
            assert len(store) == 1
            assert store.artifact_count() == 1

    def test_bytes_flushed_counts_appended_records_and_tombstones(
            self, tmp_path):
        log_path = tmp_path / "store.log"
        with LogStore(str(tmp_path), max_entries=2,
                      auto_compact=False) as store:
            for keys in (_keys(2), _keys(5)[2:]):
                before = (store.stats()["bytes_flushed"],
                          os.path.getsize(log_path))
                for key in keys:
                    store.put(key, _entry())
                store.put_artifact(_canonical_key(), _artifact())
                store.flush()  # the second flush also appends tombstones
                grown = os.path.getsize(log_path) - before[1]
                assert grown > 0
                assert store.stats()["bytes_flushed"] - before[0] == grown
            assert len(store) == 2
        sharded = open_store(str(tmp_path / "sharded"), shards=2)
        for key in _keys(4):
            sharded.put(key, _entry())
        sharded.flush()
        assert sharded.stats()["bytes_flushed"] == sum(
            shard.bytes_flushed for shard in sharded.stores) > 0
        sharded.close()


class TestLogStoreCompaction:
    def test_compaction_reclaims_garbage_and_keeps_live_data(self, tmp_path):
        key, keys = _key(), _keys(4)
        with LogStore(str(tmp_path), auto_compact=False) as store:
            for _ in range(50):
                store.put(key, _entry())
                store.flush()
            for other in keys:
                store.put(other, _entry())
            store.put_artifact(_canonical_key(), _artifact())
            store.flush()
            before = os.path.getsize(
                os.path.join(str(tmp_path), "store.log"))
            reclaimed = store.compact()
            after = os.path.getsize(
                os.path.join(str(tmp_path), "store.log"))
            assert reclaimed > 0 and after < before
            assert store.garbage_bytes == 0
            assert store.get(key) == _entry()
            assert all(store.get(other) == _entry() for other in keys)
            assert store.get_artifact(_canonical_key()) is not None
        with LogStore(str(tmp_path)) as reopened:
            assert reopened.get(key) == _entry()
            assert reopened.artifact_count() == 1

    def test_auto_compaction_triggers_in_background(self, tmp_path):
        store = LogStore(str(tmp_path), compact_ratio=0.5)
        key = _key()
        for _ in range(100):
            store.put(key, _entry())
            store.flush()
        store.close()  # close waits for the worker to drain
        assert store.compactions > 0
        with LogStore(str(tmp_path)) as reopened:
            assert reopened.get(key) == _entry()

    def test_close_queued_behind_a_trigger_still_compacts(self, tmp_path):
        with LogStore(str(tmp_path), auto_compact=False) as store:
            worker = _CompactionWorker(store)
            worker.requests.put(object())  # a flush's trigger...
            worker.requests.put(None)  # ...with close()'s sentinel behind it
            worker.run()
            assert store.compactions == 1

    def test_readonly_handle_refuses_to_compact(self, tmp_path):
        with LogStore(str(tmp_path)) as writer:
            writer.put(_key(), _entry())
            writer.flush()
            reader = LogStore(str(tmp_path), mode="ro")
            with pytest.raises(StoreLockedError):
                reader.compact()
            reader.close()


class TestLogStoreLocking:
    def test_second_writer_is_excluded_with_clear_error(self, tmp_path):
        with LogStore(str(tmp_path)) as writer:
            writer.put(_key(), _entry())
            with pytest.raises(StoreLockedError) as excinfo:
                LogStore(str(tmp_path))
            assert "writer lock" in str(excinfo.value)
            assert str(tmp_path) in str(excinfo.value)
        # The lock dies with the handle: a new writer succeeds.
        with LogStore(str(tmp_path)) as successor:
            successor.put(_key(), _entry())
            successor.flush()

    def test_auto_mode_degrades_to_reader(self, tmp_path):
        with LogStore(str(tmp_path)) as writer:
            follower = LogStore(str(tmp_path), mode="auto")
            assert follower.mode == "ro"
            follower.close()
        leader = LogStore(str(tmp_path), mode="auto")
        assert leader.mode == "rw"
        leader.close()

    def test_reader_sees_acked_flushes_incrementally(self, tmp_path):
        keys = _keys(3)
        with LogStore(str(tmp_path)) as writer:
            writer.put(keys[0], _entry())
            writer.flush()
            reader = LogStore(str(tmp_path), mode="ro")
            assert reader.get(keys[0]) == _entry()
            writer.put(keys[1], _entry())
            assert reader.get(keys[1]) is None  # unflushed: invisible
            writer.flush()
            assert reader.get(keys[1]) == _entry()  # auto-refresh on miss
            # A compaction atomically replaces the file; the reader
            # notices the new inode and rescans.
            writer.put(keys[0], _entry(converged=False))
            writer.flush()
            writer.compact()
            reader.refresh()
            assert reader.get(keys[0]) == _entry(converged=False)
            assert reader.get(keys[2]) is None
            reader.close()


class TestShardedStore:
    def test_routes_and_aggregates(self, tmp_path):
        store = ShardedStore([MemoryStore() for _ in range(4)])
        keys = _keys(32)
        for key in keys:
            store.put(key, _entry())
        store.put_artifact(_canonical_key(), _artifact())
        store.flush()
        assert len(store) == 32
        assert store.artifact_count() == 1
        assert all(store.get(key) == _entry() for key in keys)
        assert set(dict(store.items())) == set(keys)
        # Keys actually spread (overwhelmingly likely over 32 keys).
        assert sum(1 for shard in store.stores if len(shard) > 0) >= 2
        stats = store.stats()
        assert stats["backend"] == "sharded"
        assert stats["entries"] == 32
        assert stats["kinds"]["results"]["entries"] == 32

    def test_routing_is_stable_across_instances(self, tmp_path):
        first = ShardedStore([MemoryStore() for _ in range(5)])
        second = ShardedStore([MemoryStore() for _ in range(5)])
        for key in _keys(64):
            encoded = encode_key(key)
            assert first.shard_of(encoded) == second.shard_of(encoded)

    def test_growth_only_moves_keys_to_the_new_shard(self, tmp_path):
        # The consistent-hash property: adding a shard never shuffles
        # keys between existing shards.
        small = ShardedStore([MemoryStore() for _ in range(4)])
        grown = ShardedStore([MemoryStore() for _ in range(5)])
        moved = 0
        for key in _keys(256):
            encoded = encode_key(key)
            before, after = small.shard_of(encoded), grown.shard_of(encoded)
            if before != after:
                assert after == 4  # only ever to the new shard
                moved += 1
        assert 0 < moved < 256  # some keys move, not all

    def test_sharded_log_roundtrip_across_handles(self, tmp_path):
        keys = _keys(16)
        store = ShardedStore.open(
            [str(tmp_path / f"root-{i}") for i in range(3)])
        for key in keys:
            store.put(key, _entry())
        store.flush()
        store.close()
        reopened = ShardedStore.open(
            [str(tmp_path / f"root-{i}") for i in range(3)])
        assert all(reopened.get(key) == _entry() for key in keys)
        assert reopened.compact() >= 0  # fans out, all shards support it
        reopened.close()


class TestBackendSelection:
    def test_open_store_backends(self, tmp_path):
        log = open_store(str(tmp_path / "l"))
        assert isinstance(log, LogStore)
        log.close()
        sharded = open_store(str(tmp_path / "s"), shards=3)
        assert isinstance(sharded, ShardedStore)
        assert len(sharded.stores) == 3
        assert all(isinstance(shard, LogStore) for shard in sharded.stores)
        sharded.close()
        with pytest.raises(ValueError):
            open_store(str(tmp_path / "x"), shards=0)

    def test_resolve_store_passthrough_and_paths(self, tmp_path):
        memory = MemoryStore()
        assert resolve_store(memory) is memory
        assert resolve_store(None) is None
        opened = resolve_store(str(tmp_path / "l"))
        assert isinstance(opened, LogStore)
        opened.close()

    def test_engine_config_opens_and_serves_the_backend(self, tmp_path):
        from repro.boolean.dnf import DNF

        lineage = DNF([(0, 1), (1, 2)], domain=range(3))
        engine = Engine(EngineConfig(store=str(tmp_path)))
        # The engine wraps the opened store in its resilience proxy.
        assert isinstance(engine.store.inner, LogStore)
        (first,) = engine.attribute_lineages([lineage])
        engine.store.close()

        warm = Engine(EngineConfig(store=str(tmp_path)))
        (second,) = warm.attribute_lineages([lineage])
        assert warm.stats.store_hits == 1
        assert second.values == first.values
        warm.store.close()


class TestMigration:
    def test_disk_to_log_migration_is_exact(self, tmp_path):
        from repro.engine.artifact import encode_artifact

        keys = _keys(8)
        legacy = tmp_path / "disk"
        legacy.mkdir()
        _write_shard(legacy, "shard-0000.json",
                     {encode_key(key): (stamp, encode_entry(_entry()))
                      for stamp, key in enumerate(keys)})
        _write_tree_shard(legacy,
                          {_canonical_key(): encode_artifact(_artifact())})
        source = DiskStore(str(legacy))

        destination = open_store(str(tmp_path / "log"), shards=2)
        results, artifacts = migrate_store(source, destination)
        assert (results, artifacts) == (8, 1)
        destination.close()

        # The source stays fully readable, and the migrated entries
        # round-trip bit-identically.
        assert all(source.get(key) == _entry() for key in keys)
        reopened = open_store(str(tmp_path / "log"), shards=2)
        for key in keys:
            loaded = reopened.get(key)
            assert loaded == _entry()
            assert all(isinstance(v, Fraction)
                       for v in loaded.values.values())
        assert reopened.artifact_count() == 1
        reopened.close()

    def test_cli_migrates_a_legacy_directory_losslessly(self, tmp_path):
        import io

        from repro.boolean.dnf import DNF
        from repro.cli import run
        from repro.dtree.compile import compile_dnf
        from repro.dtree.serialize import trees_equal

        legacy = tmp_path / "legacy"
        legacy.mkdir()
        entry = ('{"method_used": "exact", "converged": true, '
                 '"values": [[0, "3/7"], [1, "12345678901234567890/3"], '
                 '[2, "-1/2"]], "bounds": [[0, [1, 5]], [1, [2, 2]]]}')
        files = {
            "meta.json": '{"version": 1, "stamp": 2, "tree_stamp": 2}',
            # A canonical key and a raw-float (pre-canonical) epsilon key.
            "shard-0000.json":
                '{"version": 1, "entries": {'
                '"[3,[[0,1],[1,2]],\\"exact\\",null,null]": '
                '{"stamp": 1, "entry": ' + entry + '}}}',
            "shard-0001.json":
                '{"version": 1, "entries": {'
                '"[3,[[0,1],[1,2]],\\"approximate\\",0.1,null]": '
                '{"stamp": 2, "entry": ' + entry + '}}}',
            "shard-0002.json": '{"version": 1, "entries": {"[3,',
            # A v1 (nested-list) and a v2 (arena-column) tree shard.
            "trees-0000.json":
                '{"version": 1, "entries": {"[3,[[0,1],[1,2]]]": '
                '{"stamp": 1, "entry": {"complete": true, '
                '"shannon_steps": 0, "expansion_steps": 0, "tree": '
                '["&", [["L", 1, false], ["|", [["L", 0, false], '
                '["L", 2, false]]]]]}}}}',
            "trees-0001.json":
                '{"version": 2, "entries": {"[4,[[0,1],[2],[3]]]": '
                '{"stamp": 2, "entry": {"complete": true, '
                '"shannon_steps": 0, "expansion_steps": 0, "tree": '
                '{"v": 2, "kinds": [2, 2, 4, 2, 2, 5], '
                '"arity": [0, 0, 2, 0, 0, 3], '
                '"lits": [[0, false], [1, false], [2, false], '
                '[3, false]], "doms": [], "dnfs": []}}}}}',
        }
        for name, content in files.items():
            (legacy / name).write_text(content, encoding="utf-8")
        before = _snapshot(legacy)

        output = io.StringIO()
        assert run(["cache", "migrate", "--store", str(legacy),
                    "--dest", str(tmp_path / "new")], output=output) == 0
        assert "migrated 2 cache entries and 2 compiled artifacts" \
            in output.getvalue()
        assert "corrupt_shards: 1" in output.getvalue()
        assert _snapshot(legacy) == before  # the legacy directory is untouched

        with LogStore(str(tmp_path / "new")) as migrated:
            expected = _entry()
            for key in (_key(),
                        _key(method="approximate", epsilon=Fraction(0.1))):
                loaded = migrated.get(key)
                assert loaded == expected
                assert all(type(value) is Fraction
                           and (value.numerator, value.denominator)
                           == (expected.values[variable].numerator,
                               expected.values[variable].denominator)
                           for variable, value in loaded.values.items())
            v1 = migrated.get_artifact((3, ((0, 1), (1, 2))))
            assert v1.complete and trees_equal(
                v1.root, compile_dnf(DNF([(0, 1), (1, 2)])))
            v2 = migrated.get_artifact((4, ((0, 1), (2,), (3,))))
            assert v2.complete and trees_equal(
                v2.root, compile_dnf(DNF([(0, 1), (2,), (3,)])))
