"""Unit tests for the append-only log store tier (repro.engine.logstore).

Crash-injection, multi-process concurrency, and model-based property
coverage live in ``test_store_crash.py`` / ``test_store_multiproc.py`` /
``test_store_properties.py``; this file pins the single-process
contract: exact round-trips, torn-tail and corrupt-record recovery,
tombstoned eviction, compaction, locking modes, store ownership, and
the one-shot migration path.
"""

import gc
import os
from fractions import Fraction

import pytest

from repro.db.database import Database
from repro.engine import Engine, EngineConfig
from repro.engine.logstore import (
    LOG_FORMAT_VERSION,
    LogStore,
    _CompactionWorker,
    StoreLockedError,
    migrate_store,
    open_store,
)
from repro.engine.store import (
    DiskStore,
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


def _database():
    database = Database()
    for value in ("a", "b"):
        database.add_fact("R", (value,))
    return database


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

    def test_a_reader_never_parses_a_log_of_another_version(self, tmp_path):
        """A wrong-version log reads as empty, also after the misses and
        iterations that make a reader refresh; a writer that moves it
        aside makes the reader rescan the new log."""
        with LogStore(str(tmp_path)) as store:
            store.put(_key(), _entry())
        log_path = os.path.join(str(tmp_path), "store.log")
        with open(log_path, "r+b") as handle:
            handle.seek(4)
            handle.write((LOG_FORMAT_VERSION + 1).to_bytes(4, "big"))
        with LogStore(str(tmp_path), mode="ro") as reader:
            assert reader.get(_key()) is None
            assert list(reader.items()) == [] and len(reader) == 0
            with LogStore(str(tmp_path)) as writer:
                writer.put(_key(), _entry(converged=False))
            assert reader.get(_key()) == _entry(converged=False)


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
            # flock is per open file: a store this process left open
            # excludes a second writer exactly like another process.
            with pytest.raises(StoreLockedError) as excinfo:
                LogStore(str(tmp_path))
            message = str(excinfo.value)
            assert "writer lock" in message and str(tmp_path) in message
            assert "another process" in message
            assert "still open in this one" in message
        # The lock dies with the handle: a new writer succeeds.
        with LogStore(str(tmp_path)) as successor:
            successor.put(_key(), _entry())
            successor.flush()

    def test_a_reader_creates_nothing(self, tmp_path):
        missing = tmp_path / "missing"
        reader = LogStore(str(missing), mode="ro")
        assert not missing.exists()
        assert reader.get(_key()) is None
        assert len(reader) == 0 and list(reader.items()) == []
        assert reader.stats()["disk_bytes"] == 0
        reader.put(_key(), _entry())  # dropped, not written
        reader.flush()
        assert not missing.exists()
        # Once a writer creates the log, the reader sees its records.
        with LogStore(str(missing)) as writer:
            writer.put(_key(), _entry())
            writer.flush()
            assert reader.get(_key()) == _entry()
        reader.close()
        assert sorted(os.listdir(str(missing))) == ["store.log",
                                                    "writer.lock"]

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


class TestBackendSelection:
    def test_open_store_backends(self, tmp_path):
        log = open_store(str(tmp_path / "l"))
        assert isinstance(log, LogStore)
        log.close()
        with pytest.raises(TypeError):
            open_store(str(tmp_path / "s"), shards=2)
        assert not (tmp_path / "s").exists()

    def test_engine_config_rejects_a_path(self, tmp_path):
        from repro.engine.serve import AttributionService

        for path in (str(tmp_path), tmp_path):
            with pytest.raises(TypeError, match="open_store"):
                EngineConfig(store=path)
            with pytest.raises(TypeError, match="open_store"):
                AttributionService(_database(), store=path)
        assert os.listdir(str(tmp_path)) == []  # nothing was opened

    def test_engine_and_service_leave_the_store_to_its_opener(
            self, tmp_path):
        from repro.boolean.dnf import DNF
        from repro.engine.serve import AttributionService

        lineage = DNF([(0, 1), (1, 2)], domain=range(3))
        store = LogStore(str(tmp_path))
        engine = Engine(EngineConfig(store=store))
        (first,) = engine.attribute_lineages([lineage])
        service = AttributionService(_database(), store=store)
        assert service.submit({"op": "attribute",
                               "query": "Q(X) :- R(X)"})["ok"]
        store.close()
        del engine, service
        gc.collect()
        with LogStore(str(tmp_path)) as reopened:
            warm = Engine(EngineConfig(store=reopened))
            (second,) = warm.attribute_lineages([lineage])
        assert warm.stats.store_hits == 1
        assert second.values == first.values


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

        destination = open_store(str(tmp_path / "log"))
        results, artifacts = migrate_store(source, destination)
        assert (results, artifacts) == (8, 1)
        destination.close()

        # The source stays fully readable, and the migrated entries
        # round-trip bit-identically.
        assert all(source.get(key) == _entry() for key in keys)
        reopened = open_store(str(tmp_path / "log"))
        for key in keys:
            loaded = reopened.get(key)
            assert loaded == _entry()
            assert all(isinstance(v, Fraction)
                       for v in loaded.values.values())
        assert reopened.artifact_count() == 1
        reopened.close()

    def test_cli_merges_an_old_sharded_layout_into_one_store(self, tmp_path):
        import io

        from repro.cli import run
        from repro.engine.artifact import encode_artifact

        # Older versions sharded a store into log stores at DIR/root-NN.
        keys = _keys(12)
        roots = [tmp_path / "sharded" / f"root-{index:02d}"
                 for index in range(2)]
        artifact_keys = [_canonical_key(), (4, ((0, 1), (2,), (3,)))]
        for index, root in enumerate(roots):
            with LogStore(str(root)) as shard:
                for key in keys[index::2]:
                    shard.put(key, _entry(converged=bool(index)))
                shard.put_artifact(artifact_keys[index], _artifact())
        before = [_snapshot(root) for root in roots]

        merged = str(tmp_path / "merged")
        for root in roots:
            output = io.StringIO()
            assert run(["cache", "migrate", "--store", str(root),
                        "--dest", merged], output=output) == 0
            assert "migrated 6 cache entries and 1 compiled artifacts" \
                in output.getvalue()
        assert [_snapshot(root) for root in roots] == before

        with LogStore(merged, mode="ro") as store:
            assert len(store) == 12 and store.artifact_count() == 2
            for index, key in enumerate(keys):
                loaded = store.get(key)
                expected = _entry(converged=bool(index % 2))
                assert loaded == expected
                assert [(type(value), value.numerator, value.denominator)
                        for value in loaded.values.values()] \
                    == [(Fraction, value.numerator, value.denominator)
                        for value in expected.values.values()]
            for key in artifact_keys:
                assert encode_artifact(store.get_artifact(key)) \
                    == encode_artifact(_artifact())

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

    def test_a_v2_tree_shard_migrates_into_the_current_codec(self, tmp_path):
        from repro.baselines.brute_force import banzhaf_all_brute_force
        from repro.boolean.dnf import DNF
        from repro.core.exaban import exaban_all
        from repro.dtree.compile import compile_dnf
        from repro.dtree.serialize import trees_equal

        # A version-2 tree shard, byte for byte as the sharded-JSON store
        # wrote it: the triangle's d-tree in the v2 codec (arities only).
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "trees-0000.json").write_text(
            '{"version": 2, "entries": {"[3,[[0,1],[0,2],[1,2]]]": '
            '{"stamp": 1, "entry": {"complete": true, "shannon_steps": 1, '
            '"expansion_steps": 0, "tree": {"v": 2, '
            '"kinds": [2, 2, 2, 5, 4, 2, 2, 2, 4, 4, 6], '
            '"arity": [0, 0, 0, 2, 2, 0, 0, 0, 2, 2, 2], '
            '"lits": [[0, false], [1, false], [2, false], [0, true], '
            '[1, false], [2, false]], "doms": [], "dnfs": []}}}}}',
            encoding="utf-8")
        source = DiskStore(str(legacy))
        assert source.corrupt_shards == 0
        with LogStore(str(tmp_path / "log")) as destination:
            assert migrate_store(source, destination) == (0, 1)

        function = DNF([(0, 1), (0, 2), (1, 2)])
        with LogStore(str(tmp_path / "log")) as migrated:
            artifact = migrated.get_artifact((3, ((0, 1), (0, 2), (1, 2))))
        assert artifact.complete and artifact.shannon_steps == 1
        assert trees_equal(artifact.root, compile_dnf(function))
        assert exaban_all(artifact.root) == banzhaf_all_brute_force(function)
        # The log holds it in the current codec, with explicit children.
        log = (tmp_path / "log" / "store.log").read_bytes()
        assert b'"children"' in log and b'"arity"' in log


class TestRetiredRankingRecords:
    def test_float_tier_records_load_but_are_never_served(self, tmp_path):
        # Stores written while the engine had a float ranking tier hold
        # results under the methods "rank-float" and "topk-float".  A
        # warm start still loads them, but no request key reaches them.
        from repro import Database, parse_query
        from repro.db.lineage import lineage_of_answers
        from repro.engine.cache import CachedAttribution, canonical_epsilon
        from repro.engine.canonical import canonicalize
        from repro.engine.serve import AttributionService

        database = Database()
        for value in ("a", "b"):
            database.add_fact("R", (value,))
        for row in (("a", 1), ("b", 1), ("b", 2)):
            database.add_fact("S", row)
        query = "Q() :- R(X), S(X, Y)"
        (answer,) = lineage_of_answers(parse_query(query), database)
        key = canonicalize(answer.lineage).key
        epsilon = canonical_epsilon(EngineConfig().epsilon)

        def record(method):
            # Negative values no Banzhaf ranking has: serving them shows.
            return CachedAttribution(
                method_used=method,
                values={v: Fraction(-1) for v in range(key[0])},
                bounds={v: (-1, -1) for v in range(key[0])})

        with LogStore(str(tmp_path)) as store:
            store.put((key, "rank-float", epsilon, None), record("rank-float"))
            store.put((key, "topk-float", epsilon, 1), record("topk-float"))
            store.flush()

        requests = ({"op": "rank", "query": query},
                    {"op": "topk", "query": query, "k": 1})
        storeless = AttributionService(database)
        expected = [storeless.submit(request) for request in requests]
        assert all(response["ok"] for response in expected)

        store = LogStore(str(tmp_path))
        try:
            service = AttributionService(database, store=store,
                                         warm_start=True)
            assert service.warm_loaded == 2
            assert not service.warm_start_failed
            assert [service.submit(request) for request in requests] \
                == expected
            stats = service.stats()
            assert stats["cache_hits"] == 0
            assert stats["store_hits"] == 0
            assert stats["cache_misses"] == 2
        finally:
            store.close()
