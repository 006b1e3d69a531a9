"""Tests for the persistent cache store tier (repro.engine.store)."""

import json
import os
from fractions import Fraction

import pytest

from repro.boolean.dnf import DNF
from repro.engine import Engine, EngineConfig
from repro.engine.cache import CachedAttribution, LineageCache
from repro.engine.logstore import LogStore, migrate_store
from repro.engine.store import (
    STORE_FORMAT_VERSION,
    DiskStore,
    MemoryStore,
    decode_entry,
    decode_key,
    encode_entry,
    encode_key,
    load_results,
    save_results,
)


def _key(num_variables=3, clauses=((0, 1), (1, 2)), method="exact",
         epsilon=None, k=None):
    return ((num_variables, tuple(tuple(c) for c in clauses)),
            method, epsilon, k)


def _entry(converged=True):
    return CachedAttribution(
        method_used="exact",
        values={0: Fraction(3, 7), 1: Fraction(12345678901234567890, 3),
                2: Fraction(-1, 2)},
        bounds={0: (1, 5), 1: (2, 2)},
        converged=converged,
    )


class TestCodec:
    def test_key_roundtrip(self):
        key = _key(method="topk", epsilon=0.1, k=5)
        assert decode_key(encode_key(key)) == key

    def test_key_roundtrip_none_fields(self):
        key = _key(method="rank", epsilon=None, k=None)
        assert decode_key(encode_key(key)) == key

    def test_key_roundtrip_preserves_float_epsilon_exactly(self):
        key = _key(method="approximate", epsilon=0.30000000000000004)
        assert decode_key(encode_key(key))[2] == 0.30000000000000004

    def test_entry_roundtrip_is_exact(self):
        entry = _entry()
        decoded = decode_entry(encode_entry(entry))
        assert decoded == entry
        for variable, value in decoded.values.items():
            assert isinstance(value, Fraction)
            assert value == entry.values[variable]
        for variable, (lower, upper) in decoded.bounds.items():
            assert isinstance(lower, int) and isinstance(upper, int)

    def test_entry_roundtrip_keeps_converged_flag(self):
        decoded = decode_entry(encode_entry(_entry(converged=False)))
        assert decoded.converged is False

    def test_malformed_key_raises_value_error(self):
        with pytest.raises(ValueError):
            decode_key("not json at all {{{")
        with pytest.raises(ValueError):
            decode_key(json.dumps([1, [[0]], 42, None, None]))  # bad method


class TestMemoryStore:
    def test_roundtrip_and_items(self):
        store = MemoryStore()
        key, entry = _key(), _entry()
        assert store.get(key) is None
        store.put(key, entry)
        store.flush()
        assert store.get(key) == entry
        assert dict(store.items()) == {key: entry}
        assert store.stats()["entries"] == 1


def _write_shard(directory, name, entries, version=STORE_FORMAT_VERSION):
    """Write one legacy shard file: ``{encoded key: (stamp, entry)}``."""
    document = {"version": version,
                "entries": {encoded: {"stamp": stamp, "entry": entry}
                            for encoded, (stamp, entry) in entries.items()}}
    (directory / name).write_text(json.dumps(document), encoding="utf-8")


def _snapshot(directory):
    """Every file under ``directory`` with its bytes."""
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


class TestDiskStore:
    """The read-only reader of legacy sharded-JSON store directories."""

    def test_roundtrip_across_handles(self, tmp_path):
        key, entry = _key(), _entry()
        _write_shard(tmp_path, "shard-0002.json",
                     {encode_key(key): (1, encode_entry(entry))})
        for _handle in range(2):
            loaded = DiskStore(str(tmp_path)).get(key)
            assert loaded == entry
            assert all(isinstance(v, Fraction)
                       for v in loaded.values.values())

    def test_unflushed_puts_are_not_durable(self, tmp_path):
        reader = DiskStore(str(tmp_path))
        reader.put(_key(), _entry())
        reader.put_artifact(_canonical_key(), _artifact())
        assert reader.get(_key()) is None
        reader.flush()  # a no-op: flushed puts are not durable either
        assert DiskStore(str(tmp_path)).get(_key()) is None
        assert reader.stats()["dropped_writes"] == 2

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        # The reader writes nothing at all: no temp file, no meta.json,
        # not one byte of an existing shard changes.
        _write_shard(tmp_path, "shard-0000.json",
                     {encode_key(_key()): (1, encode_entry(_entry()))})
        (tmp_path / "shard-0001.json").write_text("{ damaged",
                                                  encoding="utf-8")
        before = _snapshot(tmp_path)
        reader = DiskStore(str(tmp_path))
        reader.put(_key(method="rank"), _entry())
        reader.flush()
        assert dict(reader.items()) == {_key(): _entry()}
        reader.stats()
        assert _snapshot(tmp_path) == before

    def test_corrupted_shard_is_ignored(self, tmp_path):
        key, entry = _key(), _entry()
        other = _key(clauses=((0, 2), (1, 2)))
        _write_shard(tmp_path, "shard-0000.json",
                     {encode_key(key): (1, encode_entry(entry))})
        (tmp_path / "shard-0001.json").write_text("{ this is not json",
                                                  encoding="utf-8")
        reader = DiskStore(str(tmp_path))
        assert reader.get(key) == entry  # the intact shard still serves
        assert reader.get(other) is None  # damage reads as empty
        assert reader.stats()["corrupt_shards"] == 1

    def test_structurally_invalid_shard_is_ignored(self, tmp_path):
        # One bad record discards its whole shard, good records included.
        _write_shard(tmp_path, "shard-0000.json",
                     {encode_key(_key()): (1, encode_entry(_entry())),
                      "[not-a-key]": (2, {})})
        store = DiskStore(str(tmp_path))
        assert store.get(_key()) is None
        assert store.corrupt_shards == 1

    def test_old_format_version_is_ignored(self, tmp_path):
        key, entry = _key(), _entry()
        _write_shard(tmp_path, "shard-0000.json",
                     {encode_key(key): (1, encode_entry(entry))},
                     version=STORE_FORMAT_VERSION - 1)
        reader = DiskStore(str(tmp_path))
        assert reader.get(key) is None
        assert reader.stats()["corrupt_shards"] == 1

    def test_stats_report(self, tmp_path):
        _write_shard(tmp_path, "shard-0000.json",
                     {encode_key(_key()): (1, encode_entry(_entry()))})
        stats = DiskStore(str(tmp_path)).stats()
        assert stats["backend"] == "disk"
        assert stats["mode"] == "ro"
        assert stats["entries"] == 1
        assert stats["format_version"] == STORE_FORMAT_VERSION
        assert stats["disk_bytes"] == os.path.getsize(
            tmp_path / "shard-0000.json")


class TestSaveLoadHelpers:
    def test_save_skips_unconverged(self):
        store = MemoryStore()
        written = save_results(
            [(_key(), _entry()),
             (_key(method="rank", epsilon=0.1), _entry(converged=False))],
            store)
        assert written == 1
        assert len(store) == 1

    def test_load_into_lru(self):
        store = MemoryStore()
        store.put(_key(), _entry())
        cache = LineageCache(16)
        assert load_results(store, cache.results) == 1
        assert cache.results.get(_key()) == _entry()


class TestEngineStoreTier:
    def _lineages(self):
        return [DNF([(0, 1), (1, 2)], domain=range(3)),
                DNF([(0, 1), (0, 2), (1, 2)], domain=range(3))]

    def test_warm_engine_bit_identical_to_cold(self, tmp_path):
        lineages = self._lineages()
        with LogStore(str(tmp_path)) as store:
            cold = Engine(EngineConfig(method="exact", store=store))
            cold_values = [a.values
                           for a in cold.attribute_lineages(lineages)]
        # A brand new engine and store handle over the same directory --
        # the restart scenario.
        with LogStore(str(tmp_path)) as store:
            warm = Engine(EngineConfig(method="exact", store=store))
            warm_values = [a.values
                           for a in warm.attribute_lineages(lineages)]
        assert warm_values == cold_values
        for values in warm_values:
            for value in values.values():
                assert isinstance(value, Fraction)
        assert warm.stats.store_hits > 0
        assert warm.stats.cache_misses == 0
        assert warm.stats.compilations == 0

    def test_store_hit_promotes_to_memory(self, tmp_path):
        lineages = self._lineages()
        with LogStore(str(tmp_path)) as store:
            Engine(EngineConfig(method="exact", store=store)
                   ).attribute_lineages(lineages)
        with LogStore(str(tmp_path)) as store:
            warm = Engine(EngineConfig(method="exact", store=store))
            warm.attribute_lineages(lineages)
            first_store_hits = warm.stats.store_hits
            warm.attribute_lineages(lineages)
        # The second pass is pure memory: no further store lookups hit.
        assert warm.stats.store_hits == first_store_hits
        assert warm.stats.cache_hits >= len(lineages)

    def test_corrupted_store_recomputes_without_crash(self, tmp_path):
        lineages = self._lineages()
        with LogStore(str(tmp_path)) as store:
            cold = Engine(EngineConfig(method="exact", store=store))
            expected = [a.values for a in cold.attribute_lineages(lineages)]
        (tmp_path / "store.log").write_bytes(b"garbage")
        with LogStore(str(tmp_path)) as store:
            warm = Engine(EngineConfig(method="exact", store=store))
            values = [a.values for a in warm.attribute_lineages(lineages)]
        assert values == expected
        assert warm.stats.store_hits == 0
        assert warm.stats.compilations > 0

    def test_save_and_load_cache_roundtrip(self, tmp_path):
        lineages = self._lineages()
        engine = Engine(EngineConfig(method="exact"))
        expected = [a.values for a in engine.attribute_lineages(lineages)]
        with LogStore(str(tmp_path)) as store:
            written = engine.save_cache(store)
            assert written == len(engine.cache.results.snapshot())

            fresh = Engine(EngineConfig(method="exact"))
            loaded = fresh.load_cache(store)
        assert loaded == written
        values = [a.values for a in fresh.attribute_lineages(lineages)]
        assert values == expected
        assert fresh.stats.compilations == 0

    def test_save_cache_without_store_raises(self):
        with pytest.raises(ValueError):
            Engine(EngineConfig()).save_cache()
        with pytest.raises(ValueError):
            Engine(EngineConfig()).load_cache()

    def test_ranking_results_persist_per_epsilon_and_k(self, tmp_path):
        lineage = DNF([(0, 1), (1, 2), (0, 2)], domain=range(3))
        with LogStore(str(tmp_path)) as store:
            Engine(EngineConfig(method="topk", k=2, epsilon=0.1,
                                store=store)).attribute_lineages([lineage])
        with LogStore(str(tmp_path)) as store:
            warm = Engine(EngineConfig(method="topk", k=2, epsilon=0.1,
                                       store=store))
            warm.attribute_lineages([lineage])
            # A different k is a different key: no false sharing.
            other_k = Engine(EngineConfig(method="topk", k=1, epsilon=0.1,
                                          store=store))
            other_k.attribute_lineages([lineage])
        assert warm.stats.store_hits == 1
        assert other_k.stats.store_hits == 0


def _canonical_key(num_variables=3, clauses=((0, 1), (1, 2))):
    return (num_variables, tuple(tuple(c) for c in clauses))


def _artifact(complete=True, function=None):
    from repro.dtree.compile import compile_dnf
    from repro.dtree.incremental import IncrementalCompiler
    from repro.engine.artifact import CompiledLineage

    if function is None:
        function = DNF([(0, 1), (1, 2)], domain=range(3))
    if complete:
        return CompiledLineage(root=compile_dnf(function), complete=True)
    compiler = IncrementalCompiler(function)
    compiler.expand_step()
    return CompiledLineage.from_compiler(compiler)


class TestEpsilonCanonicalization:
    """ResultKey epsilon is one exact canonical encoding everywhere."""

    def test_float_and_fraction_epsilon_share_one_key(self):
        from repro.engine.cache import LineageCache, canonical_epsilon

        key = _canonical_key()
        via_float = LineageCache.result_key(key, "approximate", 0.1)
        via_fraction = LineageCache.result_key(key, "approximate",
                                               Fraction(0.1))
        assert via_float == via_fraction
        assert hash(via_float) == hash(via_fraction)
        assert encode_key(via_float) == encode_key(via_fraction)
        assert canonical_epsilon(None) is None

    def test_distinct_floats_stay_distinct(self):
        # 0.1 + 0.2 != 0.3 in binary: the canonical encoding is exact,
        # so it must not conflate genuinely different epsilons either.
        a = encode_key(_key(method="approximate", epsilon=0.1 + 0.2))
        b = encode_key(_key(method="approximate", epsilon=0.3))
        assert a != b

    def test_disk_encoding_carries_no_float(self):
        encoded = encode_key(_key(method="approximate", epsilon=0.1))
        raw = json.loads(encoded)
        assert isinstance(raw[3], str) and "/" in raw[3]
        decoded = decode_key(encoded)
        assert decoded[2] == Fraction(0.1) == 0.1

    def test_legacy_float_keyed_shards_stay_readable(self, tmp_path):
        """A shard written with raw-float epsilons must keep serving."""
        key, entry = _key(method="approximate", epsilon=0.1), _entry()
        # Forge the pre-canonical on-disk form: epsilon as a JSON float.
        (num_variables, clauses), method, epsilon, k = key
        legacy = json.dumps(
            [num_variables, [list(c) for c in clauses], method, 0.1, k],
            separators=(",", ":"))
        assert legacy != encode_key(key)
        _write_shard(tmp_path, "shard-0003.json",
                     {legacy: (1, encode_entry(entry))})

        reader = DiskStore(str(tmp_path))
        assert reader.get(key) == entry  # re-keyed canonically on load
        # Migrated, the entry lives under the canonical encoding.
        with LogStore(str(tmp_path / "log")) as destination:
            assert migrate_store(reader, destination) == (1, 0)
        with LogStore(str(tmp_path / "log")) as reopened:
            assert reopened.get(key) == entry

    def test_items_normalize_legacy_keys(self, tmp_path):
        key, entry = _key(method="approximate", epsilon=0.25), _entry()
        legacy = json.dumps([3, [[0, 1], [1, 2]], "approximate", 0.25, None])
        _write_shard(tmp_path, "shard-0000.json",
                     {legacy: (1, encode_entry(entry))})
        items = list(DiskStore(str(tmp_path)).items())
        assert items == [(key, entry)]
        for decoded_key, _value in items:
            assert isinstance(decoded_key[2], Fraction)


def _write_tree_shard(directory, entries, version=2,
                      name="trees-0000.json"):
    """Write one legacy tree shard: ``{canonical key: encoded artifact}``."""
    from repro.engine.store import encode_canonical_key

    _write_shard(directory, name,
                 {encode_canonical_key(key): (stamp, entry)
                  for stamp, (key, entry) in enumerate(entries.items(), 1)},
                 version=version)


class TestArtifactTier:
    def test_memory_store_artifact_roundtrip(self):
        store = MemoryStore()
        key, artifact = _canonical_key(), _artifact()
        assert store.get_artifact(key) is None
        store.put_artifact(key, artifact)
        assert store.get_artifact(key) is artifact
        assert dict(store.artifact_items()) == {key: artifact}
        assert store.stats()["artifacts"] == 1

    def test_disk_store_artifact_roundtrip_across_handles(self, tmp_path):
        from repro.dtree.serialize import trees_equal
        from repro.engine.artifact import encode_artifact

        key = _canonical_key()
        partial = _artifact(complete=False,
                            function=DNF([(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert not partial.complete
        for artifact in (_artifact(complete=True), partial):
            directory = tmp_path / str(artifact.complete)
            directory.mkdir()
            _write_tree_shard(directory, {key: encode_artifact(artifact)})
            for _handle in range(2):
                loaded = DiskStore(str(directory)).get_artifact(key)
                assert loaded is not None
                assert loaded.complete == artifact.complete
                assert trees_equal(loaded.root, artifact.root)

    def test_legacy_v1_tree_shard_reads_losslessly(self, tmp_path):
        # A shard written by a pre-arena deployment: format version 1,
        # trees in the legacy nested-list encoding.  The reader must
        # decode it losslessly (ARTIFACT_COMPAT_VERSIONS).
        from repro.dtree.compile import compile_dnf
        from repro.dtree.serialize import trees_equal

        key = _canonical_key()
        _write_tree_shard(tmp_path, {key: {
            "complete": True,
            "shannon_steps": 0,
            "expansion_steps": 0,
            "tree": ["&", [["L", 1, False],
                           ["|", [["L", 0, False], ["L", 2, False]]]]],
        }}, version=1)

        reader = DiskStore(str(tmp_path))
        loaded = reader.get_artifact(key)
        assert loaded is not None and loaded.complete
        expected = compile_dnf(DNF([(0, 1), (1, 2)], domain=range(3)))
        assert trees_equal(loaded.root, expected)
        assert reader.corrupt_shards == 0

    def test_corrupted_tree_shard_is_ignored(self, tmp_path):
        key = _canonical_key()
        (tmp_path / "trees-0000.json").write_text("{ nope", encoding="utf-8")
        _write_shard(tmp_path, "shard-0000.json",
                     {encode_key(_key()): (1, encode_entry(_entry()))})
        reader = DiskStore(str(tmp_path))
        assert reader.get_artifact(key) is None
        assert reader.corrupt_shards == 1
        # Result shards are unaffected by tree-shard damage.
        assert reader.get(_key()) == _entry()

    def test_tampered_tree_is_rejected_not_crashing(self, tmp_path):
        from repro.engine.artifact import encode_artifact

        key, artifact = _canonical_key(), _artifact()
        entry = encode_artifact(artifact)
        entry["complete"] = not entry["complete"]
        _write_tree_shard(tmp_path, {key: entry})
        reader = DiskStore(str(tmp_path))
        assert reader.get_artifact(key) is None
        assert reader.corrupt_shards == 1

    def test_stats_report_per_kind(self, tmp_path):
        from repro.engine.artifact import encode_artifact

        _write_shard(tmp_path, "shard-0000.json",
                     {encode_key(_key()): (1, encode_entry(_entry()))})
        _write_tree_shard(tmp_path,
                          {_canonical_key(): encode_artifact(_artifact())})
        stats = DiskStore(str(tmp_path)).stats()
        kinds = stats["kinds"]
        assert kinds["results"]["entries"] == 1
        assert kinds["compiled_trees"]["entries"] == 1
        assert kinds["results"]["disk_bytes"] > 0
        assert kinds["compiled_trees"]["disk_bytes"] > 0
        assert stats["disk_bytes"] == (kinds["results"]["disk_bytes"]
                                       + kinds["compiled_trees"]["disk_bytes"])

    def test_save_load_helpers_skip_trivial_partials(self):
        from repro.engine.artifact import CompiledLineage
        from repro.engine.store import load_artifacts, save_artifacts
        from repro.dtree.incremental import node_for

        store = MemoryStore()
        trivial = CompiledLineage(
            root=node_for(DNF([(0, 1), (1, 2)], domain=range(3))),
            complete=False)
        written = save_artifacts(
            [(_canonical_key(), _artifact()),
             (_canonical_key(clauses=((0, 1),)), trivial)], store)
        assert written == 1
        cache = LineageCache(16).artifacts
        assert load_artifacts(store, cache) == 1

    def test_engine_resumes_persisted_partial_across_processes(self, tmp_path):
        # A budget-starved certain ranking persists its partial tree; a
        # fresh process over the same directory resumes it rather than
        # restarting the refinement.
        lineage = DNF([[i, (i + 1) % 12] for i in range(12)])
        # 12 variables: the first round alone costs 12 bound evaluations,
        # so a 20-step budget allows one expansion batch (a non-trivial,
        # persistable frontier) but not convergence.
        with LogStore(str(tmp_path)) as store:
            starved = Engine(EngineConfig(method="rank", epsilon=None,
                                          max_shannon_steps=20, store=store))
            (partial,) = starved.attribute_lineages([lineage])
        assert starved.stats.partial_results == 1

        with LogStore(str(tmp_path)) as store:
            warm = Engine(EngineConfig(method="rank", epsilon=None,
                                       store=store))
            (full,) = warm.attribute_lineages([lineage])
        assert warm.stats.artifact_store_hits == 1
        assert warm.stats.artifact_resumes == 1
        assert warm.stats.tree_compilations == 0
        # The resumed run converges; its interval evidence contains the
        # exact values.
        from repro.baselines.brute_force import banzhaf_all_brute_force

        exact = banzhaf_all_brute_force(lineage)
        for variable, (lo, hi) in full.bounds.items():
            assert lo <= exact[variable] <= hi
