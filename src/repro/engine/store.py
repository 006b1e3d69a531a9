"""Persistent cache stores: the engine's cross-process tiers.

The in-memory :class:`~repro.engine.cache.LineageCache` dies with the
process, so every deployment starts cold.  This module adds a pluggable
*store* tier behind it: on a memory miss the engine consults the
configured :class:`CacheStore`, and freshly computed (converged) results
are written back, so canonical-space attributions survive process
restarts and can be shared between a warm-up job and a serving process.

Stores carry **two artifact kinds**:

* **results** -- one :class:`~repro.engine.cache.CachedAttribution` per
  :data:`~repro.engine.cache.ResultKey` (canonical lineage, method,
  canonical epsilon, k);
* **compiled-lineage artifacts** -- one
  :class:`~repro.engine.artifact.CompiledLineage` per canonical lineage
  alone (method/epsilon/k independent): a complete d-tree, or a partial
  one whose ``DNFLeaf`` frontier a warm-started process *resumes*
  instead of recompiling.  Serialized exactly via
  :mod:`repro.dtree.serialize`.

Three stores implement the protocol:

* :class:`~repro.engine.logstore.LogStore` -- the persistent store, an
  append-only record log (see :mod:`repro.engine.logstore`);
* :class:`MemoryStore` -- a dict-backed passthrough with the same
  interface, for tests and for composing a serving tier without touching
  disk;
* :class:`DiskStore` -- a read-only reader of the sharded-JSON
  directories older versions wrote, which ``repro cache migrate`` drains
  into a log store.

Entries are serialized to an exact JSON form (``Fraction`` values as
``"n/d"`` strings), so a warm-started engine returns bit-identical
values.  Result keys encode epsilon through the **canonical exact
encoding** (:func:`~repro.engine.cache.canonical_epsilon`: an exact
``Fraction``, written as ``"n/d"``), shared with the memory tier, so
float-repr drift can never split or alias equivalent entries across
processes.  :func:`decode_key` also accepts the raw-float epsilons of
old shards and decodes them to the canonical form.
"""

from __future__ import annotations

import json
import os
import threading
from fractions import Fraction
from typing import Dict, Iterator, Optional, Protocol, Tuple

# Keep both codec bindings: perfbench/tracing.py wraps them in this module.
from repro.engine.artifact import (
    ARTIFACT_COMPAT_VERSIONS,
    CompiledLineage,
    decode_artifact,
    encode_artifact,
)
from repro.engine.cache import CachedAttribution, ResultKey, canonical_epsilon
from repro.engine.canonical import CanonicalKey
from repro.reliability import faults

#: Version of the legacy result shards :class:`DiskStore` reads.  Shards
#: recording a different version read as empty.
STORE_FORMAT_VERSION = 1


class CacheStore(Protocol):
    """What the engine needs from a persistent store.

    Implementations must be safe to call from several threads of one
    process; :class:`~repro.engine.logstore.LogStore` additionally
    shares one directory between a single writer process and any number
    of reader processes.  Whoever opens a store closes it: an engine or
    service that is handed one never does.

    Methods
    -------
    get(key):
        Return the stored :class:`CachedAttribution` for ``key`` (a
        canonical-space :data:`ResultKey`) or ``None``.
    put(key, value):
        Insert or overwrite one entry.  May buffer; durability is only
        guaranteed after :meth:`flush`.
    flush():
        Make every buffered ``put``/``put_artifact`` durable.
    items():
        Iterate ``(key, value)`` pairs over the whole store (used by
        warm-start loading and ``repro cache stats``).
    get_artifact(key) / put_artifact(key, value) / artifact_items():
        Same contract for compiled-lineage artifacts, keyed by
        :data:`~repro.engine.canonical.CanonicalKey` alone.
    stats():
        A plain-dict summary (per-kind entry counts, backend details)
        for reporting.
    """

    def get(self, key: ResultKey) -> Optional[CachedAttribution]: ...

    def put(self, key: ResultKey, value: CachedAttribution) -> None: ...

    def flush(self) -> None: ...

    def items(self) -> Iterator[Tuple[ResultKey, CachedAttribution]]: ...

    def get_artifact(self, key: CanonicalKey
                     ) -> Optional[CompiledLineage]: ...

    def put_artifact(self, key: CanonicalKey,
                     value: CompiledLineage) -> None: ...

    def artifact_items(self) -> Iterator[Tuple[CanonicalKey,
                                               CompiledLineage]]: ...

    def stats(self) -> Dict[str, object]: ...


# --------------------------------------------------------------------- #
# Exact JSON serialization of keys and entries
# --------------------------------------------------------------------- #


def _encode_number(value) -> object:
    """Encode an int (JSON int, arbitrary precision) or Fraction (``"n/d"``).

    The two cases stay distinguishable so decoding restores the exact
    original type: bounds are ints, values are ``Fraction``.
    """
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value
    raise TypeError(f"cannot serialize numeric type {type(value).__name__}")


def _decode_number(encoded):
    if isinstance(encoded, str):
        numerator, _, denominator = encoded.partition("/")
        return Fraction(int(numerator), int(denominator))
    if isinstance(encoded, int):
        return encoded
    raise ValueError(f"malformed stored number {encoded!r}")


def encode_key(key: ResultKey) -> str:
    """Deterministic string form of a :data:`ResultKey` (the shard-entry key).

    The canonical clause tuples become nested JSON lists; epsilon is
    normalized through :func:`~repro.engine.cache.canonical_epsilon` and
    written as the exact ``"n/d"`` string, so every process encodes an
    equivalent key identically regardless of the numeric type it held.
    """
    (num_variables, clauses), method, epsilon, k = key
    fraction = canonical_epsilon(epsilon)
    return json.dumps(
        [num_variables, [list(clause) for clause in clauses], method,
         None if fraction is None else _encode_number(fraction), k],
        separators=(",", ":"),
    )


def decode_key(encoded: str) -> ResultKey:
    """Inverse of :func:`encode_key` (raises ``ValueError`` on malformed input).

    Accepts both the canonical ``"n/d"`` epsilon encoding and the legacy
    raw-float one of old shards; either decodes to the canonical
    ``Fraction``-keyed :data:`ResultKey`.
    """
    try:
        num_variables, clauses, method, epsilon, k = json.loads(encoded)
        canonical = (int(num_variables),
                     tuple(tuple(int(v) for v in clause)
                           for clause in clauses))
        if not isinstance(method, str):
            raise ValueError(f"malformed method {method!r}")
        if epsilon is None:
            fraction = None
        elif isinstance(epsilon, str):
            fraction = _decode_number(epsilon)
            if not isinstance(fraction, Fraction):
                raise ValueError(f"malformed epsilon {epsilon!r}")
        elif isinstance(epsilon, (int, float)) and not isinstance(epsilon, bool):
            fraction = canonical_epsilon(epsilon)
        else:
            raise ValueError(f"malformed epsilon {epsilon!r}")
        return (canonical, method, fraction,
                None if k is None else int(k))
    except (TypeError, json.JSONDecodeError) as error:
        raise ValueError(f"malformed stored key {encoded!r}") from error


def encode_canonical_key(key: CanonicalKey) -> str:
    """Deterministic string form of a bare canonical lineage key."""
    num_variables, clauses = key
    return json.dumps(
        [num_variables, [list(clause) for clause in clauses]],
        separators=(",", ":"),
    )


def decode_canonical_key(encoded: str) -> CanonicalKey:
    """Inverse of :func:`encode_canonical_key` (``ValueError`` on damage)."""
    try:
        num_variables, clauses = json.loads(encoded)
        return (int(num_variables),
                tuple(tuple(int(v) for v in clause) for clause in clauses))
    except (TypeError, json.JSONDecodeError) as error:
        raise ValueError(
            f"malformed stored canonical key {encoded!r}") from error


def encode_entry(value: CachedAttribution) -> Dict[str, object]:
    """JSON-serializable form of one :class:`CachedAttribution`."""
    return {
        "method_used": value.method_used,
        "converged": value.converged,
        "values": [[variable, _encode_number(fraction)]
                   for variable, fraction in sorted(value.values.items())],
        "bounds": [[variable, [_encode_number(lower), _encode_number(upper)]]
                   for variable, (lower, upper) in sorted(value.bounds.items())],
    }


def decode_entry(encoded: Dict[str, object]) -> CachedAttribution:
    """Inverse of :func:`encode_entry` (raises ``ValueError``/``KeyError``)."""
    values = {int(variable): Fraction(_decode_number(number))
              for variable, number in encoded["values"]}
    bounds = {int(variable): (_decode_number(lower), _decode_number(upper))
              for variable, (lower, upper) in encoded["bounds"]}
    return CachedAttribution(
        method_used=str(encoded["method_used"]),
        values=values,
        bounds=bounds,
        converged=bool(encoded["converged"]),
    )


# --------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------- #


class MemoryStore:
    """Dict-backed :class:`CacheStore` (no persistence).

    Useful in tests and for wiring a store-shaped tier -- e.g. one shared
    by several engines of a service -- without touching disk.  ``flush``
    is a no-op; there is nothing to make durable.  Carries both kinds:
    results and compiled-lineage artifacts.
    """

    def __init__(self) -> None:
        self._entries: Dict[ResultKey, CachedAttribution] = {}
        self._artifacts: Dict[CanonicalKey, CompiledLineage] = {}
        self._lock = threading.Lock()
        self.gets = 0
        self.puts = 0

    def get(self, key: ResultKey) -> Optional[CachedAttribution]:
        with self._lock:
            self.gets += 1
            return self._entries.get(key)

    def put(self, key: ResultKey, value: CachedAttribution) -> None:
        with self._lock:
            self.puts += 1
            self._entries[key] = value

    def get_artifact(self, key: CanonicalKey) -> Optional[CompiledLineage]:
        with self._lock:
            return self._artifacts.get(key)

    def put_artifact(self, key: CanonicalKey,
                     value: CompiledLineage) -> None:
        with self._lock:
            self._artifacts[key] = value

    def flush(self) -> None:
        """No-op (a memory store is always 'durable' for its lifetime)."""

    def items(self) -> Iterator[Tuple[ResultKey, CachedAttribution]]:
        with self._lock:
            snapshot = list(self._entries.items())
        return iter(snapshot)

    def artifact_items(self) -> Iterator[Tuple[CanonicalKey, CompiledLineage]]:
        with self._lock:
            snapshot = list(self._artifacts.items())
        return iter(snapshot)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Per-kind entry counts plus raw get/put counters."""
        with self._lock:
            return {"backend": "memory", "entries": len(self._entries),
                    "artifacts": len(self._artifacts),
                    "gets": self.gets, "puts": self.puts}


class DiskStore:
    """Read-only reader of a legacy sharded-JSON store directory.

    Before :class:`~repro.engine.logstore.LogStore` became the only
    writable store, stores were directories of JSON shard files:
    ``shard-<index>.json`` for results and ``trees-<index>.json`` for
    compiled-lineage artifacts, one document per file::

        {"version": 1,
         "entries": {"<encoded key>": {"stamp": 7, "entry": {...}}}}

    ``repro cache migrate`` drains such a directory into a log store
    through this reader.  Opening one loads every shard file at once and
    never creates or writes a file.  A shard that fails to parse, fails
    validation of any record, or records a version other than
    :data:`STORE_FORMAT_VERSION` (results) or one of
    :data:`~repro.engine.artifact.ARTIFACT_COMPAT_VERSIONS` (trees) reads
    as empty and counts in ``corrupt_shards``.  Result keys written with
    a raw-float epsilon are re-keyed canonically by :func:`decode_key`;
    when two records decode to one key, the higher stamp wins.

    ``put``/``put_artifact`` drop the write (counted in
    ``dropped_writes``) and ``flush`` does nothing: the contract of
    ``LogStore(mode="ro")``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.corrupt_shards = 0
        self.dropped_writes = 0
        self._lock = threading.Lock()  # guards dropped_writes only
        self._entries: Dict[ResultKey, CachedAttribution] = {}
        self._artifacts: Dict[CanonicalKey, CompiledLineage] = {}
        #: Per kind: [shard files, bytes on disk].
        self._footprint = {"results": [0, 0], "compiled_trees": [0, 0]}
        stamps: Dict[tuple, int] = {}
        for name in sorted(os.listdir(path)):
            kind = _legacy_shard_kind(name)
            if kind is not None:
                self._load(name, kind, stamps)

    def _load(self, name: str, kind: str, stamps: Dict[tuple, int]) -> None:
        """Merge one shard file; a damaged shard reads as empty."""
        if kind == "results":
            versions = frozenset({STORE_FORMAT_VERSION})
            decode_one_key, decode_value = decode_key, decode_entry
            into: Dict = self._entries
        else:
            versions = ARTIFACT_COMPAT_VERSIONS
            decode_one_key = decode_canonical_key
            decode_value = decode_artifact
            into = self._artifacts
        shard_path = os.path.join(self.path, name)
        footprint = self._footprint[kind]
        try:
            footprint[1] += os.path.getsize(shard_path)
            footprint[0] += 1
            with open(shard_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            if document.get("version") not in versions:
                raise ValueError(f"format version {document.get('version')!r}")
            # Decode the whole shard before merging any of it, so one bad
            # record discards its shard rather than part of it.
            decoded = [(decode_one_key(encoded_key), int(record["stamp"]),
                        decode_value(record["entry"]))
                       for encoded_key, record in document["entries"].items()]
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                ZeroDivisionError):
            self.corrupt_shards += 1
            return
        for key, stamp, value in decoded:
            if stamps.get((kind, key), -1) < stamp:
                stamps[(kind, key)] = stamp
                into[key] = value

    # Defined here, not inherited: perfbench/tracing.py reads __dict__.

    def get(self, key: ResultKey) -> Optional[CachedAttribution]:
        faults.check("store.read")
        return self._entries.get(key)

    def get_artifact(self, key: CanonicalKey) -> Optional[CompiledLineage]:
        return self._artifacts.get(key)

    def items(self) -> Iterator[Tuple[ResultKey, CachedAttribution]]:
        return iter(self._entries.items())

    def artifact_items(self) -> Iterator[Tuple[CanonicalKey, CompiledLineage]]:
        return iter(self._artifacts.items())

    def put(self, key: ResultKey, value: CachedAttribution) -> None:
        with self._lock:
            self.dropped_writes += 1

    def put_artifact(self, key: CanonicalKey,
                     value: CompiledLineage) -> None:
        with self._lock:
            self.dropped_writes += 1

    def flush(self) -> None:
        """Nothing to make durable: the reader never writes."""

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Per-kind entry counts, shard files and bytes on disk."""
        (shard_files, result_bytes), (tree_files, tree_bytes) = (
            self._footprint["results"], self._footprint["compiled_trees"])
        return {
            "backend": "disk",
            "path": self.path,
            "format_version": STORE_FORMAT_VERSION,
            "mode": "ro",
            "entries": len(self._entries),
            "corrupt_shards": self.corrupt_shards,
            "dropped_writes": self.dropped_writes,
            "disk_bytes": result_bytes + tree_bytes,
            "kinds": {
                "results": {"entries": len(self._entries),
                            "shard_files": shard_files,
                            "disk_bytes": result_bytes},
                "compiled_trees": {"entries": len(self._artifacts),
                                   "shard_files": tree_files,
                                   "disk_bytes": tree_bytes},
            },
        }


def _legacy_shard_kind(name: str) -> Optional[str]:
    """The kind a legacy shard file name holds, or ``None``."""
    if name.endswith(".json"):
        if name.startswith("shard-"):
            return "results"
        if name.startswith("trees-"):
            return "compiled_trees"
    return None


def holds_legacy_shards(path: str) -> bool:
    """Whether ``path`` holds files of a legacy sharded-JSON store."""
    try:
        names = os.listdir(path)
    except OSError:
        return False
    return any(name == "meta.json" or _legacy_shard_kind(name) is not None
               for name in names)


def save_results(cache_entries, store: CacheStore) -> int:
    """Write ``(key, value)`` result pairs into ``store`` and flush.

    Skips unconverged entries (a persisted best-so-far would mask a later,
    better attempt).  Returns the number of entries written.  This is the
    workhorse behind :meth:`repro.engine.engine.Engine.save_cache` and
    ``repro cache save``.
    """
    written = 0
    for key, value in cache_entries:
        if value.converged:
            store.put(key, value)
            written += 1
    store.flush()
    return written


def load_results(store: CacheStore, cache) -> int:
    """Load every converged store entry into an in-memory result cache.

    ``cache`` is an :class:`~repro.engine.cache.LRUCache` (the engine's
    ``cache.results``); loading more entries than its capacity simply
    evicts the earliest-loaded ones.  Returns the number of entries
    loaded.
    """
    loaded = 0
    for key, value in store.items():
        if value.converged:
            cache.put(key, value)
            loaded += 1
    return loaded


def save_artifacts(artifact_entries, store: CacheStore) -> int:
    """Write ``(canonical key, CompiledLineage)`` pairs into ``store``.

    Skips trivial partials (an undecomposed frontier with zero
    expansions carries nothing worth resuming).  Flushes on completion.
    """
    written = 0
    for key, artifact in artifact_entries:
        if artifact.complete or artifact.expansion_steps > 0:
            store.put_artifact(key, artifact)
            written += 1
    store.flush()
    return written


def load_artifacts(store: CacheStore, cache) -> int:
    """Load every persisted artifact into an in-memory artifact cache.

    ``cache`` is the engine's ``cache.artifacts`` LRU.  Returns the
    number of artifacts loaded.
    """
    loaded = 0
    for key, artifact in store.artifact_items():
        cache.put(key, artifact)
        loaded += 1
    return loaded


__all__ = [
    "STORE_FORMAT_VERSION",
    "CacheStore",
    "DiskStore",
    "MemoryStore",
    "decode_canonical_key",
    "decode_entry",
    "decode_key",
    "encode_canonical_key",
    "encode_entry",
    "encode_key",
    "holds_legacy_shards",
    "load_artifacts",
    "load_results",
    "save_artifacts",
    "save_results",
]
