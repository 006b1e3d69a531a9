"""Batched, cache-aware attribution engine (the library's execution path).

The :class:`Engine` canonicalizes answer lineages into variable-order-
independent keys, memoizes d-tree compilations and Banzhaf results across
answers and queries, and auto-selects ExaBan or the AdaBan fallback per
lineage.  Results are served
through two cache tiers -- the in-memory :class:`LineageCache` and an
optional persistent :class:`CacheStore` (a :class:`LogStore`, which
survives process restarts; or a :class:`MemoryStore`;
:class:`DiskStore` reads legacy stores for ``repro cache migrate``) --
and the
long-lived serving loop (:class:`AttributionService`) keeps one warm set
of tiers behind a stream of attribute/rank/topk requests.  The
reliability layer (:mod:`repro.reliability`, re-exported here)
retries/breakers the store tier and provides deterministic fault
injection to prove it.  See
``docs/ARCHITECTURE.md`` for the design, ``docs/API.md`` for the supported
public surface, and :mod:`repro.engine.engine` for the pipeline details.
"""

from repro.engine.artifact import (
    ARTIFACT_FORMAT_VERSION,
    CompiledLineage,
    complete_compilation,
    decode_artifact,
    encode_artifact,
)
from repro.engine.cache import (
    CachedAttribution,
    LineageCache,
    LRUCache,
    ResultKey,
    canonical_epsilon,
)
from repro.engine.canonical import CanonicalKey, CanonicalLineage, canonicalize
from repro.engine.engine import (
    Engine,
    EngineConfig,
    EngineMethod,
    LineageAttribution,
    RankedAnswer,
    engine_for,
)
from repro.engine.frontend import (
    FrontendConfig,
    ServingFrontend,
    Ticket,
    serve_jsonl_concurrent,
)
from repro.engine.ranking import RankingComputation, compute_ranking
from repro.engine.serve import (
    AttributionService,
    ParsedRequest,
    RequestError,
    serve_jsonl,
)
from repro.engine.logstore import (
    LogStore,
    StoreLockedError,
    migrate_store,
    open_store,
)
from repro.engine.stats import EngineStats
from repro.engine.store import (
    STORE_FORMAT_VERSION,
    CacheStore,
    DiskStore,
    MemoryStore,
    load_artifacts,
    load_results,
    save_artifacts,
    save_results,
)
from repro.reliability import (
    CircuitBreaker,
    CircuitOpenError,
    FaultInjected,
    FaultPlan,
    FaultRule,
    ResilientStore,
    RetryPolicy,
    TransientStoreError,
    faults,
    wrap_store,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "AttributionService",
    "CachedAttribution",
    "CacheStore",
    "CanonicalKey",
    "CanonicalLineage",
    "CircuitBreaker",
    "CircuitOpenError",
    "CompiledLineage",
    "DiskStore",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "Engine",
    "EngineConfig",
    "EngineMethod",
    "EngineStats",
    "FrontendConfig",
    "LineageAttribution",
    "LineageCache",
    "LogStore",
    "LRUCache",
    "MemoryStore",
    "ParsedRequest",
    "RankedAnswer",
    "RankingComputation",
    "RequestError",
    "ResilientStore",
    "ResultKey",
    "RetryPolicy",
    "STORE_FORMAT_VERSION",
    "ServingFrontend",
    "StoreLockedError",
    "Ticket",
    "TransientStoreError",
    "canonical_epsilon",
    "canonicalize",
    "complete_compilation",
    "compute_ranking",
    "decode_artifact",
    "encode_artifact",
    "engine_for",
    "faults",
    "load_artifacts",
    "load_results",
    "migrate_store",
    "open_store",
    "save_artifacts",
    "save_results",
    "serve_jsonl",
    "serve_jsonl_concurrent",
]
