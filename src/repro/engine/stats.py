"""Execution statistics of the attribution engine.

The engine is the hot path of the library, so it accounts for its own work:
how often the lineage cache hit, how many d-trees were actually compiled,
how often the exact method fell back to the anytime approximation, and how
much wall-clock time each pipeline stage consumed.  Benchmarks and the CLI
``--stats`` flag print these numbers; tests assert on them.

The counters are **thread-safe**: one :class:`EngineStats` is shared by
every engine of an :class:`~repro.engine.serve.AttributionService`, and the
concurrent front-end (:mod:`repro.engine.frontend`) drives those engines
from many worker threads at once.  All mutation goes through :meth:`bump`,
:meth:`timed` and :meth:`merge_from`, which hold an internal lock, so
concurrent increments are never dropped.  Plain attribute *reads* are
deliberately lock-free (ints are replaced atomically in CPython; a report
racing a computation is at worst one increment stale, never corrupt).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterator, Optional

#: Every integer counter of :class:`EngineStats`, in declaration order.
#: :meth:`EngineStats.bump` validates against it and
#: :meth:`EngineStats.merge_from` iterates it, so a new counter only needs
#: to be added to the dataclass and to this tuple.
COUNTER_FIELDS = (
    "queries",
    "answers",
    "cache_hits",
    "store_hits",
    "cache_misses",
    "compilations",
    "tree_compilations",
    "artifact_hits",
    "artifact_store_hits",
    "artifact_resumes",
    "count_memo_hits",
    "fallbacks",
    "refinement_rounds",
    "partial_results",
    "coalesced_requests",
    "shed_requests",
    "payload_hits",
    "store_retries",
    "store_degraded",
    "prepared_hits",
    "assembly_hits",
)


@dataclass
class EngineStats:
    """Counters and per-stage timings accumulated by an :class:`~repro.engine.engine.Engine`.

    Attributes
    ----------
    queries:
        Number of queries attributed (``attribute``/``attribute_many`` calls
        count one per query; ``attribute_lineages`` counts none).
    answers:
        Number of answer tuples (or raw lineages) attributed.
    cache_hits:
        Answers served from the in-memory lineage cache, including
        answers deduplicated against an isomorphic answer of the same
        batch.
    store_hits:
        Answers served from the persistent store tier (a memory miss that
        a configured :class:`~repro.engine.store.CacheStore` answered);
        always 0 when no store is configured.
    cache_misses:
        Answers that required a fresh computation (missed every tier).
    compilations:
        Fresh computations actually executed (one per distinct canonical
        lineage that missed the cache).
    tree_compilations:
        Computations that had to start a d-tree from scratch (no
        compiled-lineage artifact in any tier).  The difference between
        ``compilations`` and this counter is work the artifact tier
        saved: evaluations served off an already compiled (or partially
        compiled) tree.
    artifact_hits:
        Computations that reused a compiled-lineage artifact from the
        in-memory artifact cache.
    artifact_store_hits:
        Computations whose artifact came from the persistent store tier
        (always 0 without a store).
    artifact_resumes:
        Reused artifacts that were *partial*: refinement resumed from
        the persisted/cached frontier instead of restarting.
    count_memo_hits:
        Computations that reused a complete artifact whose arena
        ``"counts"`` column an earlier evaluation had already filled
        (ranking / top-k / repeat attribution over one compiled lineage
        recount no subtree at all).
    fallbacks:
        ``auto``-method computations where exact compilation exhausted its
        budget and the engine fell back to AdaBan.
    refinement_rounds:
        IchiBan refinement rounds run by the ``rank``/``topk`` methods
        (0 for results served from the cache or from a complete d-tree).
    partial_results:
        Ranking computations that exhausted their budget and returned
        best-so-far intervals instead of a certified result.
    coalesced_requests:
        Answers served by waiting for another caller's in-flight
        computation of the same result (the engine's single-flight, see
        :meth:`~repro.engine.cache.LineageCache.claim`) instead of
        computing it; each is also counted in ``cache_hits``.  Non-zero
        only when threads or engines share one cache concurrently.
    shed_requests:
        Serving-layer counter: requests the front-end's admission control
        rejected (bounded queue full, per-client budget exhausted, or
        deadline already missed) without reaching an engine.  Every shed
        request still received a structured rejection response.
    payload_hits:
        Arena passes answered entirely from a cached payload column or
        memoized result (no rows recomputed) -- the proof that
        :func:`~repro.dtree.arena.arena_counts` and friends reuse their
        columns across partial re-evaluations instead of rebuilding them.
    kernel_sweeps, kernel_fallbacks:
        Always 0.  Not counters (``bump`` rejects them, ``as_dict`` omits
        them); they stay readable only because ``perfbench/workloads.py``
        sums them every round.
    store_retries:
        Transient store-I/O failures that were retried with backoff by
        :class:`~repro.reliability.resilient.ResilientStore` (one per
        retry sleep, not per operation).
    store_degraded:
        Circuit-breaker trips: the persistent store failed persistently
        and the engine degraded to memory-only caching until a
        half-open probe re-attached it.
    prepared_hits:
        Queries whose evaluation and canonicalization the prepared tier saved.
    assembly_hits:
        Queries whose assembled answers the prepared entry supplied: every
        answer's result was the cache entry an earlier call assembled from.
    stage_seconds:
        Wall-clock seconds per pipeline stage (``evaluate``,
        ``canonicalize``, ``compute``, ``assemble``).
    pass_seconds:
        Wall-clock seconds per arena *pass* (``count``, ``banzhaf``).
        Populated by the pass label of :meth:`timed` / :meth:`timed_pass`.
    """

    queries: int = 0
    answers: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    cache_misses: int = 0
    compilations: int = 0
    tree_compilations: int = 0
    artifact_hits: int = 0
    artifact_store_hits: int = 0
    artifact_resumes: int = 0
    count_memo_hits: int = 0
    fallbacks: int = 0
    refinement_rounds: int = 0
    partial_results: int = 0
    coalesced_requests: int = 0
    shed_requests: int = 0
    payload_hits: int = 0
    store_retries: int = 0
    store_degraded: int = 0
    prepared_hits: int = 0
    assembly_hits: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)
    kernel_sweeps: ClassVar[int] = 0
    kernel_fallbacks: ClassVar[int] = 0

    def bump(self, **deltas: int) -> None:
        """Atomically add the given deltas to the named counters.

        ``stats.bump(cache_hits=1)`` is the thread-safe spelling of
        ``stats.cache_hits += 1`` (a read-modify-write that drops
        increments under concurrency).  Unknown counter names raise
        ``AttributeError`` so typos cannot silently create dead counters.
        """
        with self._lock:
            for name, delta in deltas.items():
                if name not in COUNTER_FIELDS:
                    raise AttributeError(
                        f"EngineStats has no counter {name!r}")
                setattr(self, name, getattr(self, name) + delta)

    def merge_from(self, other: "EngineStats") -> None:
        """Fold another stats object's counters and timings into this one.

        Used by deadline-scoped engines (:mod:`repro.engine.serve`): a
        per-request engine accumulates into a private ``EngineStats`` --
        so the caller can inspect what *that request* did -- and the
        service merges it into the shared counters afterwards.  ``other``
        must not be mutated concurrently during the merge.
        """
        with self._lock:
            for name in COUNTER_FIELDS:
                setattr(self, name, getattr(self, name) + getattr(other, name))
            for stage, seconds in other.stage_seconds.items():
                self.stage_seconds[stage] = (
                    self.stage_seconds.get(stage, 0.0) + seconds
                )
            for label, seconds in other.pass_seconds.items():
                self.pass_seconds[label] = (
                    self.pass_seconds.get(label, 0.0) + seconds
                )

    @contextmanager
    def timed(self, stage: Optional[str],
              pass_label: Optional[str] = None) -> Iterator[None]:
        """Time a ``with`` block into ``stage_seconds`` and/or ``pass_seconds``.

        ``stage`` buckets by pipeline stage as before; the optional
        ``pass_label`` additionally (or, with ``stage=None``, exclusively)
        buckets the same elapsed time by arena pass, so one block can be
        attributed on both axes.
        """
        started = time.monotonic()
        try:
            yield
        finally:
            elapsed = time.monotonic() - started
            with self._lock:
                if stage is not None:
                    self.stage_seconds[stage] = (
                        self.stage_seconds.get(stage, 0.0) + elapsed
                    )
                if pass_label is not None:
                    self.pass_seconds[pass_label] = (
                        self.pass_seconds.get(pass_label, 0.0) + elapsed
                    )

    @contextmanager
    def timed_pass(self, label: str) -> Iterator[None]:
        """Time a ``with`` block into ``pass_seconds[label]`` only."""
        with self.timed(None, label):
            yield

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time across all stages."""
        return sum(self.stage_seconds.values())

    def hit_rate(self) -> float:
        """Hit rate across *all* cache tiers (0.0 when nothing ran yet).

        A hit is an answer served without a fresh computation, whether it
        came from the in-memory tier (``cache_hits``) or the persistent
        store tier (``store_hits``).
        """
        total = self.cache_hits + self.store_hits + self.cache_misses
        return (self.cache_hits + self.store_hits) / total if total else 0.0

    def tier_hit_rates(self) -> Dict[str, float]:
        """Per-tier fractions of all cache lookups (memory/store/compute).

        The three fractions sum to 1.0 once anything ran; ``compute`` is
        the miss rate (answers that fell through every tier).
        """
        total = self.cache_hits + self.store_hits + self.cache_misses
        if not total:
            return {"memory": 0.0, "store": 0.0, "compute": 0.0}
        return {
            "memory": self.cache_hits / total,
            "store": self.store_hits / total,
            "compute": self.cache_misses / total,
        }

    def artifact_hit_rate(self) -> float:
        """Fraction of fresh computations that reused a compiled artifact.

        The artifact tier sits *behind* the result tiers: it is only
        consulted when a computation actually runs, so the denominator is
        the computations, not the answers.
        """
        total = (self.artifact_hits + self.artifact_store_hits
                 + self.tree_compilations)
        return ((self.artifact_hits + self.artifact_store_hits) / total
                if total else 0.0)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict snapshot for reports and JSON output."""
        return {
            "queries": self.queries,
            "answers": self.answers,
            "prepared_hits": self.prepared_hits,
            "assembly_hits": self.assembly_hits,
            "cache_hits": self.cache_hits,
            "store_hits": self.store_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": round(self.hit_rate(), 4),
            "tier_hit_rates": {tier: round(rate, 4)
                               for tier, rate in self.tier_hit_rates().items()},
            "compilations": self.compilations,
            "artifacts": {
                "tree_compilations": self.tree_compilations,
                "memory_hits": self.artifact_hits,
                "store_hits": self.artifact_store_hits,
                "resumes": self.artifact_resumes,
                "count_memo_hits": self.count_memo_hits,
                "hit_rate": round(self.artifact_hit_rate(), 4),
            },
            "fallbacks": self.fallbacks,
            "refinement_rounds": self.refinement_rounds,
            "partial_results": self.partial_results,
            "coalesced_requests": self.coalesced_requests,
            "shed_requests": self.shed_requests,
            "payload_hits": self.payload_hits,
            "reliability": {
                "store_retries": self.store_retries,
                "store_degraded": self.store_degraded,
            },
            "stage_seconds": {stage: round(seconds, 6)
                              for stage, seconds in self.stage_seconds.items()},
            "passes": {label: round(seconds, 6)
                       for label, seconds in self.pass_seconds.items()},
            "total_seconds": round(self.total_seconds, 6),
        }

    def reset(self) -> None:
        """Zero all counters and timers."""
        with self._lock:
            for name in COUNTER_FIELDS:
                setattr(self, name, 0)
            self.stage_seconds = {}
            self.pass_seconds = {}

    def __repr__(self) -> str:
        return (f"EngineStats(answers={self.answers}, "
                f"hits={self.cache_hits}, store_hits={self.store_hits}, "
                f"misses={self.cache_misses}, "
                f"compilations={self.compilations}, "
                f"fallbacks={self.fallbacks}, "
                f"total={self.total_seconds:.3f}s)")
