"""The batched, cache-aware attribution engine.

This is the single execution path behind :func:`repro.attribute_facts`, the
CLI, the examples and the experiment runner.  Given queries (or raw
lineages) it runs a four-stage pipeline:

1. **evaluate** -- evaluate each query and build per-answer lineage DNFs
   (:mod:`repro.db.lineage`);
2. **canonicalize** -- rename each lineage into its canonical form
   (:mod:`repro.engine.canonical`, memoized per first-occurrence encoding
   in ``LineageCache.forms``), then look each distinct form up once in the
   cache tiers -- the in-memory lineage cache first, then the optional
   persistent store (:mod:`repro.engine.store`).  ``LineageCache.prepared``
   keeps each query's answers and forms per database version;
3. **compute**, split into **compile-once / evaluate-per-method** -- each
   distinct cache miss first obtains its lineage's
   :class:`~repro.engine.artifact.CompiledLineage` (memory artifact cache
   -> store artifact tier -> fresh), then the selected algorithm
   *evaluates* it: a complete artifact is evaluated exactly by every
   method, a partial one is resumed from its persisted frontier, and the
   updated artifact is written back so the compilation is paid at most
   once per canonical lineage -- across methods, epsilons, k values and
   (via the store) processes.  The stage is single-flight: a miss that
   another caller sharing the cache is computing is waited for, not
   computed again;
4. **assemble** -- translate canonical-space values back through each
   answer's variable mapping and attach database facts, in the order of
   the entry's answer template (ties broken by the answer's own ids).

Freshly computed converged results -- and fresh or further-refined
compilation artifacts, converged or not -- are written back to every
configured tier, so a process with a
:class:`~repro.engine.logstore.LogStore` leaves a warm cache behind for
the next process (see :meth:`Engine.save_cache`/:meth:`Engine.load_cache` for
the explicit warm-start flow, and :mod:`repro.engine.serve` for the
long-lived serving loop built on top).

Method selection mirrors the paper's fallback story (Tables 4 and 6):
``method="auto"`` tries exact ExaBan under a compilation budget and falls
back to anytime AdaBan with an epsilon guarantee when the budget is
exhausted.  The fallback shares the wall-clock budget; a lineage that
defeats both raises (``ApproximationTimeout``), which the experiment
runner records as a failure rather than a crash.

Ranking is first-class: ``method="rank"`` and ``method="topk"`` (with
``k``) run IchiBan (Section 4.1) through the same pipeline -- canonical
variable space, shared lineage cache and artifact tier -- so
isomorphic answers share one anytime run and repeat ranking traffic is
served from the cache.  A cached complete d-tree short-circuits to an
exact ranking; budget exhaustion degrades to best-so-far intervals (see
:mod:`repro.engine.ranking`).  Read rankings through :meth:`Engine.rank`
/ :meth:`Engine.rank_many`.

Typical use::

    from repro.engine import Engine, EngineConfig

    engine = Engine(EngineConfig(method="auto"))
    for query, results in engine.attribute_many(queries, database):
        ...
    print(engine.stats.as_dict())

    ranker = Engine(EngineConfig(method="topk", k=5))
    for answer, entries in ranker.rank(query, database):
        ...
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Literal,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.boolean.dnf import DNF
from repro.core.adaban import adaban_over_state, shared_state
# Not called here: perfbench/tracing.py wraps this module's binding.
from repro.core.exaban import exaban_all  # noqa: F401
from repro.core.ichiban import RankedVariable, ranked_from_groups, ranked_groups
from repro.core.intervals import Interval
from repro.core.shapley import shapley_all
from repro.db.database import Database, Fact
from repro.db.lineage import DomainPolicy, lineage_of_answers
from repro.db.query import Query
from repro.dtree.compile import CompilationBudget, CompilationLimitReached
# Not called here: perfbench/tracing.py wraps this module's binding.
from repro.dtree.compile import compile_dnf  # noqa: F401
from repro.dtree.incremental import IncrementalCompiler
from repro.engine.artifact import CompiledLineage, complete_compilation
from repro.engine.cache import CachedAttribution, LineageCache, ResultKey
from repro.engine.canonical import CanonicalKey, CanonicalLineage, canonicalize
from repro.engine.ranking import compute_ranking, exact_attribution
from repro.engine.stats import EngineStats
from repro.engine.store import (
    CacheStore,
    load_artifacts,
    load_results,
    save_artifacts,
    save_results,
)
from repro.reliability import faults
from repro.reliability.faults import resolve_fault_plan
from repro.reliability.resilient import wrap_store

EngineMethod = Literal["auto", "exact", "approximate", "shapley",
                       "rank", "topk"]

#: One per-answer ranking: the answer tuple plus (fact, entry) pairs in
#: rank order.
RankedAnswer = Tuple[Tuple[object, ...], List[Tuple[Fact, RankedVariable]]]

#: Compilation budget used by ``auto`` when the config leaves the Shannon
#: budget unlimited: generous enough for every workload lineage that the
#: paper's prototype solves exactly, small enough that pathological
#: instances fall back to AdaBan instead of hanging.
_DEFAULT_AUTO_SHANNON_STEPS = 50_000

@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs of the engine.

    Attributes
    ----------
    method:
        ``"auto"`` (exact with AdaBan fallback), ``"exact"``,
        ``"approximate"``, ``"shapley"``, or the IchiBan ranking methods
        ``"rank"`` (full per-answer ranking) and ``"topk"`` (requires
        ``k``).
    epsilon:
        Relative-error guarantee for approximate results (used by
        ``"approximate"``, the ``auto`` fallback, and the ranking
        methods).  ``None`` is allowed for ``"rank"``/``"topk"`` only and
        demands certainty: pairwise-separated intervals for ``rank``, a
        decided top-k set for ``topk``.
    k:
        Top-k size for ``method="topk"``.  May be left ``None`` when every
        :meth:`Engine.rank` / :meth:`Engine.rank_many` call supplies its
        own ``k`` (the per-call override); must be ``None`` for every
        other method.
    max_shannon_steps:
        Shannon-expansion budget for exact compilation.  ``None`` means
        unlimited for ``"exact"``/``"shapley"``; ``auto`` substitutes a
        generous default so the fallback can trigger.  For the ranking
        methods the same number bounds the anytime run's bound
        evaluations (IchiBan's budget unit); exhaustion degrades to a
        best-so-far result instead of raising.
    timeout_seconds:
        Per-lineage wall-clock budget for exact compilation (``None`` =
        unlimited).
    cache_size:
        Capacity of the result cache (entries).
    dtree_cache_size:
        Capacity of the in-memory compiled-lineage artifact cache
        (:class:`~repro.engine.artifact.CompiledLineage` entries, keyed
        by canonical lineage alone); kept much smaller than the result
        cache because trees can be large object graphs.  With a store
        configured, artifacts additionally persist to its artifact tier.
    domain:
        Lineage domain policy, forwarded to
        :func:`repro.db.lineage.lineage_of_answers`.
    store:
        Optional persistent result tier: an opened
        :class:`repro.engine.store.CacheStore` (e.g. a
        :class:`~repro.engine.logstore.LogStore`).  Memory misses fall
        through to the store before computing, and freshly computed
        converged results are written back, so canonical-space results
        survive process restarts.  ``None`` (the default) keeps the
        engine memory-only.  A path raises ``TypeError``: whoever opens
        a store (:func:`~repro.engine.logstore.open_store`) closes it,
        and the engine never does.
    store_retries:
        Extra attempts (with exponential backoff) granted to a transient
        store-I/O failure before it counts against the circuit breaker
        (:class:`~repro.reliability.resilient.ResilientStore`).  With
        both this and ``breaker_threshold`` at 0 the store is used
        unwrapped and I/O errors propagate as before.
    breaker_threshold:
        Consecutive terminal store failures that trip the circuit
        breaker, degrading the engine to memory-only caching (counted in
        ``EngineStats.store_degraded``) until a half-open probe
        re-attaches the store.
    fault_plan:
        Deterministic fault-injection plan for tests and chaos suites: a
        :class:`~repro.reliability.faults.FaultPlan`, a JSON string, or
        a dict/list spec (see :mod:`repro.reliability.faults`), resolved
        once, so every ``replace()`` copy shares one plan and its
        counters.  Engines and services install it process-wide on
        construction.  ``None`` (the default) injects nothing.
    """

    method: EngineMethod = "auto"
    epsilon: Optional[float] = 0.1
    max_shannon_steps: Optional[int] = None
    timeout_seconds: Optional[float] = None
    cache_size: int = 4096
    dtree_cache_size: int = 256
    domain: DomainPolicy = "lineage"
    k: Optional[int] = None
    store: Optional[object] = None
    store_retries: int = 2
    breaker_threshold: int = 5
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        if self.method not in ("auto", "exact", "approximate", "shapley",
                               "rank", "topk"):
            raise ValueError(
                f"unknown engine method {self.method!r}; expected 'auto', "
                "'exact', 'approximate', 'shapley', 'rank' or 'topk'"
            )
        if self.epsilon is None and self.method in ("auto", "approximate"):
            raise ValueError(
                f"method {self.method!r} needs an epsilon (None is only "
                "meaningful for the ranking methods, where it demands "
                "certainty)"
            )
        if self.method == "topk":
            if self.k is not None and self.k < 1:
                raise ValueError("k must be at least 1")
        elif self.k is not None:
            raise ValueError(
                f"k is only meaningful for method='topk', not "
                f"{self.method!r}"
            )
        if self.store_retries < 0:
            raise ValueError("store_retries must be >= 0")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")
        if isinstance(self.store, (str, bytes, os.PathLike)):
            raise TypeError(
                f"store must be an opened CacheStore, not the path "
                f"{self.store!r}: open it with open_store(path) (or "
                "LogStore(path)) and close it when done")
        # Resolve once, at configuration time: copies share one schedule.
        object.__setattr__(self, "fault_plan",
                           resolve_fault_plan(self.fault_plan))


@dataclass(frozen=True)
class LineageAttribution:
    """Attribution of one raw lineage, in *original* variable space.

    ``method_used`` records the algorithm that actually ran (relevant under
    ``auto``); ``bounds`` carries the certified interval per variable when
    the method provides one.
    """

    lineage: DNF
    method_used: str
    values: Dict[int, Fraction]
    bounds: Dict[int, Tuple[int, int]]


# --------------------------------------------------------------------- #
# The per-lineage computation
# --------------------------------------------------------------------- #


def _effective_shannon_steps(method: EngineMethod,
                             configured: Optional[int]) -> Optional[int]:
    if configured is not None:
        return configured
    return _DEFAULT_AUTO_SHANNON_STEPS if method == "auto" else None


def _approximate(function: DNF, epsilon: float,
                 timeout_seconds: Optional[float],
                 compiler=None,
                 artifact_sink=None
                 ) -> Tuple[CachedAttribution, CompiledLineage]:
    """AdaBan over an owned anytime state; returns (result, artifact).

    ``compiler`` resumes a partial compilation (fresh state otherwise);
    the state's tree survives either way -- returned as the artifact on
    success, handed to ``artifact_sink`` before an
    ``ApproximationTimeout`` propagates, so even a failed attempt leaves
    resumable progress behind.
    """
    state = shared_state(function, compiler=compiler)
    try:
        approx = adaban_over_state(state, epsilon=epsilon,
                                   timeout_seconds=timeout_seconds)
    except Exception:
        if artifact_sink is not None:
            artifact_sink(CompiledLineage.from_compiler(state.compiler))
        raise
    return CachedAttribution(
        method_used="approximate",
        values={v: Fraction(r.estimate) for v, r in approx.items()},
        bounds={v: (r.lower, r.upper) for v, r in approx.items()},
    ), CompiledLineage.from_compiler(state.compiler)


def _complete_artifact(function: DNF, artifact: Optional[CompiledLineage],
                       budget: CompilationBudget,
                       partial_slot: list) -> CompiledLineage:
    """Reuse a complete artifact, or finish a fresh or resumed compilation.

    The compiler is left in ``partial_slot`` (a one-element list), so on
    budget exhaustion the caller keeps its partial tree -- for the
    ``auto`` fallback, or to persist -- before the exception propagates.
    """
    if artifact is not None and artifact.complete:
        return artifact
    compiler = (artifact.resume_compiler() if artifact is not None
                else IncrementalCompiler(function))
    partial_slot.append(compiler)
    complete_compilation(compiler, budget)
    return CompiledLineage.from_compiler(compiler)


def _compute_canonical(function: DNF, method: EngineMethod,
                       epsilon: Optional[float],
                       max_shannon_steps: Optional[int],
                       timeout_seconds: Optional[float],
                       artifact: Optional[CompiledLineage] = None,
                       k: Optional[int] = None,
                       artifact_sink=None,
                       stats=None
                       ) -> Tuple[CachedAttribution, bool,
                                  Optional[CompiledLineage], int]:
    """Attribute one canonical lineage (the evaluate-per-method stage).

    Returns ``(result, fell_back, artifact, refinement_rounds)``.
    ``artifact`` may carry the lineage's compilation state from the
    artifact tier: every method evaluates a *complete* artifact directly
    (no compilation at all) and *resumes* a partial one from its
    frontier; the artifact handed back -- fresh, reused, or further
    refined -- is what the caller caches/persists.  ``artifact_sink``
    receives the partial tree when a compilation (fresh or resumed) or
    an AdaBan run fails (budget exhaustion), so that work survives the
    raised exception: a retry resumes it, and the ``auto`` fallback
    continues from it.
    """
    faults.check("compile.step")
    if method in ("rank", "topk"):
        # The configured step budget bounds the anytime run's bound
        # evaluations -- the ranking analogue of the Shannon budget, so
        # a budgeted engine never runs a ranking unbounded either.
        computation = compute_ranking(function, method, k, epsilon,
                                      timeout_seconds, artifact=artifact,
                                      max_steps=max_shannon_steps,
                                      stats=stats)
        return (computation.outcome, False, computation.artifact,
                computation.rounds)
    if method == "approximate":
        if artifact is not None and artifact.complete:
            # A complete artifact makes any epsilon free: read the exact
            # values (a valid approximation for every epsilon) directly,
            # without cloning or re-persisting the tree.  As under
            # ``auto``, ``method_used`` records what actually ran.
            return (exact_attribution(artifact, function.variables, stats),
                    False, artifact, 0)
        compiler = (artifact.resume_compiler() if artifact is not None
                    else None)
        outcome, artifact_out = _approximate(function, epsilon,
                                             timeout_seconds,
                                             compiler=compiler,
                                             artifact_sink=artifact_sink)
        return outcome, False, artifact_out, 0

    steps = _effective_shannon_steps(method, max_shannon_steps)
    budget = CompilationBudget(max_shannon_steps=steps,
                               timeout_seconds=timeout_seconds)
    started = time.monotonic()
    partial_slot: list = []
    try:
        artifact_out = _complete_artifact(function, artifact, budget,
                                          partial_slot)
        if method == "shapley":
            values = shapley_all(function, tree=artifact_out.root)
            return (CachedAttribution(method_used="shapley",
                                      values=dict(values)),
                    False, artifact_out, 0)
        outcome = exact_attribution(artifact_out, stats=stats)
    except CompilationLimitReached:
        (compiler,) = partial_slot
        if method != "auto":
            if artifact_sink is not None:
                artifact_sink(CompiledLineage.from_compiler(compiler))
            raise
        # The fallback shares the wall-clock budget: AdaBan only gets what
        # the failed exact attempt left over -- and it *continues from*
        # the partial tree that attempt built, so the budget spent on the
        # exact side is not thrown away.  If it cannot
        # certify epsilon in that remainder, ApproximationTimeout
        # propagates (the experiment runner records it as a failure,
        # matching the paper's Table 6 where AdaBan too fails on some
        # instances).
        remaining = None
        if timeout_seconds is not None:
            remaining = max(0.0, timeout_seconds
                            - (time.monotonic() - started))
        outcome, fallback_artifact = _approximate(function, epsilon,
                                                  remaining,
                                                  compiler=compiler,
                                                  artifact_sink=artifact_sink)
        return outcome, True, fallback_artifact, 0
    return outcome, False, artifact_out, 0


class Engine:
    """Batched attribution engine with a lineage cache and artifact tier.

    One engine instance owns one cache and one stats object; reuse the
    instance across queries to benefit from cross-query memoization.  Cache
    operations are individually lock-protected, and threads sharing an
    engine (or its cache) compute each distinct result once: the compute
    stage is single-flight.  Stats counters go through
    :meth:`EngineStats.bump`, so concurrent increments are never dropped
    either (the concurrent front-end in :mod:`repro.engine.frontend`
    relies on both).
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.cache = LineageCache(self.config.cache_size,
                                  self.config.dtree_cache_size)
        self.stats = EngineStats()
        faults.install(self.config.fault_plan)
        #: The persistent result tier (or ``None``).  Mutable on purpose:
        #: a service can attach one store to several engines after
        #: construction.  Wrapped in a
        #: :class:`~repro.reliability.resilient.ResilientStore` (retry +
        #: circuit breaker) unless both reliability knobs are 0.
        self.store: Optional[CacheStore] = wrap_store(
            self.config.store,
            retries=self.config.store_retries,
            breaker_threshold=self.config.breaker_threshold,
            on_counter=lambda **deltas: self.stats.bump(**deltas))

    # ----------------------------------------------------------------- #
    # Public API
    # ----------------------------------------------------------------- #

    def attribute(self, query: Query, database: Database
                  ) -> List["AttributionResult"]:
        """Attribute every answer of one query (batched internally).

        Parameters
        ----------
        query:
            A conjunctive query or union of conjunctive queries
            (fact-space: evaluated against ``database``).
        database:
            The database with its endogenous/exogenous fact partition.

        Returns
        -------
        list of AttributionResult
            One entry per answer tuple, with per-fact values mapped back
            from canonical space into fact space.
        """
        for _, results in self.attribute_many([query], database):
            return results
        return []

    def attribute_many(self, queries: Iterable[Query], database: Database
                       ) -> Iterator[Tuple[Query, List["AttributionResult"]]]:
        """Attribute a stream of queries; yields ``(query, results)`` pairs.

        Results for each query are yielded as soon as that query's batch
        completes, so callers can start consuming attributions while later
        queries are still being computed.  The cache persists across the
        whole stream: queries sharing lineage structure pay for compilation
        once, and a repeat query over an unchanged database skips its
        evaluation and, while its results stay cached, its assembly.
        Inputs and outputs are fact-space; canonical space is internal.
        """
        config = self.config
        suffix = self.cache.result_suffix(config.method, config.epsilon,
                                          config.k)
        for query in queries:
            self.stats.bump(queries=1)
            answers, canonicals, assembled = self._prepare(query, database)
            outcomes = self._attribute_batch(canonicals)
            with self.stats.timed("assemble"):
                results = self._assembled(
                    assembled, "values", suffix, answers, outcomes,
                    lambda answer, outcome: self._assemble(answer, outcome,
                                                           database))
            yield query, list(results)

    def rank_many(self, queries: Iterable[Query], database: Database,
                  k: Optional[int] = None
                  ) -> Iterator[Tuple[Query, List[RankedAnswer]]]:
        """Rank the facts of every answer of a query stream (IchiBan).

        Requires a ``"rank"`` or ``"topk"`` engine.  Yields ``(query,
        rankings)`` pairs, where each ranking is ``(answer values, [(fact,
        RankedVariable), ...])`` in rank order -- truncated to ``k`` under
        ``"topk"``.  ``k`` overrides ``config.k`` per call; because results
        are cached per ``(canonical lineage, epsilon, k)`` and completed
        d-trees are shared across k values, one engine can serve mixed-k
        traffic.
        """
        if self.config.method not in ("rank", "topk"):
            raise ValueError(
                "rank()/rank_many() need an engine configured with "
                f"method='rank' or 'topk', not {self.config.method!r}"
            )
        config = self.config
        effective_k = ((config.k if k is None else k)
                       if config.method == "topk" else None)
        suffix = self.cache.result_suffix(config.method, config.epsilon,
                                          effective_k)
        for query in queries:
            self.stats.bump(queries=1)
            answers, canonicals, assembled = self._prepare(query, database)
            outcomes = self._attribute_batch(canonicals, k=k)
            with self.stats.timed("assemble"):
                rankings = self._assembled(
                    assembled, "ranked", suffix, answers, outcomes,
                    lambda answer, outcome: (answer, self._ranked_facts(
                        outcome, database, effective_k)))
            yield query, [(answer, list(entries))
                          for answer, entries in rankings]

    def rank(self, query: Query, database: Database,
             k: Optional[int] = None) -> List[RankedAnswer]:
        """Rank every answer of one query (see :meth:`rank_many`)."""
        _, rankings = next(self.rank_many([query], database, k=k))
        return rankings

    def attribute_lineages(self, lineages: Sequence[DNF]
                           ) -> List[LineageAttribution]:
        """Attribute raw lineage DNFs (the experiment-runner entry point).

        Skips query evaluation entirely; values and bounds come back in the
        lineages' own variable space.  Under the ranking methods the values
        are interval midpoints for *all* occurring variables (the certified
        intervals are in ``bounds``); use :meth:`rank` when the ordered
        top-k set itself is wanted.
        """
        outcomes = self._attribute_batch(self._canonicalize(lineages))
        attributions = []
        with self.stats.timed("assemble"):
            for lineage, (canonical, cached) in zip(lineages, outcomes):
                renaming = canonical.renaming
                attributions.append(LineageAttribution(
                    lineage=lineage,
                    method_used=cached.method_used,
                    values={renaming[v]: value
                            for v, value in cached.values.items()},
                    bounds={renaming[v]: bound
                            for v, bound in cached.bounds.items()},
                ))
        return attributions

    def reset_stats(self) -> None:
        """Zero the stats counters (the cache is left intact)."""
        self.stats.reset()

    def save_cache(self, store: Optional[CacheStore] = None) -> int:
        """Persist the warm in-memory tiers (results + artifacts) to a store.

        Writes every *converged* result entry of the memory cache into
        ``store`` (default: the engine's configured store) and flushes it;
        compiled-lineage artifacts -- complete trees and resumable
        partial frontiers alike -- are persisted alongside.  Together
        with :meth:`load_cache` this is the explicit warm-start flow
        behind ``repro cache save``/``repro cache load``.

        Parameters
        ----------
        store:
            Target :class:`~repro.engine.store.CacheStore`; falls back to
            the configured ``store``.

        Returns
        -------
        int
            Number of entries written.

        Raises
        ------
        ValueError
            If no store was given and none is configured.
        """
        target = store if store is not None else self.store
        if target is None:
            raise ValueError(
                "save_cache needs a store: pass one or configure "
                "EngineConfig(store=...)"
            )
        save_artifacts(self.cache.artifacts.snapshot(), target)
        return save_results(self.cache.results.snapshot(), target)

    def load_cache(self, store: Optional[CacheStore] = None) -> int:
        """Warm-start the in-memory tiers (results + artifacts) from a store.

        Loads every converged store entry into the memory cache -- and
        every persisted compilation artifact into the artifact cache, so
        a fresh process *resumes* partial compilations instead of
        restarting them.  Entries beyond the memory capacities simply
        evict the earliest-loaded ones; the store itself is untouched.
        Returns the number of *result* entries loaded (see
        :meth:`save_cache` for the parameters/errors contract).
        """
        source = store if store is not None else self.store
        if source is None:
            raise ValueError(
                "load_cache needs a store: pass one or configure "
                "EngineConfig(store=...)"
            )
        load_artifacts(source, self.cache.artifacts)
        return load_results(source, self.cache.results)

    # ----------------------------------------------------------------- #
    # Pipeline stages
    # ----------------------------------------------------------------- #

    def _prepare(self, query: Query, database: Database) -> tuple:
        """``(answer tuples, canonical lineages, assembled answers)``,
        memoized per database version in :attr:`LineageCache.prepared`;
        the version is read first and an entry kept only if it is
        unchanged after the evaluation.  Concurrent first misses may both
        evaluate (identical results); an unhashable query skips the memo.
        The assembled answers start empty (see :meth:`_assembled`)."""
        version = database.version
        key = (query, self.config.domain, id(database), version)
        try:
            entry = self.cache.prepared.get(key)
        except TypeError:
            key = entry = None
        if entry is not None and entry[0]() is database:
            self.stats.bump(prepared_hits=1)
            return entry[1:]
        with self.stats.timed("evaluate"):
            answers = lineage_of_answers(query, database,
                                         domain=self.config.domain)
        entry = (weakref.ref(database), [answer.values for answer in answers],
                 self._canonicalize(answer.lineage for answer in answers), {})
        if key is not None and database.version == version:
            self.cache.prepared.put(key, entry)
        return entry[1:]

    def _canonicalize(self, lineages: Iterable[DNF]) -> List[CanonicalLineage]:
        """Canonical forms, through the shared ``forms`` memo."""
        with self.stats.timed("canonicalize"):
            forms = self.cache.forms
            return [canonicalize(lineage, memo=forms) for lineage in lineages]

    def _attribute_batch(self, canonicals: Sequence[CanonicalLineage],
                         k: Optional[int] = None
                         ) -> List[Tuple[CanonicalLineage, CachedAttribution]]:
        """Cache-check and compute each distinct canonical key once."""
        config = self.config
        if k is None:
            k = config.k
        elif config.method != "topk":
            raise ValueError("a per-call k needs method='topk'")
        elif k < 1:
            raise ValueError("k must be at least 1")
        if config.method == "topk" and k is None:
            raise ValueError(
                "method 'topk' needs k: set EngineConfig.k or pass k "
                "per call"
            )
        self.stats.bump(answers=len(canonicals))

        with self.stats.timed("canonicalize"):
            groups: Dict[CanonicalKey, List[CanonicalLineage]] = {}
            for canonical in canonicals:
                groups.setdefault(canonical.key, []).append(canonical)
            suffix = self.cache.result_suffix(config.method, config.epsilon, k)
        cached: Dict[CanonicalKey, CachedAttribution] = {}
        unresolved = list(groups.values())
        while unresolved:
            followed = self._lookup_and_compute(unresolved, suffix, cached, k)
            # Wait only now, with every key this pass owned released, so
            # callers that follow each other's keys cannot deadlock.
            unresolved = []
            for key, flight, members in followed:
                flight.wait()
                hit = self.cache.results.get(key)
                if hit is None:
                    # The owner raised, or did not cache its result.
                    unresolved.append(members)
                    continue
                cached[key[0]] = hit
                self.stats.bump(cache_hits=len(members),
                                coalesced_requests=len(members))
        return [(canonical, cached[canonical.key]) for canonical in canonicals]

    def _lookup_and_compute(self, groups: Iterable[List[CanonicalLineage]],
                            suffix: tuple,
                            cached: Dict[CanonicalKey, CachedAttribution],
                            k: Optional[int]
                            ) -> List[Tuple[ResultKey, threading.Event, list]]:
        """One single-flight pass of the cache-check and compute stages.

        Fills ``cached`` per canonical key and returns the groups (the
        lineages of one key) other callers are computing, each with its
        key and the owner's event.  A claim pairs the key with this
        engine's budget, so only identical computations share a flight;
        all are released before returning.
        """
        config = self.config
        budget = (config.max_shannon_steps, config.timeout_seconds)
        pending: List[Tuple[ResultKey, list]] = []
        followed: List[Tuple[ResultKey, threading.Event, list]] = []
        owned: Set[ResultKey] = set()
        tasks: List[Tuple[ResultKey, list]] = []
        try:
            with self.stats.timed("canonicalize"):
                for members in groups:
                    key = (members[0].key,) + suffix
                    hit = self.cache.results.get(key)
                    if hit is not None:
                        cached[key[0]] = hit
                        self.stats.bump(cache_hits=len(members))
                        continue
                    if self.store is not None:
                        stored = self.store.get(key)
                        if stored is not None and stored.converged:
                            # Promote the store hit into the memory tier so
                            # the rest of this process serves it for free.
                            self.cache.results.put(key, stored)
                            cached[key[0]] = stored
                            self.stats.bump(store_hits=1,
                                            cache_hits=len(members) - 1)
                            continue
                    flight = self.cache.claim((key, budget))
                    if flight is not None:
                        followed.append((key, flight, members))
                        continue
                    # Another owner may have finished between the lookup
                    # above and the claim.
                    hit = self.cache.results.get(key)
                    if hit is not None:
                        self.cache.release((key, budget))
                        cached[key[0]] = hit
                        self.stats.bump(cache_hits=len(members))
                        continue
                    owned.add(key)
                    pending.append((key, members))
                    self.stats.bump(cache_misses=1,
                                    cache_hits=len(members) - 1)

            with self.stats.timed("compute"):
                tasks = pending
                # Cache each outcome as soon as it is computed (and wake
                # its followers): if a later task fails (budget exhaustion
                # on a pathological lineage), the work already done stays
                # reusable and a per-instance retry hits it, and
                # ``compilations`` never counts work a failure prevented.
                # Unconverged ranking results (best-so-far intervals) are
                # reported but never cached -- a later call deserves a
                # fresh attempt (e.g. against a d-tree cached in the
                # meantime).
                for key, members in tasks:
                    outcome = self._compute_serial(members[0], k)
                    self.stats.bump(compilations=1)
                    if outcome.converged:
                        self.cache.results.put(key, outcome)
                        if self.store is not None:
                            self.store.put(key, outcome)
                    owned.discard(key)
                    self.cache.release((key, budget))
                    cached[key[0]] = outcome
        finally:
            # A failed computation must never strand a follower.
            for key in owned:
                self.cache.release((key, budget))
            # One durability point per batch: buffered writes become one
            # log append here, not one per lineage.  In a ``finally`` so
            # that a failing computation's sunk partial artifact (and
            # every result already computed this batch) still becomes
            # durable before the exception propagates.
            if tasks and self.store is not None:
                self.store.flush()
        return followed

    def _artifact_for(self, key: CanonicalKey) -> Optional[CompiledLineage]:
        """The compile-once stage: fetch the lineage's compilation state.

        Falls through memory artifact cache -> store artifact tier ->
        ``None`` (compile from scratch), promoting store hits into memory
        and keeping the per-tier artifact counters honest.
        """
        artifact = self.cache.artifacts.get(key)
        if artifact is not None:
            self.stats.bump(artifact_hits=1)
            return artifact
        store = self.store
        if store is not None:
            artifact = store.get_artifact(key)
            if artifact is not None:
                self.stats.bump(artifact_store_hits=1)
                self.cache.artifacts.put(key, artifact)
                return artifact
        return None

    def _remember_artifact(self, key: CanonicalKey,
                           artifact: Optional[CompiledLineage],
                           known: Optional[CompiledLineage] = None) -> None:
        """Write a computation's artifact back to the artifact tiers.

        ``known`` is the artifact the computation started from: handing
        the same object back means nothing changed (a complete-artifact
        reuse), so only the memory LRU recency is refreshed.  Trivial
        partials (an undecomposed frontier with zero expansions) are not
        persisted -- there is nothing worth resuming in them.
        """
        if artifact is None:
            return
        self.cache.artifacts.put(key, artifact)
        if artifact is known:
            return
        if not artifact.complete and artifact.expansion_steps == 0:
            return
        store = self.store
        if store is not None:
            store.put_artifact(key, artifact)

    def _compute_serial(self, canonical: CanonicalLineage,
                        k: Optional[int] = None) -> CachedAttribution:
        config = self.config
        artifact = self._artifact_for(canonical.key)
        if artifact is None:
            self.stats.bump(tree_compilations=1)
        elif not artifact.complete:
            self.stats.bump(artifact_resumes=1)
        else:
            # A complete artifact whose arena counts column is already
            # filled: the evaluation below will not recount a subtree.
            counts = artifact.arena().payloads.get("counts")
            if counts is not None and counts[-1] is not None:
                self.stats.bump(count_memo_hits=1)

        def sink(partial: CompiledLineage) -> None:
            # Failed computations still hand their partial progress back,
            # so a per-instance retry resumes instead of restarting.
            self._remember_artifact(canonical.key, partial, known=artifact)

        outcome, fell_back, artifact_out, rounds = _compute_canonical(
            canonical.dnf, config.method, config.epsilon,
            config.max_shannon_steps, config.timeout_seconds,
            artifact=artifact, k=k, artifact_sink=sink, stats=self.stats)
        if fell_back:
            self.stats.bump(fallbacks=1)
        self.stats.bump(refinement_rounds=rounds)
        if not outcome.converged:
            self.stats.bump(partial_results=1)
        self._remember_artifact(canonical.key, artifact_out, known=artifact)
        return outcome

    # ----------------------------------------------------------------- #
    # Assembly helpers
    # ----------------------------------------------------------------- #

    def _assembled(self, assembled: dict, kind: str, suffix: tuple,
                   answers: list, outcomes: list, assemble) -> tuple:
        """One query's assembled answers, kept on its prepared entry.

        ``assembled[kind]`` holds ``(suffix, outcomes, answers)`` from an
        earlier call; it is reused when the suffix matches and every
        answer's result is the very cache entry it was built from.
        Otherwise each answer is assembled afresh and, if every result
        converged (only those are ever cached), replaces the slot.
        """
        slot = assembled.get(kind)
        if (slot is not None and slot[0] == suffix
                and all(cached is kept for (_, cached), (_, kept)
                        in zip(outcomes, slot[1]))):
            self.stats.bump(assembly_hits=1)
            return slot[2]
        results = tuple(assemble(answer, outcome)
                        for answer, outcome in zip(answers, outcomes))
        if all(cached.converged for _, cached in outcomes):
            assembled[kind] = (suffix, outcomes, results)
        return results

    def _ranked_facts(self, outcome: Tuple[CanonicalLineage, CachedAttribution],
                      database: Database, effective_k: Optional[int]
                      ) -> List[Tuple[Fact, RankedVariable]]:
        """Order one answer's facts by the cached interval evidence."""
        canonical, cached = outcome
        slot = ("ranked", effective_k)
        groups = cached.templates.get(slot)
        if groups is None:
            groups = cached.templates[slot] = ranked_groups(
                {variable: Interval(lower, upper)
                 for variable, (lower, upper) in cached.bounds.items()},
                effective_k)
        fact_of = database.fact_of
        return [(fact_of(entry.variable), entry)
                for entry in ranked_from_groups(groups, effective_k,
                                                canonical.renaming)]

    def _assemble(self, answer: tuple,
                  outcome: Tuple[CanonicalLineage, CachedAttribution],
                  database: Database) -> "AttributionResult":
        """One answer's facts, best first: ``(-value, variable)`` order."""
        from repro.core.attribution import AttributionResult, FactAttribution

        canonical, cached = outcome
        groups = cached.templates.get("values")
        if groups is None:
            groups = cached.templates["values"] = _value_groups(cached)
        renaming = canonical.renaming
        fact_of = database.fact_of
        attributions = []
        for value, members in groups:
            rows = [(renaming[v], lower, upper) for v, lower, upper in members]
            if len(rows) > 1:
                rows.sort(key=itemgetter(0))
            attributions.extend(
                FactAttribution(fact_of(variable), variable, value, lower, upper)
                for variable, lower, upper in rows)
        return AttributionResult(answer=answer,
                                 attributions=tuple(attributions))


def _value_groups(cached: CachedAttribution) -> list:
    """An entry's attribution template: ``(value, [(canonical variable,
    lower, upper), ...])`` groups, highest value first."""
    groups: Dict[Fraction, list] = {}
    for variable, value in cached.values.items():
        lower, upper = cached.bounds.get(variable, (None, None))
        groups.setdefault(Fraction(value), []).append((variable, lower, upper))
    return sorted(groups.items(), key=itemgetter(0), reverse=True)


def engine_for(method: EngineMethod = "auto", *,
               epsilon: Optional[float] = 0.1,
               budget: Optional[CompilationBudget] = None,
               k: Optional[int] = None) -> Engine:
    """Build an engine from the legacy per-call knobs of ``attribute_facts``."""
    config = EngineConfig(method=method, epsilon=epsilon, k=k)
    if budget is not None:
        config = replace(config,
                         max_shannon_steps=budget.max_shannon_steps,
                         timeout_seconds=budget.timeout_seconds)
    return Engine(config)
