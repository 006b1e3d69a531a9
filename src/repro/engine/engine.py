"""The batched, cache-aware attribution engine.

This is the single execution path behind :func:`repro.attribute_facts`, the
CLI, the examples and the experiment runner.  Given queries (or raw
lineages) it runs a four-stage pipeline:

1. **evaluate** -- evaluate each query and build per-answer lineage DNFs
   (:mod:`repro.db.lineage`);
2. **canonicalize** -- rename each lineage into its variable-order-independent
   canonical form (:mod:`repro.engine.canonical`) and look it up in the
   cache tiers -- the in-memory lineage cache first, then the optional
   persistent store (:mod:`repro.engine.store`) -- deduplicating
   isomorphic answers within the batch;
3. **compute**, split into **compile-once / evaluate-per-method** -- each
   distinct cache miss first obtains its lineage's
   :class:`~repro.engine.artifact.CompiledLineage` (memory artifact cache
   -> store artifact tier -> fresh), then the selected algorithm
   *evaluates* it: a complete artifact is evaluated exactly by every
   method, a partial one is resumed from its persisted frontier, and the
   updated artifact is written back so the compilation is paid at most
   once per canonical lineage -- across methods, epsilons, k values and
   (via the store) processes.  Batches may also fan out over a
   ``concurrent.futures`` process pool with chunked scheduling and a
   transparent serial fallback (artifacts never cross the pool boundary);
4. **assemble** -- translate canonical-space values back through each
   answer's variable mapping and attach database facts.

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
variable space, shared lineage cache, optional pool fan-out -- so
isomorphic answers share one anytime run and repeat ranking traffic is
served from the cache.  A cached complete d-tree short-circuits to an
exact ranking; budget exhaustion degrades to best-so-far intervals (see
:mod:`repro.engine.ranking`).  Read rankings through :meth:`Engine.rank`
/ :meth:`Engine.rank_many`.

Typical use::

    from repro.engine import Engine, EngineConfig

    engine = Engine(EngineConfig(method="auto", max_workers=4))
    for query, results in engine.attribute_many(queries, database):
        ...
    print(engine.stats.as_dict())

    ranker = Engine(EngineConfig(method="topk", k=5))
    for answer, entries in ranker.rank(query, database):
        ...
"""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Literal,
    Optional,
    Sequence,
    Tuple,
)

from repro.boolean.dnf import DNF
from repro.core.adaban import adaban_over_state, shared_state
from repro.core.exaban import exaban_all
from repro.core.ichiban import RankedVariable, ranked_from_bounds
from repro.core.shapley import shapley_all
from repro.db.database import Database, Fact
from repro.db.lineage import AnswerLineage, DomainPolicy, lineage_of_answers
from repro.db.query import Query
from repro.dtree.compile import (
    CompilationBudget,
    CompilationLimitReached,
    compile_dnf,
)
from repro.engine.artifact import CompiledLineage, complete_compilation
from repro.engine.cache import CachedAttribution, LineageCache
from repro.engine.canonical import CanonicalKey, CanonicalLineage, canonicalize
from repro.engine.logstore import resolve_store
from repro.engine.ranking import compute_ranking
from repro.engine.stats import EngineStats
from repro.engine.store import (
    CacheStore,
    load_artifacts,
    load_results,
    save_artifacts,
    save_results,
)
from repro.reliability import faults
from repro.reliability.errors import WorkerCrash
from repro.reliability.faults import resolve_fault_plan
from repro.reliability.resilient import wrap_store
from repro.reliability.supervisor import SupervisedPool

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
    max_workers:
        Process-pool width for the compute stage.  ``0`` or ``1`` runs
        serially; values above 1 fan independent lineages out over
        ``concurrent.futures.ProcessPoolExecutor``.
    chunk_size:
        Number of lineages submitted per pool task, amortizing IPC overhead
        over several small computations.
    parallel_min_tasks:
        Minimum number of distinct cache misses before the pool is used at
        all; tiny batches stay serial (pool startup would dominate).
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
        Optional persistent result tier: a
        :class:`repro.engine.store.CacheStore` instance (e.g. a
        :class:`~repro.engine.logstore.LogStore`), or a *path string*
        naming a store root, which the engine opens as a log store via
        :func:`~repro.engine.logstore.open_store`.  Memory misses fall
        through to the store before computing, and freshly computed
        converged results are written back, so canonical-space results
        survive process restarts.  ``None`` (the default) keeps the
        engine memory-only.
    numeric:
        Evaluation tier for the ranking methods: ``"exact"`` (default)
        runs IchiBan's exact-``Fraction`` interval refinement;
        ``"float"`` ranks by log-space float scores off the arena pass
        (:mod:`repro.dtree.arena`), falling back to exact evaluation
        only for boundary-straddling variables — and, for lineages whose
        compilation exhausts its budget, degrades to an order-only
        surrogate ranking instead of timing out.  Results are cached
        under a ``-float``-suffixed method, so the tiers never serve
        each other's entries.  Only meaningful for ``rank``/``topk``;
        :meth:`Engine.rank`/:meth:`Engine.rank_many` accept a per-call
        override.
    float_ulp_margin:
        Width multiplier (>= 1) applied to the float tier's per-variable
        relative-error bounds before straddler detection: larger margins
        fall back to exact arithmetic more eagerly.
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
    pool_restarts:
        Worker-crash/hang budget of the supervised process pool: how
        many times the executor may be rebuilt (resubmitting only
        unfinished chunks) before the batch degrades to the serial path
        (:class:`~repro.reliability.supervisor.SupervisedPool`).
    pool_task_timeout:
        Per-task wall-clock watchdog of the supervised pool, in seconds:
        if no chunk completes within this window the pool is presumed
        hung and restarted (counted against ``pool_restarts``).
        ``None`` (default) disables the watchdog.
    fault_plan:
        Deterministic fault-injection plan for tests and chaos suites: a
        :class:`~repro.reliability.faults.FaultPlan`, a JSON string, or
        a dict/list spec (see :mod:`repro.reliability.faults`).  The
        plan is installed process-wide when the engine is constructed.
        ``None`` (the default) injects nothing and costs nothing.
    """

    method: EngineMethod = "auto"
    epsilon: Optional[float] = 0.1
    max_shannon_steps: Optional[int] = None
    timeout_seconds: Optional[float] = None
    max_workers: int = 0
    chunk_size: int = 8
    parallel_min_tasks: int = 4
    cache_size: int = 4096
    dtree_cache_size: int = 256
    domain: DomainPolicy = "lineage"
    k: Optional[int] = None
    store: Optional[object] = None
    numeric: str = "exact"
    float_ulp_margin: int = 8
    store_retries: int = 2
    breaker_threshold: int = 5
    pool_restarts: int = 2
    pool_task_timeout: Optional[float] = None
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
        if self.numeric not in ("exact", "float"):
            raise ValueError(
                f"numeric must be 'exact' or 'float', not {self.numeric!r}")
        if self.numeric == "float" and self.method not in ("rank", "topk"):
            raise ValueError(
                "numeric='float' is only meaningful for the ranking "
                f"methods ('rank'/'topk'), not {self.method!r}")
        if self.float_ulp_margin < 1:
            raise ValueError("float_ulp_margin must be at least 1")
        if self.store_retries < 0:
            raise ValueError("store_retries must be >= 0")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")
        if self.pool_restarts < 0:
            raise ValueError("pool_restarts must be >= 0")
        if self.pool_task_timeout is not None and self.pool_task_timeout <= 0:
            raise ValueError("pool_task_timeout must be positive when given")
        # Validate the plan spec at configuration time, not mid-batch.
        resolve_fault_plan(self.fault_plan)


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
# The per-lineage computation, shared by the serial path and the workers
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
    """Obtain a *complete* artifact: reuse, resume-and-finish, or compile.

    On budget exhaustion mid-resume the mid-flight compiler is left in
    ``partial_slot`` (a one-element list) so the caller can keep the
    progress -- feed it to the ``auto`` fallback, or persist it --
    before the ``CompilationLimitReached`` propagates.
    """
    if artifact is not None and artifact.complete:
        return artifact
    if artifact is not None:
        compiler = artifact.resume_compiler()
        partial_slot.append(compiler)
        complete_compilation(compiler, budget)
        return CompiledLineage.from_compiler(compiler)
    tree = compile_dnf(function, budget=budget)
    return CompiledLineage.from_complete_tree(
        tree, shannon_steps=budget.shannon_steps)


def _compute_canonical(function: DNF, method: EngineMethod,
                       epsilon: Optional[float],
                       max_shannon_steps: Optional[int],
                       timeout_seconds: Optional[float],
                       artifact: Optional[CompiledLineage] = None,
                       k: Optional[int] = None,
                       artifact_sink=None,
                       numeric: str = "exact",
                       float_ulp_margin: int = 8,
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
    receives partial progress when a computation fails (budget
    exhaustion), so the work survives the raised exception.
    """
    faults.check("compile.step")
    if method in ("rank", "topk"):
        # The configured step budget bounds the anytime run's bound
        # evaluations -- the ranking analogue of the Shannon budget, so
        # a budgeted engine never runs a ranking unbounded either.
        computation = compute_ranking(function, method, k, epsilon,
                                      timeout_seconds, artifact=artifact,
                                      max_steps=max_shannon_steps,
                                      numeric=numeric,
                                      float_ulp_margin=float_ulp_margin,
                                      stats=stats)
        return (computation.outcome, False, computation.artifact,
                computation.rounds)
    if method == "approximate":
        if artifact is not None and artifact.complete:
            # A complete artifact makes any epsilon free: read the exact
            # values (a valid approximation for every epsilon) directly,
            # without cloning or re-persisting the tree.  As under
            # ``auto``, ``method_used`` records what actually ran.
            occurring = function.variables
            raw = exaban_all(artifact.root, stats=stats)
            return CachedAttribution(
                method_used="exact",
                values={v: Fraction(value) for v, value in raw.items()
                        if v in occurring},
                bounds={v: (value, value) for v, value in raw.items()
                        if v in occurring},
            ), False, artifact, 0
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
        raw = exaban_all(artifact_out.root, stats=stats)
    except CompilationLimitReached:
        compiler = partial_slot[0] if partial_slot else None
        if method != "auto":
            if compiler is not None and artifact_sink is not None:
                artifact_sink(CompiledLineage.from_compiler(compiler))
            raise
        # The fallback shares the wall-clock budget: AdaBan only gets what
        # the failed exact attempt left over -- and it *continues from*
        # the partial tree that attempt built (when there is one), so the
        # budget spent on the exact side is not thrown away.  If it cannot
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
    return CachedAttribution(
        method_used="exact",
        values={v: Fraction(value) for v, value in raw.items()},
        bounds={v: (value, value) for v, value in raw.items()},
    ), False, artifact_out, 0


def _worker_compute_chunk(payload: Tuple
                          ) -> List[Tuple[int, CachedAttribution, bool, int]]:
    """Process-pool task: attribute a chunk of canonical lineages.

    The payload is fully picklable: clause tuples plus the scalar method
    configuration.  Exceptions propagate to the parent through the future.
    """
    (chunk, method, epsilon, max_shannon_steps, timeout_seconds, k,
     numeric, float_ulp_margin) = payload
    # Inside the worker process: a ``kill`` rule here exercises the
    # supervised pool's crash recovery (plans reach workers by fork
    # inheritance or via the REPRO_FAULT_PLAN environment variable).
    faults.check("pool.task")
    results = []
    for index, num_variables, clauses in chunk:
        function = DNF(clauses, domain=range(num_variables))
        outcome, fell_back, _, rounds = _compute_canonical(
            function, method, epsilon, max_shannon_steps, timeout_seconds,
            k=k, numeric=numeric, float_ulp_margin=float_ulp_margin)
        results.append((index, outcome, fell_back, rounds))
    return results


class Engine:
    """Batched attribution engine with a lineage cache and parallel fan-out.

    One engine instance owns one cache and one stats object; reuse the
    instance across queries to benefit from cross-query memoization.  Cache
    operations are individually lock-protected, so threads sharing an
    engine can at worst duplicate a computation (never corrupt state), and
    stats counters go through :meth:`EngineStats.bump`, so concurrent
    increments are never dropped either (the concurrent front-end in
    :mod:`repro.engine.frontend` relies on both).  The process pool is
    created per compute batch and always torn down before the batch
    returns.
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.cache = LineageCache(self.config.cache_size,
                                  self.config.dtree_cache_size)
        self.stats = EngineStats()
        faults.install(resolve_fault_plan(self.config.fault_plan))
        #: The persistent result tier (or ``None``).  Mutable on purpose:
        #: a service can attach one store to several engines after
        #: construction.  A path-valued config opens its backend here,
        #: exactly once per engine (LogStore's writer lock makes
        #: accidental double-opening loud).  Wrapped in a
        #: :class:`~repro.reliability.resilient.ResilientStore` (retry +
        #: circuit breaker) unless both reliability knobs are 0.
        self.store: Optional[CacheStore] = wrap_store(
            resolve_store(self.config.store),
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
        once.  Inputs and outputs are fact-space; canonical variable space
        is an internal detail of the cache tiers.
        """
        from repro.core.attribution import AttributionResult

        for query in queries:
            self.stats.bump(queries=1)
            with self.stats.timed("evaluate"):
                answers = lineage_of_answers(query, database,
                                             domain=self.config.domain)
            outcomes = self._attribute_batch([a.lineage for a in answers])
            with self.stats.timed("assemble"):
                results = [
                    self._assemble(answer, outcome, database)
                    for answer, outcome in zip(answers, outcomes)
                ]
            yield query, results

    def rank_many(self, queries: Iterable[Query], database: Database,
                  k: Optional[int] = None,
                  numeric: Optional[str] = None
                  ) -> Iterator[Tuple[Query, List[RankedAnswer]]]:
        """Rank the facts of every answer of a query stream (IchiBan).

        Requires a ``"rank"`` or ``"topk"`` engine.  Yields ``(query,
        rankings)`` pairs, where each ranking is ``(answer values, [(fact,
        RankedVariable), ...])`` in rank order -- truncated to ``k`` under
        ``"topk"``.  ``k`` overrides ``config.k`` per call; because results
        are cached per ``(canonical lineage, epsilon, k)`` and completed
        d-trees are shared across k values, one engine can serve mixed-k
        traffic.  ``numeric`` likewise overrides ``config.numeric`` per
        call (``"float"`` ranks by the log-space float tier; see
        :class:`EngineConfig`), and the tiers cache separately while
        still sharing compiled d-trees.
        """
        if self.config.method not in ("rank", "topk"):
            raise ValueError(
                "rank()/rank_many() need an engine configured with "
                f"method='rank' or 'topk', not {self.config.method!r}"
            )
        for query in queries:
            self.stats.bump(queries=1)
            with self.stats.timed("evaluate"):
                answers = lineage_of_answers(query, database,
                                             domain=self.config.domain)
            outcomes = self._attribute_batch([a.lineage for a in answers],
                                             k=k, numeric=numeric)
            with self.stats.timed("assemble"):
                rankings = [
                    (answer.values,
                     self._ranked_facts(outcome, database, k))
                    for answer, outcome in zip(answers, outcomes)
                ]
            yield query, rankings

    def rank(self, query: Query, database: Database,
             k: Optional[int] = None,
             numeric: Optional[str] = None) -> List[RankedAnswer]:
        """Rank every answer of one query (see :meth:`rank_many`)."""
        _, rankings = next(self.rank_many([query], database, k=k,
                                          numeric=numeric))
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
        outcomes = self._attribute_batch(lineages)
        attributions = []
        with self.stats.timed("assemble"):
            for lineage, (canonical, cached) in zip(lineages, outcomes):
                attributions.append(LineageAttribution(
                    lineage=lineage,
                    method_used=cached.method_used,
                    values=self._map_back(cached.values, canonical),
                    bounds={canonical.from_canonical[v]: bound
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

    def _attribute_batch(self, lineages: Sequence[DNF],
                         k: Optional[int] = None,
                         numeric: Optional[str] = None
                         ) -> List[Tuple[CanonicalLineage, CachedAttribution]]:
        """Canonicalize, cache-check, compute and return per-lineage outcomes."""
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
        if numeric is None:
            numeric = config.numeric
        elif numeric not in ("exact", "float"):
            raise ValueError(
                f"numeric must be 'exact' or 'float', not {numeric!r}")
        elif config.method not in ("rank", "topk"):
            raise ValueError("a per-call numeric needs method='rank' or "
                             "'topk'")
        # Float-tier results live under a suffixed method key: the tiers
        # produce different certificates, so they must never alias.
        key_method = (config.method if numeric == "exact"
                      else f"{config.method}-float")
        self.stats.bump(answers=len(lineages))

        with self.stats.timed("canonicalize"):
            canonicals = [canonicalize(lineage) for lineage in lineages]
            keys = [self.cache.result_key(c.key, key_method,
                                          config.epsilon, k)
                    for c in canonicals]
            cached: Dict[int, CachedAttribution] = {}
            pending: Dict[object, List[int]] = {}
            for index, key in enumerate(keys):
                hit = self.cache.results.get(key)
                if hit is not None:
                    cached[index] = hit
                    self.stats.bump(cache_hits=1)
                    continue
                if key in pending:
                    # An isomorphic lineage earlier in this batch is already
                    # scheduled; share its computation.
                    pending[key].append(index)
                    self.stats.bump(cache_hits=1)
                    continue
                if self.store is not None:
                    stored = self.store.get(key)
                    if stored is not None and stored.converged:
                        # Promote the store hit into the memory tier so
                        # the rest of this process serves it for free.
                        self.cache.results.put(key, stored)
                        cached[index] = stored
                        self.stats.bump(store_hits=1)
                        continue
                pending[key] = [index]
                self.stats.bump(cache_misses=1)

        with self.stats.timed("compute"):
            tasks = [(key, indices[0]) for key, indices in pending.items()]
            # Cache each outcome as soon as it is computed: if a later task
            # fails (budget exhaustion on a pathological lineage), the work
            # already done stays reusable and a per-instance retry hits it.
            # Unconverged ranking results (best-so-far intervals) are
            # reported but never cached -- a later call deserves a fresh
            # attempt (e.g. against a d-tree cached in the meantime).
            try:
                for position, outcome in self._compute_tasks(
                        [canonicals[index] for _, index in tasks], k,
                        numeric):
                    key = tasks[position][0]
                    if outcome.converged:
                        self.cache.results.put(key, outcome)
                        if self.store is not None:
                            self.store.put(key, outcome)
                    for index in pending[key]:
                        cached[index] = outcome
            finally:
                # One durability point per batch: buffered writes become
                # one log append here, not one per lineage.  In a
                # ``finally`` so that a failing computation's sunk
                # partial artifact (and every result already computed
                # this batch) still becomes durable before the
                # exception propagates.
                if tasks and self.store is not None:
                    self.store.flush()

        return [(canonicals[index], cached[index])
                for index in range(len(lineages))]

    def _effective_workers(self) -> int:
        """Worker processes the pool could actually run in parallel.

        ``max_workers`` is clamped to the machine's core count *before*
        deciding whether to use the pool at all: a 4-worker request on a
        1-core host would otherwise build a 1-worker pool and pay
        pickling/IPC for zero parallelism.
        """
        return max(1, min(self.config.max_workers, os.cpu_count() or 1))

    def _compute_tasks(self, tasks: Sequence[CanonicalLineage],
                       k: Optional[int], numeric: str = "exact"
                       ) -> Iterator[Tuple[int, CachedAttribution]]:
        """Run the distinct cache misses, in the pool or serially.

        Yields ``(task position, outcome)`` pairs as they complete, so the
        caller can cache incrementally; ``compilations`` is counted per
        completed outcome, never for work a failure prevented.
        """
        if not tasks:
            return
        config = self.config
        done = set()
        if (self._effective_workers() > 1
                and len(tasks) >= config.parallel_min_tasks):
            try:
                for position, outcome in self._compute_parallel(tasks, k,
                                                                numeric):
                    self.stats.bump(compilations=1)
                    done.add(position)
                    yield position, outcome
                return
            except (OSError, ImportError, BrokenProcessPool, WorkerCrash):
                # Terminal degradation: pool creation failed in a
                # restricted environment, or the supervised pool burned
                # through its restart budget (workers kept dying or
                # hanging).  The serial path computes identical results
                # either way, picking up where the pool left off -- and
                # the degradation is counted, never silent.
                self.stats.bump(pool_fallbacks=1)
        for position, canonical in enumerate(tasks):
            if position in done:
                continue
            outcome = self._compute_serial(canonical, k, numeric)
            self.stats.bump(compilations=1)
            yield position, outcome

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
        if store is not None and hasattr(store, "get_artifact"):
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
        if store is not None and hasattr(store, "put_artifact"):
            store.put_artifact(key, artifact)

    def _compute_serial(self, canonical: CanonicalLineage,
                        k: Optional[int] = None,
                        numeric: str = "exact") -> CachedAttribution:
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
            artifact=artifact, k=k, artifact_sink=sink, numeric=numeric,
            float_ulp_margin=config.float_ulp_margin, stats=self.stats)
        self._record_outcome(outcome, fell_back, rounds)
        self._remember_artifact(canonical.key, artifact_out, known=artifact)
        return outcome

    def _record_outcome(self, outcome: CachedAttribution, fell_back: bool,
                        rounds: int) -> None:
        if fell_back:
            self.stats.bump(fallbacks=1)
        self.stats.bump(refinement_rounds=rounds)
        if not outcome.converged:
            self.stats.bump(partial_results=1)

    def _compute_parallel(self, tasks: Sequence[CanonicalLineage],
                          k: Optional[int], numeric: str = "exact"
                          ) -> Iterator[Tuple[int, CachedAttribution]]:
        """Fan the tasks out over a supervised pool, yielding as chunks finish.

        The chunk size amortizes IPC over several small computations but is
        capped so every effective worker gets at least one chunk -- a fixed
        chunk size would silently throttle parallelism on mid-size batches.

        The pool is supervised: a dead or hung worker rebuilds the
        executor and resubmits only the unfinished chunks (each event is
        counted in ``pool_worker_crashes``), bounded by
        ``config.pool_restarts``; past the budget
        :class:`~repro.reliability.errors.WorkerCrash` propagates and
        the caller degrades to the serial path.  Chunks are idempotent
        pure functions of their payload, so a resubmitted chunk yields
        bit-identical results and already-yielded chunks never recompute.
        """
        config = self.config
        max_workers = self._effective_workers()
        chunk_size = max(1, min(config.chunk_size,
                                -(-len(tasks) // max_workers)))
        chunks: List[List[Tuple[int, int, Tuple[Tuple[int, ...], ...]]]] = []
        for start in range(0, len(tasks), chunk_size):
            chunk = [
                (position, canonical.dnf.num_variables(), canonical.key[1])
                for position, canonical
                in enumerate(tasks[start:start + chunk_size], start)
            ]
            chunks.append(chunk)

        payloads = [
            (chunk, config.method, config.epsilon,
             config.max_shannon_steps, config.timeout_seconds, k,
             numeric, config.float_ulp_margin)
            for chunk in chunks
        ]
        pool = SupervisedPool(
            _worker_compute_chunk,
            max_workers=min(max_workers, len(chunks)),
            max_restarts=config.pool_restarts,
            task_timeout=config.pool_task_timeout,
            on_crash=lambda kind: self.stats.bump(pool_worker_crashes=1),
        )
        for _chunk_index, chunk_results in pool.run(payloads):
            for position, outcome, fell_back, rounds in chunk_results:
                self._record_outcome(outcome, fell_back, rounds)
                # Artifacts never cross the pool boundary: every
                # worker computation compiles from scratch.
                self.stats.bump(tree_compilations=1)
                yield position, outcome
        self.stats.bump(parallel_batches=1)

    # ----------------------------------------------------------------- #
    # Assembly helpers
    # ----------------------------------------------------------------- #

    @staticmethod
    def _map_back(values: Dict[int, Fraction], canonical: CanonicalLineage
                  ) -> Dict[int, Fraction]:
        return {canonical.from_canonical[variable]: value
                for variable, value in values.items()}

    def _ranked_facts(self, outcome: Tuple[CanonicalLineage, CachedAttribution],
                      database: Database, k: Optional[int]
                      ) -> List[Tuple[Fact, RankedVariable]]:
        """Order one answer's facts by the cached interval evidence."""
        canonical, cached = outcome
        bounds = {canonical.from_canonical[variable]: bound
                  for variable, bound in cached.bounds.items()}
        if self.config.method == "topk":
            effective_k: Optional[int] = self.config.k if k is None else k
        else:
            effective_k = None
        return [(database.fact_of(entry.variable), entry)
                for entry in ranked_from_bounds(bounds, effective_k)]

    def _assemble(self, answer: AnswerLineage,
                  outcome: Tuple[CanonicalLineage, CachedAttribution],
                  database: Database) -> "AttributionResult":
        from repro.core.attribution import (
            AttributionResult,
            _attributions_from_values,
        )

        canonical, cached = outcome
        values = self._map_back(cached.values, canonical)
        bounds = {canonical.from_canonical[v]: bound
                  for v, bound in cached.bounds.items()}
        return AttributionResult(
            answer=answer.values,
            attributions=_attributions_from_values(values, database, bounds),
        )


def engine_for(method: EngineMethod = "auto", *,
               epsilon: Optional[float] = 0.1,
               budget: Optional[CompilationBudget] = None,
               max_workers: int = 0,
               k: Optional[int] = None) -> Engine:
    """Build an engine from the legacy per-call knobs of ``attribute_facts``."""
    config = EngineConfig(method=method, epsilon=epsilon,
                          max_workers=max_workers, k=k)
    if budget is not None:
        config = replace(config,
                         max_shannon_steps=budget.max_shannon_steps,
                         timeout_seconds=budget.timeout_seconds)
    return Engine(config)
