"""Timed algorithm adapters and the workload runner.

Every algorithm is wrapped behind the same interface: it receives a lineage
and a per-instance time budget and returns an :class:`AlgorithmResult` that
records success/failure, the wall-clock time, and the computed values (exact
or estimated Banzhaf values for all variables of the lineage).  Failures --
budget exhaustion, representation blow-ups -- are recorded, not raised, so
that success rates can be reported exactly like in the paper's Table 2.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.cnf_proxy import cnf_proxy_ranking
from repro.baselines.monte_carlo import monte_carlo_banzhaf_all
from repro.baselines.sig22 import Sig22Failure, sig22_banzhaf_all
from repro.boolean.dnf import DNF
from repro.core.adaban import ApproximationTimeout, adaban_all
from repro.core.exaban import exaban_all
from repro.core.ichiban import ichiban_topk, ranked_from_intervals
from repro.dtree.compile import (
    CompilationBudget,
    CompilationLimitReached,
    compile_dnf,
)
from repro.engine import Engine, EngineConfig
from repro.engine.store import CacheStore
from repro.workloads.generators import LineageInstance
from repro.workloads.suite import Workload


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the evaluation protocol.

    The paper's per-instance budget is one hour on a large server; the
    defaults here are per-instance seconds appropriate for the synthetic
    workloads, and every benchmark prints the budget it used.
    """

    timeout_seconds: float = 5.0
    epsilon: float = 0.1
    mc_sample_factor: int = 50
    max_shannon_steps: Optional[int] = 200_000
    max_cnf_clauses: int = 2_000
    topk: Tuple[int, ...] = (5, 10)


@dataclass(frozen=True)
class AlgorithmResult:
    """Outcome of one algorithm on one instance."""

    algorithm: str
    instance: LineageInstance
    success: bool
    seconds: float
    values: Dict[int, Fraction] = field(default_factory=dict)
    failure_reason: str = ""

    def float_values(self) -> Dict[int, float]:
        """The value vector as floats (for reporting)."""
        return {key: float(value) for key, value in self.values.items()}


#: Recursion head-room for the recursive Sig22 baseline, whose knowledge
#: compiler descends once per Shannon expansion.
_RECURSION_LIMIT = 100_000


def _ensure_recursion_head_room() -> None:
    """Raise the interpreter recursion limit for the recursive baselines.

    Only the experiment runner does this.  Library calls (the engine, the
    d-tree passes) leave the limit alone: every one of their passes is
    iterative.
    """
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)


def _run_exaban(lineage: DNF, config: ExperimentConfig) -> Dict[int, Fraction]:
    budget = CompilationBudget(max_shannon_steps=config.max_shannon_steps,
                               timeout_seconds=config.timeout_seconds)
    tree = compile_dnf(lineage, budget=budget)
    return {v: Fraction(value) for v, value in exaban_all(tree).items()}


def _run_sig22(lineage: DNF, config: ExperimentConfig) -> Dict[int, Fraction]:
    values = sig22_banzhaf_all(lineage,
                               timeout_seconds=config.timeout_seconds,
                               max_cnf_clauses=config.max_cnf_clauses)
    return {v: Fraction(value) for v, value in values.items()}


def _run_adaban(lineage: DNF, config: ExperimentConfig) -> Dict[int, Fraction]:
    results = adaban_all(lineage, epsilon=config.epsilon,
                         timeout_seconds=config.timeout_seconds)
    return {v: Fraction(result.estimate) for v, result in results.items()}


def _run_monte_carlo(lineage: DNF, config: ExperimentConfig
                     ) -> Dict[int, Fraction]:
    estimates = monte_carlo_banzhaf_all(
        lineage,
        num_samples=config.mc_sample_factor * max(1, len(lineage.variables)),
        timeout_seconds=config.timeout_seconds,
    )
    return {v: Fraction(estimate.estimate) for v, estimate in estimates.items()}


#: Engines shared across ``run_algorithm`` calls with the same config, so
#: the ``engine`` and ``topk`` algorithms benefit from their lineage
#: caches across the instances of a workload (isomorphic lineages compile
#: once).
_ENGINE_POOL: Dict[Tuple[ExperimentConfig, str], Engine] = {}


def clear_engine_pool() -> None:
    """Drop all shared engines (and their caches).

    :func:`run_workloads` calls this before an ``engine`` run so its
    reported timings describe that run alone; call it manually when
    benchmarking :func:`run_algorithm` with ``"engine"`` directly and
    cross-call cache warmth is not wanted.
    """
    _ENGINE_POOL.clear()


def engine_for_config(config: ExperimentConfig,
                      method: str = "auto") -> Engine:
    """The shared batched engine for one experiment configuration.

    With the default ``method="auto"``: exact ExaBan under the experiment's
    compilation budget, falling back to AdaBan with the experiment's epsilon
    -- the paper's Table 4/6 fallback story as a single algorithm entry.
    ``method="topk"`` instead runs IchiBan's top-k-aware refinement with
    ``k = config.topk[0]`` (the Table 8/9 interactive use case).

    The engine (and its lineage cache) is shared by every
    :func:`run_algorithm` call with the same config in this process --
    deliberate, so the ``engine``/``topk`` algorithms show cache warmth
    across a workload's instances; see :func:`clear_engine_pool` for when
    that history is unwanted.
    """
    key = (config, method)
    engine = _ENGINE_POOL.get(key)
    if engine is None:
        engine = Engine(EngineConfig(
            method=method,
            epsilon=config.epsilon,
            max_shannon_steps=config.max_shannon_steps,
            timeout_seconds=config.timeout_seconds,
            k=config.topk[0] if method == "topk" else None,
        ))
        _ENGINE_POOL[key] = engine
    return engine


def _run_engine(lineage: DNF, config: ExperimentConfig) -> Dict[int, Fraction]:
    engine = engine_for_config(config)
    return engine.attribute_lineages([lineage])[0].values


def _run_topk(lineage: DNF, config: ExperimentConfig) -> Dict[int, Fraction]:
    """IchiBan top-k through the batched engine (``k = config.topk[0]``).

    Anytime semantics: budget exhaustion degrades to best-so-far interval
    midpoints instead of failing (visible as ``partial_results`` in the
    engine stats).  The returned values are interval midpoints for all
    variables; when the certified top-k *set* is wanted, read it through
    :meth:`repro.engine.engine.Engine.rank` (or
    :func:`repro.core.ichiban.ranked_from_bounds` on the result bounds),
    which order by the interval evidence instead of raw midpoints.
    """
    engine = engine_for_config(config, method="topk")
    return engine.attribute_lineages([lineage])[0].values


_RUNNERS: Dict[str, Callable[[DNF, ExperimentConfig], Dict[int, Fraction]]] = {
    "exaban": _run_exaban,
    "sig22": _run_sig22,
    "adaban": _run_adaban,
    "mc": _run_monte_carlo,
    "engine": _run_engine,
    "topk": _run_topk,
}

#: Algorithm names accepted by :func:`run_algorithm`.
ALGORITHMS: Tuple[str, ...] = tuple(sorted(_RUNNERS))

_FAILURE_EXCEPTIONS = (
    CompilationLimitReached,
    Sig22Failure,
    ApproximationTimeout,
    TimeoutError,
    MemoryError,
    RecursionError,
)


def run_algorithm(algorithm: str, instance: LineageInstance,
                  config: ExperimentConfig) -> AlgorithmResult:
    """Run one algorithm on one instance under the configured budget."""
    try:
        runner = _RUNNERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        ) from None
    _ensure_recursion_head_room()
    started = time.monotonic()
    try:
        values = runner(instance.lineage, config)
    except _FAILURE_EXCEPTIONS as error:
        return AlgorithmResult(
            algorithm=algorithm,
            instance=instance,
            success=False,
            seconds=time.monotonic() - started,
            failure_reason=f"{type(error).__name__}: {error}",
        )
    return AlgorithmResult(
        algorithm=algorithm,
        instance=instance,
        success=True,
        seconds=time.monotonic() - started,
        values=values,
    )


def run_workloads(workloads: Sequence[Workload], algorithms: Sequence[str],
                  config: Optional[ExperimentConfig] = None
                  ) -> Dict[Tuple[str, str], List[AlgorithmResult]]:
    """Run every algorithm on every instance of every workload.

    Returns a mapping ``(workload name, algorithm name) -> results`` with one
    result per instance, in workload order.
    """
    if config is None:
        config = ExperimentConfig()
    if "engine" in algorithms or "topk" in algorithms:
        # Fresh engines per run_workloads call: repeated runs must report
        # the same cache behavior, not ever-warmer timings.
        clear_engine_pool()
    results: Dict[Tuple[str, str], List[AlgorithmResult]] = {}
    for workload in workloads:
        for algorithm in algorithms:
            key = (workload.name, algorithm)
            results[key] = [run_algorithm(algorithm, instance, config)
                            for instance in workload.instances]
    return results


def run_workload_batched(workload: Workload,
                         config: Optional[ExperimentConfig] = None,
                         engine: Optional[Engine] = None
                         ) -> Tuple[List[AlgorithmResult], Dict[str, object]]:
    """Run a whole workload through one batched engine call.

    Unlike :func:`run_algorithm`, which measures each instance in isolation
    (the paper's per-instance protocol), this hands *all* instances of the
    workload to :meth:`repro.engine.Engine.attribute_lineages` at once, so
    isomorphic lineages are deduplicated and repeated structures hit the
    cache.

    By default a *fresh* engine is built, so the reported stats and timings
    describe exactly this batch and repeated calls are reproducible; pass
    ``engine`` explicitly (e.g. from :func:`engine_for_config`) to measure
    warm-cache behavior instead.

    If the whole batch fails (one pathological lineage defeats both the
    exact budget and the AdaBan fallback), the run degrades to the
    per-instance protocol so every other instance still gets a result and
    the failure is recorded per instance, not raised.

    Per-instance wall-clock is not observable inside a batch; the reported
    ``seconds`` of each result is the batch total divided by the number of
    instances.  Returns the results plus the engine's stats snapshot.
    """
    if config is None:
        config = ExperimentConfig()
    if engine is None:
        engine = Engine(EngineConfig(
            method="auto",
            epsilon=config.epsilon,
            max_shannon_steps=config.max_shannon_steps,
            timeout_seconds=config.timeout_seconds,
        ))
    engine.reset_stats()
    _ensure_recursion_head_room()
    started = time.monotonic()
    try:
        attributions = engine.attribute_lineages(
            [instance.lineage for instance in workload.instances])
    except _FAILURE_EXCEPTIONS:
        # Degrade to the per-instance protocol.  Work completed before the
        # failure was cached incrementally, so only the failing instances
        # are actually recomputed; the stats are reset so the returned
        # snapshot describes the per-instance pass, not a double count.
        engine.reset_stats()
        results = [
            run_algorithm_with_engine(instance, config, engine)
            for instance in workload.instances
        ]
        return results, engine.stats.as_dict()
    elapsed = time.monotonic() - started
    per_instance = elapsed / max(1, len(workload.instances))
    results = [
        AlgorithmResult(
            algorithm="engine",
            instance=instance,
            success=True,
            seconds=per_instance,
            values=dict(attribution.values),
        )
        for instance, attribution in zip(workload.instances, attributions)
    ]
    return results, engine.stats.as_dict()


@dataclass(frozen=True)
class EpochReport:
    """Stats of one workload epoch served by :func:`run_workload_epochs`."""

    epoch: int
    seconds: float
    stats: Dict[str, object]


def run_workload_epochs(workload: Workload,
                        epochs: int = 3,
                        config: Optional[ExperimentConfig] = None,
                        store: Optional[CacheStore] = None,
                        warm_start: bool = False,
                        engine: Optional[Engine] = None
                        ) -> Tuple[List[EpochReport], List]:
    """Serve several epochs of repeat traffic through one engine.

    The workload's instances are attributed once per epoch -- the same
    query log arriving repeatedly, as a serving deployment sees it.  The
    engine's stats are reset per epoch, so each :class:`EpochReport`
    describes exactly that epoch: the first epoch of a cold engine is all
    misses, later epochs are all memory hits, and the first epoch of a
    *store-backed fresh engine* (a new process over a persisted cache) is
    served from the store tier -- the warm-start scenario measured by
    ``benchmarks/bench_cache_warmstart.py``.

    Parameters
    ----------
    workload:
        The instances to serve each epoch (fact-space lineages; the
        engine canonicalizes internally).
    epochs:
        Number of times the whole workload is replayed.
    config:
        Experiment budgets/epsilon (default :class:`ExperimentConfig`).
    store:
        Optional persistent tier for the engine (ignored when ``engine``
        is passed and already has one).
    warm_start:
        Preload the store into the engine's memory tiers before the
        first epoch (requires a store).  This loads results *and*
        compiled-lineage artifacts, so the warm process not only serves
        repeated results from memory but also resumes partial
        compilations a previous process persisted mid-refinement.
    engine:
        Serve through this engine instead of building a fresh ``auto``
        one -- e.g. to measure an already-warm process.

    Returns
    -------
    (reports, first_epoch_attributions):
        One report per epoch, plus the first epoch's
        :class:`~repro.engine.engine.LineageAttribution` list (fact-space
        values) for exactness comparisons between cold and warm runs.
    """
    if config is None:
        config = ExperimentConfig()
    if engine is None:
        engine = Engine(EngineConfig(
            method="auto",
            epsilon=config.epsilon,
            max_shannon_steps=config.max_shannon_steps,
            timeout_seconds=config.timeout_seconds,
            store=store,
        ))
    elif store is not None and engine.store is None:
        engine.store = store
    if warm_start:
        engine.load_cache()
    _ensure_recursion_head_room()
    lineages = [instance.lineage for instance in workload.instances]
    reports: List[EpochReport] = []
    first: List = []
    for epoch in range(max(1, epochs)):
        engine.reset_stats()
        started = time.monotonic()
        attributions = engine.attribute_lineages(lineages)
        elapsed = time.monotonic() - started
        if epoch == 0:
            first = attributions
        reports.append(EpochReport(epoch=epoch, seconds=elapsed,
                                   stats=engine.stats.as_dict()))
    return reports, first


def run_algorithm_with_engine(instance: LineageInstance,
                              config: ExperimentConfig,
                              engine: Engine) -> AlgorithmResult:
    """Run one instance through a specific engine, recording failures."""
    _ensure_recursion_head_room()
    started = time.monotonic()
    try:
        (attribution,) = engine.attribute_lineages([instance.lineage])
    except _FAILURE_EXCEPTIONS as error:
        return AlgorithmResult(
            algorithm="engine",
            instance=instance,
            success=False,
            seconds=time.monotonic() - started,
            failure_reason=f"{type(error).__name__}: {error}",
        )
    return AlgorithmResult(
        algorithm="engine",
        instance=instance,
        success=True,
        seconds=time.monotonic() - started,
        values=dict(attribution.values),
    )


def exact_ground_truth(instance: LineageInstance,
                       timeout_seconds: float = 60.0) -> Optional[Dict[int, int]]:
    """Exact Banzhaf values with a generous budget (accuracy ground truth).

    Returns ``None`` when even the generous budget is not enough.
    """
    config = ExperimentConfig(timeout_seconds=timeout_seconds,
                              max_shannon_steps=None)
    result = run_algorithm("exaban", instance, config)
    if not result.success:
        return None
    return {v: int(value) for v, value in result.values.items()}


def topk_with_ichiban(instance: LineageInstance, k: int,
                      config: ExperimentConfig,
                      allow_partial: bool = False) -> Optional[List[int]]:
    """IchiBan top-k variable ids for one instance (``None`` on failure).

    With ``allow_partial=True`` budget exhaustion degrades gracefully: the
    best-so-far intervals carried by
    :class:`~repro.core.ichiban.IchiBanTimeout` still order the variables,
    so an uncertified top-k is returned instead of ``None``.  The default
    keeps failures as ``None`` because the Table 8 precision metric -- like
    the paper's -- is defined over converged runs only; the serving path
    (:class:`repro.engine.Engine` under ``method="topk"``) always degrades
    and reports partials via its stats.
    """
    _ensure_recursion_head_room()
    try:
        ranking = ichiban_topk(instance.lineage, k=k, epsilon=config.epsilon,
                               timeout_seconds=config.timeout_seconds)
    except _FAILURE_EXCEPTIONS as error:
        intervals = getattr(error, "intervals", None)
        if allow_partial and intervals:
            return [entry.variable
                    for entry in ranked_from_intervals(intervals, k)]
        return None
    return [entry.variable for entry in ranking]


def topk_with_cnf_proxy(instance: LineageInstance, k: int,
                        config: ExperimentConfig) -> Optional[List[int]]:
    """CNF-proxy top-k variable ids for one instance (``None`` on failure)."""
    try:
        ranking = cnf_proxy_ranking(instance.lineage,
                                    max_cnf_clauses=config.max_cnf_clauses)
    except _FAILURE_EXCEPTIONS:
        return None
    return [variable for variable, _ in ranking[:k]]


def topk_from_values(values: Mapping[int, Fraction], k: int) -> List[int]:
    """Top-k variable ids from a value vector (ties broken by variable id)."""
    ordered = sorted(values.items(), key=lambda item: (-item[1], item[0]))
    return [variable for variable, _ in ordered[:k]]
