"""Compile-once benchmark: the shared compiled-lineage artifact tier.

The d-tree is the paper's central artifact — ExaBan, AdaBan, IchiBan and
the Shapley extension are all evaluators over the same compiled (or
partially compiled) d-tree — so a serving deployment that answers a
*cross-method* workload (attribute, then rank, then top-k, then Shapley
over the same lineages) should pay compilation **once per canonical
lineage**, not once per method.  This benchmark measures exactly that
against the seed behavior (compilation fused into each method's compute
path) and asserts the acceptance criteria of the artifact tier:

* **(a) second-method evaluations skip recompilation** — in the shared
  configuration, every method after the first reports
  ``tree_compilations == 0``; its computations are all artifact hits;
* **(b) a warm-started process resumes partial trees** — a budget-starved
  certain ranking persists its mid-refinement frontier; a fresh process
  over the same store directory reports ``artifact_resumes > 0`` and
  finishes with strictly less refinement work than a from-scratch run;
* **(c) bit-identical Fractions** — every value produced off the shared
  artifact equals (``Fraction`` equality, type included) the value a
  cold per-method engine computes for itself.

Environment knobs: ``REPRO_BENCH_SMOKE=1`` trims the workload for CI.
Runs standalone (``python benchmarks/bench_compile_reuse.py``) or under
pytest with the benchmark harness (the report lands in
``benchmarks/results/compile_reuse.txt``).
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import replace
from fractions import Fraction
from typing import Dict, List

from conftest import emit_bench_json, register_report

from repro.baselines.brute_force import banzhaf_all_brute_force
from repro.boolean.dnf import DNF
from repro.engine import Engine, EngineConfig, LogStore
from repro.workloads.suite import default_workloads

#: The cross-method request mix, in arrival order: attribution compiles,
#: everything after evaluates.
METHODS = ("exact", "shapley", "rank", "topk")


def _method_config(method: str, store=None) -> EngineConfig:
    return EngineConfig(
        method=method,
        epsilon=None if method in ("rank", "topk") else 0.1,
        k=3 if method == "topk" else None,
        store=store,
    )


def _workload_lineages(smoke: bool) -> List[DNF]:
    lineages = [
        instance.lineage
        for workload in default_workloads(include_hard=False)
        for instance in workload.instances
        # Shapley's size-indexed vectors are the heaviest evaluator;
        # keep the benchmark snappy on 1-CPU CI runners.
        if instance.lineage.num_variables() <= 14
    ]
    return lineages[:20] if smoke else lineages


def _run_method(engine: Engine, lineages: List[DNF]):
    started = time.monotonic()
    attributions = engine.attribute_lineages(lineages)
    return time.monotonic() - started, attributions


def _occurring_values(attribution) -> Dict[int, Fraction]:
    return dict(attribution.values)


def run_benchmark() -> str:
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    lineages = _workload_lineages(smoke)

    # ---- baseline: per-method recompilation (the seed behavior) ------ #
    baseline_seconds: Dict[str, float] = {}
    baseline_results: Dict[str, List] = {}
    baseline_compiles = 0
    for method in METHODS:
        engine = Engine(_method_config(method))
        baseline_seconds[method], baseline_results[method] = _run_method(
            engine, lineages)
        baseline_compiles += engine.stats.tree_compilations

    # ---- shared artifact tier: compile once, evaluate per method ----- #
    shared_seconds: Dict[str, float] = {}
    shared_results: Dict[str, List] = {}
    shared_engines: Dict[str, Engine] = {}
    with tempfile.TemporaryDirectory() as directory, \
            LogStore(directory) as store:
        cache = None
        for method in METHODS:
            engine = Engine(_method_config(method, store=store))
            if cache is None:
                cache = engine.cache
            engine.cache = cache
            shared_engines[method] = engine
            shared_seconds[method], shared_results[method] = _run_method(
                engine, lineages)

        # (a) every method after the first evaluates off the shared
        # artifact: zero fresh tree builds, all computations artifact hits.
        for method in METHODS[1:]:
            stats = shared_engines[method].stats
            assert stats.tree_compilations == 0, (
                f"{method} recompiled {stats.tree_compilations} trees "
                "despite the shared artifact tier"
            )
            assert stats.artifact_hits == stats.compilations > 0

        # (c) bit-identical Fractions against the cold per-method runs.
        exact_baseline = baseline_results["exact"]
        for method in METHODS:
            for shared, cold, exact in zip(shared_results[method],
                                           baseline_results[method],
                                           exact_baseline):
                if method in ("exact", "shapley"):
                    assert shared.values == cold.values
                    reference = cold.values
                else:
                    # Off a complete artifact the ranking methods return
                    # the exact Banzhaf values (occurring variables).
                    assert shared.method_used == "exact"
                    reference = {v: exact.values[v]
                                 for v in shared.values}
                for variable, value in _occurring_values(shared).items():
                    assert isinstance(value, Fraction)
                    assert value == reference[variable]

        shared_compiles = sum(e.stats.tree_compilations
                              for e in shared_engines.values())
        distinct = shared_engines["exact"].stats.compilations
        assert shared_compiles == distinct, (
            f"expected one compilation per distinct lineage ({distinct}), "
            f"got {shared_compiles}"
        )

    # ---- warm restart: resume persisted partial trees ---------------- #
    # Budget-starved certain rankings over cycle lineages (every variable
    # symmetric: separation needs deep expansion) leave partial frontiers
    # in the store; the warm process must resume, not restart.
    hard = [DNF([[i, (i + 1) % n] for i in range(n)])
            for n in (8, 9, 10)]
    exact_hard = [banzhaf_all_brute_force(function) for function in hard]
    with tempfile.TemporaryDirectory() as directory:
        with LogStore(directory) as store:
            starved = Engine(replace(_method_config("rank"),
                                     max_shannon_steps=30, store=store))
            starved.attribute_lineages(hard)
        starved_partials = starved.stats.partial_results
        assert starved_partials > 0, (
            "the starved pass must leave unconverged rankings behind"
        )

        with LogStore(directory) as store:
            warm = Engine(_method_config("rank", store=store))
            warm_started = time.monotonic()
            warm_results = warm.attribute_lineages(hard)
            warm_seconds = time.monotonic() - warm_started
        assert warm.stats.artifact_resumes > 0, (
            "the warm process must resume persisted partial trees"
        )
        assert warm.stats.tree_compilations == 0

    scratch = Engine(_method_config("rank"))
    scratch_started = time.monotonic()
    scratch_results = scratch.attribute_lineages(hard)
    scratch_seconds = time.monotonic() - scratch_started

    # (b) resuming beats restarting: strictly less refinement work.
    assert warm.stats.refinement_rounds < scratch.stats.refinement_rounds, (
        f"resumed refinement ({warm.stats.refinement_rounds} rounds) "
        f"should undercut from-scratch ({scratch.stats.refinement_rounds})"
    )
    # Soundness: both runs' certified intervals contain the exact values.
    for results in (warm_results, scratch_results):
        for attribution, exact in zip(results, exact_hard):
            for variable, (lower, upper) in attribution.bounds.items():
                assert lower <= exact[variable] <= upper

    baseline_total = sum(baseline_seconds.values())
    shared_total = sum(shared_seconds.values())
    assert shared_total < baseline_total, (
        f"shared-artifact workload ({shared_total:.3f}s) should beat "
        f"per-method recompilation ({baseline_total:.3f}s)"
    )

    speedup = baseline_total / shared_total
    emit_bench_json(
        "compile_reuse",
        workload="pr1 cross-method traffic "
                 f"({' -> '.join(METHODS)}), shared artifact tier vs "
                 "per-method recompilation",
        speedup=round(speedup, 3),
        ops_per_sec={
            "requests.instances_per_sec.shared": round(
                len(METHODS) * len(lineages) / shared_total, 1),
            "requests.instances_per_sec.recompile": round(
                len(METHODS) * len(lineages) / baseline_total, 1),
        },
        metrics={
            "lineages_per_method": len(lineages),
            "shared_total_ms": round(shared_total * 1000, 1),
            "baseline_total_ms": round(baseline_total * 1000, 1),
            "baseline_tree_compilations": baseline_compiles,
            "warm_resume_rounds": warm.stats.refinement_rounds,
            "scratch_rounds": scratch.stats.refinement_rounds,
        },
    )
    lines = [
        f"lineages per method:     {len(lineages)} "
        f"({shared_engines['exact'].stats.compilations} distinct canonical)",
        f"request mix:             {' -> '.join(METHODS)}",
        "",
        "per-method recompilation (seed behavior):",
    ]
    for method in METHODS:
        lines.append(f"  {method:<8} {baseline_seconds[method] * 1000:8.1f} ms")
    lines += [f"  total    {baseline_total * 1000:8.1f} ms  "
              f"({baseline_compiles} tree compilations)",
              "",
              "shared compiled-lineage artifact tier:"]
    for method in METHODS:
        stats = shared_engines[method].stats
        lines.append(
            f"  {method:<8} {shared_seconds[method] * 1000:8.1f} ms  "
            f"(trees built {stats.tree_compilations}, artifact hits "
            f"{stats.artifact_hits + stats.artifact_store_hits})")
    lines += [
        f"  total    {shared_total * 1000:8.1f} ms  ({speedup:.2f}x, "
        "one compilation per distinct lineage)",
        "",
        "warm-restart resume (certain ranking, step-starved cold pass):",
        f"  cold partials persisted: {starved_partials} "
        f"(rounds {starved.stats.refinement_rounds})",
        f"  warm resumed:            rounds "
        f"{warm.stats.refinement_rounds}, resumes "
        f"{warm.stats.artifact_resumes}, {warm_seconds * 1000:.1f} ms",
        f"  from scratch:            rounds "
        f"{scratch.stats.refinement_rounds}, "
        f"{scratch_seconds * 1000:.1f} ms",
        "",
        "exactness: every shared-artifact value bit-identical to the "
        "cold per-method computation (Fraction equality)",
    ]
    return "\n".join(lines)


def test_compile_reuse():
    report = run_benchmark()
    register_report("compile_reuse", report)


if __name__ == "__main__":
    print(run_benchmark())
