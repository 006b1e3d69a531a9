"""Warm-start benchmark: persistent cache tier vs a cold process.

Simulates the deployment story of the store tier
(:mod:`repro.engine.store`): a **cold process** serves several epochs of
the repeat-traffic workload with a fresh engine backed by an empty
:class:`~repro.engine.logstore.LogStore` (epoch 0 computes everything and
persists it; later epochs hit memory), then a **warm process** -- a brand
new engine with a brand new ``LogStore`` handle over the *same
directory*, i.e. a restart -- serves the same first epoch straight from
disk.

Asserts the acceptance criteria of the store tier:

* the warm process's first epoch is served at a **>= 80 % hit rate**
  (store tier plus in-batch dedup -- no recomputation of anything the
  cold process already solved);
* the warm first epoch is **faster** than the cold first epoch
  (deserializing beats compiling);
* warm values are **bit-identical** to cold values: exact ``Fraction``
  equality, variable for variable, instance for instance.

Environment knobs: ``REPRO_BENCH_EPOCHS`` (cold epochs, default 3),
``REPRO_BENCH_ROUNDS`` (best-of timing rounds, default 2), and
``REPRO_BENCH_SMOKE=1`` for the CI smoke configuration (2 epochs, 1
round).  Runs standalone (``python benchmarks/bench_cache_warmstart.py``)
or under pytest with the benchmark harness (the report lands in
``benchmarks/results/cache_warmstart.txt``).
"""

from __future__ import annotations

import os
import tempfile
from fractions import Fraction
from typing import List

from conftest import emit_bench_json, register_report

from repro.engine.logstore import LogStore
from repro.experiments.runner import ExperimentConfig, run_workload_epochs
from repro.workloads.suite import Workload, default_workloads


def _combined_workload() -> Workload:
    instances = tuple(
        instance
        for workload in default_workloads(include_hard=False)
        for instance in workload.instances
    )
    return Workload(name="combined", instances=instances)


def _assert_identical(cold_values: List, warm_values: List) -> None:
    assert len(cold_values) == len(warm_values)
    for cold, warm in zip(cold_values, warm_values):
        assert cold.values == warm.values, (
            "warm-started values diverged from cold computation"
        )
        for value in warm.values.values():
            assert isinstance(value, Fraction), (
                f"warm value deserialized as {type(value).__name__}, "
                "not Fraction"
            )


def run_benchmark(epochs: int = None, rounds: int = None) -> str:
    if os.environ.get("REPRO_BENCH_SMOKE"):
        epochs = epochs or 2
        rounds = rounds or 1
    epochs = epochs or int(os.environ.get("REPRO_BENCH_EPOCHS", "3"))
    rounds = rounds or int(os.environ.get("REPRO_BENCH_ROUNDS", "2"))

    workload = _combined_workload()
    config = ExperimentConfig()

    cold_first = warm_first = float("inf")
    cold_reports = warm_reports = None
    store_stats = None
    for _ in range(max(1, rounds)):
        with tempfile.TemporaryDirectory() as directory:
            # Cold process: empty store, everything is computed once and
            # persisted as a side effect of serving.
            with LogStore(directory) as cold_store:
                reports, cold_values = run_workload_epochs(
                    workload, epochs=epochs, config=config, store=cold_store)
            # Warm process: new engine, new store handle, same directory
            # -- the restart scenario.  Its memory tier starts empty; the
            # first epoch is served from disk.
            with LogStore(directory) as warm_store:
                warm, warm_values = run_workload_epochs(
                    workload, epochs=1, config=config, store=warm_store)
                warm_store_stats = warm_store.stats()
            _assert_identical(cold_values, warm_values)
            if reports[0].seconds < cold_first:
                cold_first = reports[0].seconds
                cold_reports = reports
            if warm[0].seconds < warm_first:
                warm_first = warm[0].seconds
                warm_reports = warm
                store_stats = warm_store_stats

    warm_stats = warm_reports[0].stats
    hit_rate = warm_stats["hit_rate"]
    assert hit_rate >= 0.8, (
        f"warm first-epoch hit rate {hit_rate:.0%} below the 80% target"
    )
    assert warm_stats["store_hits"] > 0, (
        "expected the warm process to serve from the store tier"
    )
    assert warm_first < cold_first, (
        f"warm first epoch ({warm_first:.3f}s) should beat the cold first "
        f"epoch ({cold_first:.3f}s)"
    )

    speedup = cold_first / warm_first
    cold_hit_rate = cold_reports[0].stats["hit_rate"]
    emit_bench_json(
        "cache_warmstart",
        workload="pr1-attribution repeat traffic, warm-started process "
                 "vs cold first epoch",
        speedup=round(speedup, 3),
        ops_per_sec={
            "attribution.instances_per_sec.warm": round(
                len(workload.instances) / warm_first, 1),
            "attribution.instances_per_sec.cold": round(
                len(workload.instances) / cold_first, 1),
        },
        metrics={
            "instances_per_epoch": len(workload.instances),
            "cold_first_ms": round(cold_first * 1000, 1),
            "warm_first_ms": round(warm_first * 1000, 1),
            "warm_hit_rate": hit_rate,
            "store_entries": store_stats["entries"],
        },
    )
    lines = [
        f"instances per epoch:   {len(workload.instances)}",
        f"cold epochs:           {epochs} (rounds: {max(1, rounds)})",
        f"cold first epoch:      {cold_first * 1000:8.1f} ms  "
        f"(hit rate {cold_hit_rate:.0%})",
    ]
    for report in cold_reports[1:]:
        lines.append(
            f"cold epoch {report.epoch}:          "
            f"{report.seconds * 1000:8.1f} ms  "
            f"(hit rate {report.stats['hit_rate']:.0%})"
        )
    lines += [
        f"warm first epoch:      {warm_first * 1000:8.1f} ms  "
        f"({speedup:.2f}x vs cold first epoch)",
        f"warm tier hit rates:   {warm_stats['tier_hit_rates']}",
        f"warm first-epoch hits: memory {warm_stats['cache_hits']}, "
        f"store {warm_stats['store_hits']}, "
        f"computed {warm_stats['cache_misses']}",
        f"store:                 {store_stats['entries']} entries, "
        f"{store_stats['disk_bytes']} bytes of log",
        f"exactness:             warm values bit-identical to cold "
        f"(Fraction equality over {len(workload.instances)} instances)",
    ]
    return "\n".join(lines)


def test_cache_warmstart():
    report = run_benchmark()
    register_report("cache_warmstart", report)


if __name__ == "__main__":
    print(run_benchmark())
