"""Engine benchmark: batched, cached attribution vs the serial seed path.

Attributes a repeat-traffic stream over the multi-answer workloads
(Academic, IMDB, TPC-H stand-ins; the same query log arriving for several
epochs, as a serving deployment sees it) two ways:

* **seed-serial** -- the pre-engine execution path: compile a d-tree and run
  ExaBan per instance, from scratch, one instance at a time;
* **engine-serial** -- the batched engine with lineage canonicalization and
  the result cache.

Asserts the engine produces identical attributions to the seed path, that
the lineage cache actually hits (isomorphic answers are common in workload
query logs), and that the cached engine beats the seed path on wall-clock.

Runs standalone (``python benchmarks/bench_engine_batch.py``) or under
pytest with the rest of the benchmark harness.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, List, Tuple

from conftest import emit_bench_json, register_report

from repro.core.exaban import exaban_all
from repro.dtree.compile import compile_dnf
from repro.engine import Engine, EngineConfig
from repro.workloads.suite import default_workloads


def _seed_serial(lineages) -> Tuple[List[Dict[int, Fraction]], float]:
    started = time.monotonic()
    values = []
    for lineage in lineages:
        tree = compile_dnf(lineage)
        values.append({v: Fraction(x) for v, x in exaban_all(tree).items()})
    return values, time.monotonic() - started


def _engine_run(lineages
                ) -> Tuple[List[Dict[int, Fraction]], float, Engine]:
    engine = Engine(EngineConfig(method="exact"))
    started = time.monotonic()
    attributions = engine.attribute_lineages(lineages)
    elapsed = time.monotonic() - started
    return [a.values for a in attributions], elapsed, engine


def run_benchmark(rounds: int = 3, epochs: int = 3) -> str:
    workloads = default_workloads(include_hard=False)
    per_epoch = [instance.lineage
                 for workload in workloads
                 for instance in workload.instances]
    # Repeat traffic: the same query log arriving several times, the
    # serving scenario the engine exists for.  The seed path recomputes
    # every epoch; the engine compiles the distinct lineage shapes once.
    lineages = per_epoch * max(1, epochs)

    # Best-of-N timing so one scheduling hiccup on a shared CI runner does
    # not flip the wall-clock assertion; correctness is asserted every round.
    seed_seconds = serial_seconds = float("inf")
    stats = None
    for _ in range(max(1, rounds)):
        seed_values, seed_elapsed = _seed_serial(lineages)
        serial_values, serial_elapsed, serial_engine = _engine_run(lineages)
        assert serial_values == seed_values, "engine-serial diverged from seed path"
        seed_seconds = min(seed_seconds, seed_elapsed)
        serial_seconds = min(serial_seconds, serial_elapsed)
        stats = serial_engine.stats.as_dict()

    assert stats["cache_hits"] > 0, "expected isomorphic lineages to hit the cache"
    assert serial_seconds < seed_seconds, (
        f"cached engine ({serial_seconds:.3f}s) should beat the serial seed "
        f"path ({seed_seconds:.3f}s)"
    )

    speedup = seed_seconds / serial_seconds
    emit_bench_json(
        "engine_batch",
        workload="pr1-attribution: academic+imdb+tpch, "
                 f"{max(1, epochs)}-epoch repeat traffic",
        speedup=round(speedup, 3),
        ops_per_sec={
            "attribution.instances_per_sec.engine": round(
                len(lineages) / serial_seconds, 1),
            "attribution.instances_per_sec.seed": round(
                len(lineages) / seed_seconds, 1),
        },
        metrics={
            "instances": len(lineages),
            "engine_serial_ms": round(serial_seconds * 1000, 1),
            "seed_serial_ms": round(seed_seconds * 1000, 1),
            "cache_hit_rate": stats["hit_rate"],
        },
    )
    lines = [
        f"instances:            {len(lineages)} "
        f"({len(per_epoch)} distinct x {max(1, epochs)} epochs)",
        f"seed-serial:          {seed_seconds * 1000:8.1f} ms",
        f"engine-serial:        {serial_seconds * 1000:8.1f} ms  "
        f"({speedup:.2f}x vs seed)",
        f"cache hits:           {stats['cache_hits']} / {len(lineages)} "
        f"(hit rate {stats['hit_rate']:.0%})",
        f"compilations:         {stats['compilations']}",
        f"stage seconds:        {stats['stage_seconds']}",
    ]
    return "\n".join(lines)


def test_engine_batch_speedup():
    report = run_benchmark()
    register_report("engine_batch_speedup", report)


if __name__ == "__main__":
    print(run_benchmark())
