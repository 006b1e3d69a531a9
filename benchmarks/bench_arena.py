"""Arena benchmark: the float ranking tier on intractable ``hard_wide`` lineages.

The ``hard_wide`` instances defeat exact compilation.  The exact ranking
tier runs its anytime refinement under an explicit ``timeout_seconds``
budget and times out unconverged, while the float tier
(``numeric="float"``) degrades to the order-only surrogate ranking off the
partial tree's arena and returns a full ranking over every occurring
variable inside the same budget.  Reports attempted/completed per tier
plus instances/sec, and asserts that the float tier completes at least one
instance the exact tier times out on, inside the summed budget.

Environment knob: ``REPRO_BENCH_TIMEOUT`` (per-instance hard_wide budget
in seconds, default 1.5).

Runs standalone (``python benchmarks/bench_arena.py``) or under pytest
with the rest of the benchmark harness.  Emits ``BENCH_arena.json``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

from conftest import emit_bench_json, register_report

from repro.engine.ranking import compute_ranking
from repro.workloads.suite import default_workloads, hard_instances

#: Wall-clock budget for each (intractable) hard_wide ranking attempt.
HARD_WIDE_TIMEOUT_SECONDS = float(os.environ.get("REPRO_BENCH_TIMEOUT", "1.5"))


def _hard_wide_tiers() -> Tuple[Dict[str, float], List[str]]:
    """Exact vs float ranking tier on the ``hard_wide`` instances.

    Each attempt gets the same explicit per-instance budget
    (``timeout_seconds=HARD_WIDE_TIMEOUT_SECONDS``), so CI can never hang
    on these intractable instances.  ``completed`` means the tier handed
    back a usable ranking: converged for the exact tier, a full ranking
    over every occurring variable for the float tier (whose surrogate
    path is built to always finish inside the compile budget).
    """
    wide = [instance for instance in hard_instances(default_workloads())
            if "wide" in instance.tags]
    ops: Dict[str, float] = {}
    lines: List[str] = []

    exact_completed = float_completed = 0
    float_beats_exact = 0
    exact_seconds = float_seconds = 0.0
    for instance in wide:
        lineage = instance.lineage
        started = time.monotonic()
        exact = compute_ranking(lineage, "rank", None, None,
                                HARD_WIDE_TIMEOUT_SECONDS)
        exact_seconds += time.monotonic() - started
        exact_ok = exact.outcome.converged

        started = time.monotonic()
        floated = compute_ranking(lineage, "rank", None, None,
                                  HARD_WIDE_TIMEOUT_SECONDS,
                                  numeric="float")
        float_seconds += time.monotonic() - started
        float_ok = (set(floated.outcome.values) == set(lineage.variables)
                    and len(floated.outcome.values) > 0)

        exact_completed += exact_ok
        float_completed += float_ok
        float_beats_exact += float_ok and not exact_ok
        lines.append(
            f"  {len(lineage.variables):>3}-var wide: exact "
            f"{'converged' if exact_ok else 'timed out'} "
            f"({exact.outcome.method_used}), float "
            f"{'ranked all' if float_ok else 'incomplete'} "
            f"({floated.outcome.method_used})"
        )

    attempted = len(wide)
    ops["hard_wide.rank.timeout_seconds"] = HARD_WIDE_TIMEOUT_SECONDS
    ops["hard_wide.rank.attempted"] = attempted
    ops["hard_wide.rank.completed.exact"] = exact_completed
    ops["hard_wide.rank.completed.float"] = float_completed
    if exact_seconds > 0:
        ops["hard_wide.rank.instances_per_sec.exact"] = round(
            attempted / exact_seconds, 2)
    if float_seconds > 0:
        ops["hard_wide.rank.instances_per_sec.float"] = round(
            attempted / float_seconds, 2)
    lines.append(
        f"  attempted {attempted} per tier "
        f"(timeout_seconds={HARD_WIDE_TIMEOUT_SECONDS}): exact completed "
        f"{exact_completed}, float completed {float_completed}"
    )

    assert float_beats_exact >= 1, (
        "expected the float tier to complete at least one hard_wide "
        "ranking instance the exact tier times out on"
    )
    budget = attempted * 2 * (HARD_WIDE_TIMEOUT_SECONDS + 2.0)
    assert exact_seconds + float_seconds <= budget, (
        "budgeted hard_wide ranking attempts overran their timeout budget"
    )
    return ops, lines


def run_benchmark() -> str:
    ops, hard_lines = _hard_wide_tiers()

    workload_label = ("hard_wide lineages: exact anytime ranking vs float "
                      "surrogate ranking under one per-instance budget")
    emit_bench_json(
        "arena",
        workload=workload_label,
        ops_per_sec=ops,
        metrics={
            "hard_wide_timeout_seconds": HARD_WIDE_TIMEOUT_SECONDS,
        },
    )

    lines = [
        f"workload:            {workload_label}",
        "hard_wide ranking tiers (exact anytime vs float surrogate):",
        *hard_lines,
    ]
    return "\n".join(lines)


def test_arena_hard_wide_float_tier():
    report = run_benchmark()
    register_report("arena_hard_wide", report)


if __name__ == "__main__":
    print(run_benchmark())
