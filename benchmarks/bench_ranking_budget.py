"""Ranking under a wall-clock budget on the intractable ``hard_wide`` lineages.

The suite's ``hard_wide`` instances (52 variables each) are the only
suite lineages that defeat compilation inside the benchmark budget, so
they are the only place where the engine's ranking path has to stop
early and hand back IchiBan's best-so-far intervals
(``method_used="rank-partial"``) instead of a converged ranking.  This
benchmark runs that path once per instance under the budget
``T = REPRO_BENCH_TIMEOUT`` (default 1.5 s) and asserts that

* every occurring variable comes back with a sound interval
  (``lower <= upper``), converged or not, and
* every attempt ends within ``1.5 * T``: the deadline is honoured.

It reports, per instance, the method that ran, the refinement rounds and
the wall time, plus instances/sec over all attempts.

Runs standalone (``python benchmarks/bench_ranking_budget.py``) or under
pytest with the rest of the benchmark harness.  Emits
``BENCH_ranking_budget.json``.
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

#: How far past its budget one attempt may end.
OVERRUN_FACTOR = 1.5


def _hard_wide_rankings() -> Tuple[Dict[str, float], List[str]]:
    """Rank every ``hard_wide`` instance under the per-instance budget."""
    wide = [instance for instance in hard_instances(default_workloads())
            if "wide" in instance.tags]
    assert wide, "the suite has no hard_wide instances"
    limit = OVERRUN_FACTOR * HARD_WIDE_TIMEOUT_SECONDS
    lines: List[str] = []
    converged = 0
    slowest = total = 0.0
    for instance in wide:
        lineage = instance.lineage
        started = time.monotonic()
        result = compute_ranking(lineage, "rank", None, None,
                                 HARD_WIDE_TIMEOUT_SECONDS)
        elapsed = time.monotonic() - started
        outcome = result.outcome
        missing = set(lineage.variables) - set(outcome.bounds)
        assert not missing, f"no interval for variables {sorted(missing)}"
        assert all(lower <= upper
                   for lower, upper in outcome.bounds.values()), (
            "a ranking interval has lower > upper")
        assert elapsed <= limit, (
            f"a ranking attempt took {elapsed:.3f} s, past "
            f"{OVERRUN_FACTOR} x its {HARD_WIDE_TIMEOUT_SECONDS} s budget")
        converged += outcome.converged
        slowest = max(slowest, elapsed)
        total += elapsed
        lines.append(
            f"  {len(lineage.variables):>3}-var wide: {outcome.method_used}, "
            f"{len(outcome.bounds)} intervals, {result.rounds} rounds, "
            f"{elapsed:.3f} s")

    attempted = len(wide)
    ops: Dict[str, float] = {
        "hard_wide.rank.timeout_seconds": HARD_WIDE_TIMEOUT_SECONDS,
        "hard_wide.rank.attempted": attempted,
        "hard_wide.rank.converged": converged,
        "hard_wide.rank.slowest_seconds": round(slowest, 3),
    }
    if total > 0:
        ops["hard_wide.rank.instances_per_sec"] = round(attempted / total, 2)
    lines.append(
        f"  attempted {attempted} (timeout_seconds="
        f"{HARD_WIDE_TIMEOUT_SECONDS}): converged {converged}, slowest "
        f"{slowest:.3f} s (limit {limit:.3f} s)")
    return ops, lines


def run_benchmark() -> str:
    ops, hard_lines = _hard_wide_rankings()

    workload_label = ("hard_wide lineages: IchiBan ranking under one "
                      "per-instance wall-clock budget")
    emit_bench_json(
        "ranking_budget",
        workload=workload_label,
        ops_per_sec=ops,
        metrics={
            "hard_wide_timeout_seconds": HARD_WIDE_TIMEOUT_SECONDS,
            "overrun_factor": OVERRUN_FACTOR,
        },
    )

    lines = [
        f"workload:            {workload_label}",
        "hard_wide rankings (sound intervals, deadline honoured):",
        *hard_lines,
    ]
    return "\n".join(lines)


def test_ranking_budget_hard_wide():
    report = run_benchmark()
    register_report("ranking_budget_hard_wide", report)


if __name__ == "__main__":
    print(run_benchmark())
