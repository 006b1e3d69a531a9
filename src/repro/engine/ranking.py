"""Engine-native IchiBan: ranking and top-k in canonical variable space.

The engine's ``rank`` and ``topk`` methods run the paper's IchiBan
algorithm (Section 4.1) on *canonical* lineages, so isomorphic answers --
the bulk of ranking-style repeat traffic -- share a single anytime run, and
the resulting per-variable intervals are memoized in the
:class:`~repro.engine.cache.LineageCache` exactly like exact/approximate
attributions (keyed additionally by epsilon and, for top-k, by k).
Converged ranking entries also flow through the persistent store tier
(:mod:`repro.engine.store`) when one is configured: because the interval
maps are canonical-space and exact (``Fraction``/int endpoints), a
warm-started process serves repeat ranking traffic from disk with
bit-identical intervals -- only unconverged best-so-far results are
excluded from both tiers.

Compilation state flows through the **compiled-lineage artifact**
(:class:`~repro.engine.artifact.CompiledLineage`), mirroring the engine's
compile-once / evaluate-per-method split:

* a **complete** artifact -- compiled by an exact attribution, a Shapley
  run, or a ranking run that happened to finish its tree, in this process
  or (via the store tier) a previous one -- yields an *exact* ranking via
  one ExaBan pass: no anytime refinement at all, any epsilon, any k;
* a **partial** artifact is *resumed*: the anytime run restarts bound
  refinement from the persisted frontier instead of from the undecomposed
  lineage, so work paid by an earlier method, epsilon, k, or process is
  never redone.  The artifact's tree itself is never mutated -- resuming
  clones it (see :meth:`CompiledLineage.resume_compiler`);
* every computation hands its compilation state back: budget exhaustion
  degrades to an uncertified (``converged=False``) best-so-far result the
  engine reports but never caches as a *result* -- yet the partial tree
  it built **is** returned as an artifact, so the next attempt resumes
  rather than restarts.

Cached values are interval midpoints; the certified interval itself lives
in ``bounds``.  Rankings should be read through
:meth:`repro.engine.engine.Engine.rank` (or
:func:`repro.core.ichiban.ranked_from_intervals`), which orders by the
interval evidence -- for top-k, a certainly-out variable can keep a wide
interval with a large midpoint, so sorting the midpoints alone may
mis-rank it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Dict, Optional

from repro.boolean.dnf import DNF
from repro.core.exaban import exaban_all
from repro.core.ichiban import (
    IchiBanTimeout,
    _IchiBanRun,
    _rank_controller,
    _topk_controller,
)
from repro.core.intervals import Interval
from repro.dtree.heuristics import select_most_frequent
from repro.engine.artifact import CompiledLineage
# Not called here: perfbench/tracing.py wraps this module's binding.
from repro.engine.artifact import complete_compilation  # noqa: F401
from repro.engine.cache import CachedAttribution


@dataclass(frozen=True)
class RankingComputation:
    """Outcome of ranking one canonical lineage.

    ``rounds`` counts the IchiBan refinement rounds actually run (0 on the
    complete-artifact fast path); ``artifact`` carries the compilation
    state after the run -- complete when the tree was finished (turning
    every later evaluation of the same canonical lineage, any method or
    epsilon or k, into an exact one), partial-and-resumable otherwise.
    """

    outcome: CachedAttribution
    rounds: int = 0
    artifact: Optional[CompiledLineage] = None


def _from_intervals(method: str, intervals: Dict[int, Interval],
                    converged: bool) -> CachedAttribution:
    return CachedAttribution(
        method_used=method if converged else f"{method}-partial",
        values={v: interval.midpoint() for v, interval in intervals.items()},
        bounds={v: (interval.lower, interval.upper)
                for v, interval in intervals.items()},
        converged=converged,
    )


def exact_attribution(artifact: CompiledLineage,
                      occurring: Optional[AbstractSet[int]] = None,
                      stats=None) -> CachedAttribution:
    """The exact result read off a complete artifact (one ExaBan pass).

    ``occurring`` restricts it to a lineage's occurring variables, the
    scope of AdaBan and IchiBan (a silent domain variable has Banzhaf
    value 0 and never ranks); ``None`` keeps every variable of the tree,
    as the exact and ``auto`` methods report them.
    """
    values = exaban_all(artifact.root, stats=stats)
    if occurring is not None:
        values = {v: value for v, value in values.items() if v in occurring}
    return CachedAttribution(
        method_used="exact",
        values={v: Fraction(value) for v, value in values.items()},
        bounds={v: (value, value) for v, value in values.items()},
    )


def compute_ranking(function: DNF, method: str, k: Optional[int],
                    epsilon: Optional[float],
                    timeout_seconds: Optional[float],
                    artifact: Optional[CompiledLineage] = None,
                    max_steps: Optional[int] = None,
                    stats=None) -> RankingComputation:
    """Rank one canonical lineage (``method`` is ``"rank"`` or ``"topk"``).

    ``epsilon=None`` demands certainty (pairwise separation for ``rank``,
    a decided top-k set for ``topk``); otherwise the run may also stop at
    the certified relative error.  ``max_steps`` bounds the anytime run's
    bound evaluations (IchiBan's budget unit); either budget exhausting
    produces the degraded best-so-far result -- whose partial tree still
    comes back as a resumable artifact.  A complete ``artifact`` bypasses
    the anytime run entirely; a partial one seeds it.

    ``stats`` is an optional :class:`~repro.engine.stats.EngineStats`
    receiving payload hits and per-pass timings.
    """
    if method not in ("rank", "topk"):
        raise ValueError(
            f"compute_ranking handles method 'rank' or 'topk', not "
            f"{method!r}"
        )
    if method == "topk" and (k is None or k < 1):
        raise ValueError("method 'topk' needs k >= 1")
    if artifact is not None and artifact.complete:
        return RankingComputation(
            outcome=exact_attribution(artifact, function.variables, stats),
            artifact=artifact)
    if method == "topk":
        controller = _topk_controller(k, epsilon)
    else:
        controller = _rank_controller(epsilon)
    compiler = (artifact.resume_compiler()
                if artifact is not None else None)
    run = _IchiBanRun(function, select_most_frequent, compiler=compiler)
    try:
        intervals = run.run(controller, max_steps, timeout_seconds)
    except IchiBanTimeout as timeout:
        return RankingComputation(
            outcome=_from_intervals(method, timeout.intervals,
                                    converged=False),
            rounds=timeout.rounds,
            artifact=CompiledLineage.from_compiler(run.state.compiler),
        )
    return RankingComputation(
        outcome=_from_intervals(method, intervals, converged=True),
        rounds=run.rounds,
        artifact=CompiledLineage.from_compiler(run.state.compiler),
    )
