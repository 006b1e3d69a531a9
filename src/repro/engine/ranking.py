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

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from repro.boolean.dnf import DNF
from repro.core.exaban import exaban_all
from repro.core.ichiban import (
    IchiBanTimeout,
    _IchiBanRun,
    _rank_controller,
    _topk_controller,
    float_straddlers,
)
from repro.core.intervals import Interval
from repro.dtree.arena import (
    arena_of,
    banzhaf_pass,
    float_banzhaf_pass,
    float_surrogate_pass,
    pow2_int,
)
from repro.dtree.compile import CompilationBudget, CompilationLimitReached
from repro.dtree.heuristics import Heuristic, select_most_frequent
from repro.dtree.incremental import IncrementalCompiler
from repro.engine.artifact import CompiledLineage, complete_compilation
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


def _exact_ranking(function: DNF, artifact: CompiledLineage,
                   stats=None) -> RankingComputation:
    """Read an exact ranking off a complete artifact (one ExaBan pass).

    Restricted to the occurring variables, matching IchiBan's scope
    (silent domain variables have Banzhaf value 0 and never rank).
    """
    occurring = function.variables
    values = {v: value
              for v, value in exaban_all(artifact.root, stats=stats).items()
              if v in occurring}
    return RankingComputation(outcome=CachedAttribution(
        method_used="exact",
        values={v: Fraction(value) for v, value in values.items()},
        bounds={v: (value, value) for v, value in values.items()},
    ), artifact=artifact)


#: Widest enclosure half-width (in bits) the float tier will materialize
#: as exact integer bounds.  ``2**±4096`` around any score in this
#: codebase is already vacuously wide; anything wider certifies nothing
#: and only costs memory (``pow2_int`` allocates ``width`` bits).
MAX_ENCLOSURE_BITS = 4096.0

_LN2 = math.log(2.0)


def uncertified_enclosure(log: float, err: float, margin: int) -> bool:
    """True when ``(log, err)`` has no materializable integer enclosure.

    Exact zeros (``log == -inf``) are exactly representable and always
    certified.  Otherwise an unbounded relative error, or one whose
    widened log2 half-width exceeds :data:`MAX_ENCLOSURE_BITS`, means the
    enclosure is vacuous -- the caller must fall back to the exact pass
    instead of asking :func:`~repro.dtree.arena.pow2_int` for it.
    """
    if log == -math.inf:
        return False
    return (not math.isfinite(err)
            or margin * err / _LN2 > MAX_ENCLOSURE_BITS)


def _float_ranking(function: DNF, artifact: CompiledLineage, method: str,
                   float_ulp_margin: int, stats=None) -> RankingComputation:
    """Float-tier ranking off a complete artifact (log2 arena pass).

    Scores come from the fused float Banzhaf pass
    (:func:`~repro.dtree.arena.float_banzhaf_pass`) with per-variable
    relative-error bounds; variables whose widened score intervals
    overlap another's (``float_straddlers``) fall back to the exact
    arena pass and get point bounds, the rest get certified integer
    enclosures ``[floor(2^(log-w)), ceil(2^(log+w))]`` — so the reported
    bounds always contain the exact Banzhaf value and the order read off
    them matches the exact order, while the common case never touches
    bignum arithmetic.

    A score whose enclosure cannot be *materialized* -- unbounded error,
    or a half-width beyond :data:`MAX_ENCLOSURE_BITS` (deep trees
    legitimately accumulate relative errors up to ~1e307) -- is treated
    as a straddler even when no other interval overlaps it (e.g. a
    single-variable lineage): ``pow2_int`` on such a width would build
    an integer with ``err / ln 2`` bits.
    """
    arena = artifact.arena()
    occurring = function.variables
    scores = {v: s
              for v, s in float_banzhaf_pass(arena, stats=stats).items()
              if v in occurring}
    straddlers = float_straddlers(scores, float_ulp_margin)
    straddlers.update(v for v, (log, err) in scores.items()
                      if uncertified_enclosure(log, err, float_ulp_margin))
    exact = banzhaf_pass(arena, stats=stats) if straddlers else {}
    values: Dict[int, Fraction] = {}
    bounds: Dict[int, tuple] = {}
    for variable, (log, err) in scores.items():
        if variable in straddlers:
            point = exact[variable]
            values[variable] = Fraction(point)
            bounds[variable] = (point, point)
        else:
            lower = pow2_int(log, float_ulp_margin * err)
            upper = pow2_int(log, float_ulp_margin * err, ceil=True)
            values[variable] = Fraction(lower + upper, 2)
            bounds[variable] = (lower, upper)
    return RankingComputation(outcome=CachedAttribution(
        method_used=f"{method}-float",
        values=values,
        bounds=bounds,
    ), artifact=artifact)


def _surrogate_ranking(function: DNF, artifact: CompiledLineage,
                       method: str, stats=None) -> RankingComputation:
    """Order-only surrogate ranking off a partial tree's float pass.

    For instances whose compilation exhausts its budget even in float
    mode, :func:`~repro.dtree.arena.arena_float_surrogate` estimates
    every variable's Banzhaf score from the partial tree (undecomposed
    leaves contribute closed-form independence estimates).  The result
    carries **order information only**: bounds are the honest
    ``(0, 2 * estimate)`` — their midpoints reproduce the surrogate
    order for :func:`~repro.core.ichiban.ranked_from_bounds`, while the
    interval width states that no value is certified.  Never converged,
    never cached; the partial artifact comes back resumable.
    """
    estimates = {v: e
                 for v, e in float_surrogate_pass(arena_of(artifact.root),
                                                  stats=stats).items()
                 if v in function.variables}
    values: Dict[int, Fraction] = {}
    bounds: Dict[int, tuple] = {}
    for variable, log in estimates.items():
        upper = 2 * pow2_int(log, ceil=True)
        values[variable] = Fraction(upper, 2)
        bounds[variable] = (0, upper)
    return RankingComputation(outcome=CachedAttribution(
        method_used=f"{method}-float-surrogate",
        values=values,
        bounds=bounds,
        converged=False,
    ), artifact=artifact)


def _timed_compile(stats):
    """``stats.timed_pass("compile")`` when stats are carried, else no-op."""
    if stats is None:
        return nullcontext()
    return stats.timed_pass("compile")


def _float_tier(function: DNF, method: str,
                timeout_seconds: Optional[float],
                artifact: Optional[CompiledLineage],
                max_steps: Optional[int],
                heuristic: Heuristic,
                float_ulp_margin: int, stats=None) -> RankingComputation:
    """Float-mode dispatch: exact-free ranking with a compile budget.

    A complete artifact ranks by float order immediately.  Otherwise one
    budgeted compile attempt is made (resuming a partial artifact's
    frontier); on success the float ranking runs over the finished tree,
    on budget exhaustion the partial tree yields a surrogate ranking —
    the float tier never enters the per-variable IchiBan refinement
    loop, which is what times out on wide instances.
    """
    if artifact is not None and artifact.complete:
        return _float_ranking(function, artifact, method, float_ulp_margin,
                              stats=stats)
    compiler = (artifact.resume_compiler(heuristic)
                if artifact is not None
                else IncrementalCompiler(function, heuristic))
    budget = CompilationBudget(max_shannon_steps=max_steps,
                               timeout_seconds=timeout_seconds)
    try:
        with _timed_compile(stats):
            complete_compilation(compiler, budget)
    except CompilationLimitReached:
        return _surrogate_ranking(
            function, CompiledLineage.from_compiler(compiler), method,
            stats=stats)
    return _float_ranking(function, CompiledLineage.from_compiler(compiler),
                          method, float_ulp_margin, stats=stats)


def compute_ranking(function: DNF, method: str, k: Optional[int],
                    epsilon: Optional[float],
                    timeout_seconds: Optional[float],
                    artifact: Optional[CompiledLineage] = None,
                    max_steps: Optional[int] = None,
                    heuristic: Heuristic = select_most_frequent,
                    numeric: str = "exact",
                    float_ulp_margin: int = 8,
                    stats=None) -> RankingComputation:
    """Rank one canonical lineage (``method`` is ``"rank"`` or ``"topk"``).

    ``epsilon=None`` demands certainty (pairwise separation for ``rank``,
    a decided top-k set for ``topk``); otherwise the run may also stop at
    the certified relative error.  ``max_steps`` bounds the anytime run's
    bound evaluations (IchiBan's budget unit); either budget exhausting
    produces the degraded best-so-far result -- whose partial tree still
    comes back as a resumable artifact.  A complete ``artifact`` bypasses
    the anytime run entirely; a partial one seeds it.

    ``numeric="float"`` selects the log-space float tier: scores are
    log2-domain floats off the arena pass, top-k membership is decided
    by float order, and only boundary-straddling variables (float
    intervals overlapping within ``float_ulp_margin`` error units) fall
    back to exact arena evaluation.  Instead of anytime interval
    refinement, incomplete lineages get **one budgeted compile attempt**
    (``max_steps`` Shannon expansions / ``timeout_seconds``); on
    exhaustion the partial tree produces an order-only surrogate ranking
    (``method_used`` suffix ``-float-surrogate``, never converged).

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
    if numeric not in ("exact", "float"):
        raise ValueError(f"numeric must be 'exact' or 'float', "
                         f"not {numeric!r}")
    if numeric == "float":
        return _float_tier(function, method, timeout_seconds, artifact,
                           max_steps, heuristic, float_ulp_margin,
                           stats=stats)
    if artifact is not None and artifact.complete:
        return _exact_ranking(function, artifact, stats=stats)
    if method == "topk":
        controller = _topk_controller(k, epsilon)
    else:
        controller = _rank_controller(epsilon)
    compiler = (artifact.resume_compiler(heuristic)
                if artifact is not None else None)
    run = _IchiBanRun(function, heuristic, compiler=compiler)
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
