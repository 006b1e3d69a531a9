"""IchiBan: Banzhaf-based ranking and top-k of facts (Section 4.1).

IchiBan is a natural generalization of AdaBan: it maintains approximation
intervals for the Banzhaf values of *all* variables of the lineage and keeps
refining them (by expanding the shared partial d-tree) until the intervals
are informative enough for the task at hand:

* **top-k with certainty** -- a variable is discarded once its upper bound is
  below the lower bounds of at least ``k`` other variables; the run stops
  when only ``k`` candidates remain and their intervals are separated from
  (or equal to) the rest;
* **approximate top-k / ranking with error ``epsilon``** -- the run may
  also stop at a certified relative error: top-k once every *still
  undecided* interval certifies ``epsilon`` (decided variables need no
  tight interval to be reported correctly), full ranking once *every*
  interval does (the ranking reports an estimate per variable, so each
  one carries the guarantee); variables are then ordered by interval
  midpoints.

Refinement is *task-aware*: each round only re-evaluates bounds for the
variables whose intervals still matter for the answer -- for top-k, the
variables straddling the k-th boundary (neither certainly in nor certainly
out); for ranking, the variables still overlapping a competitor (plus, with
an ``epsilon``, those not yet certifying it).  Decided variables keep their
last certified interval, which remains sound because refinement only ever
tightens intervals.

Between rounds the tree grows by one batch sized by the round's evaluation
work (AdaBan's schedule); a batch that completes it ends the run with exact
point intervals.  ``max_steps`` counts bound evaluations (one per variable
refined per round), as in AdaBan, and is checked between rounds, so the final
round may overshoot it by at most one evaluation per tracked variable.  After
the mandatory first round the time budget is checked before every expansion
step and node bound.  Exhaustion raises :class:`IchiBanTimeout`, which carries
the best-so-far intervals so callers can degrade instead of losing the work.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.boolean.dnf import DNF
from repro.core.adaban import ApproximationTimeout, _AnytimeState, _deadline
from repro.core.bounds import DeadlineExpired
from repro.core.exaban import exaban_all
from repro.core.intervals import Interval
from repro.dtree.heuristics import Heuristic, select_most_frequent


class IchiBanTimeout(ApproximationTimeout):
    """IchiBan budget exhaustion that preserves the work already done.

    Attributes
    ----------
    intervals:
        Best-so-far interval per tracked variable (always sound: every
        interval contains the exact Banzhaf value).
    steps:
        Bound evaluations performed before giving up.
    rounds:
        Refinement rounds performed before giving up.
    """

    def __init__(self, message: str, intervals: Dict[int, Interval],
                 steps: int = 0, rounds: int = 0) -> None:
        super().__init__(message)
        self.intervals = dict(intervals)
        self.steps = steps
        self.rounds = rounds


class RankedVariable(NamedTuple):
    """One entry of an IchiBan ranking."""

    variable: int
    interval: Interval
    estimate: Fraction

    @property
    def lower(self) -> int:
        """Lower bound of the Banzhaf interval."""
        return self.interval.lower

    @property
    def upper(self) -> int:
        """Upper bound of the Banzhaf interval."""
        return self.interval.upper


#: Top-k decidedness classes (order matters: it is the ranking sort key).
_IN, _UNDECIDED, _OUT = 0, 1, 2


def _topk_classify(intervals: Dict[int, Interval], k: int) -> Dict[int, int]:
    """Classify every variable as certainly in / undecided / certainly out.

    A variable is *certainly in* the top-k if at most ``k - 1`` other
    variables can possibly exceed it; it is *certainly out* if at least
    ``k`` other variables certainly exceed it.
    """
    items = list(intervals.items())
    classes: Dict[int, int] = {}
    for variable, interval in items:
        better_certain = sum(
            1 for other, other_interval in items
            if other != variable and other_interval.lower > interval.upper
        )
        if better_certain >= k:
            classes[variable] = _OUT
            continue
        worse_possible = sum(
            1 for other, other_interval in items
            if other != variable and other_interval.upper > interval.lower
        )
        classes[variable] = _IN if worse_possible < k else _UNDECIDED
    return classes


def _topk_undecided(intervals: Dict[int, Interval], k: int) -> List[int]:
    """The variables whose intervals still straddle the k-th boundary."""
    return [variable
            for variable, cls in _topk_classify(intervals, k).items()
            if cls == _UNDECIDED]


def _ties_decide(intervals: Dict[int, Interval],
                 undecided: List[int]) -> bool:
    """``True`` iff every undecided variable is an immaterial point tie.

    If the undecided variables all have identical point intervals the
    choice among them is immaterial, so the top-k counts as decided.
    """
    for variable in undecided:
        interval = intervals[variable]
        if not interval.is_point():
            return False
        tied = [
            other_interval for other, other_interval in intervals.items()
            if other != variable and other_interval.overlaps(interval)
        ]
        if not all(t.is_point() and t.lower == interval.lower for t in tied):
            return False
    return True


def ranked_groups(intervals: Dict[int, Interval], k: Optional[int] = None
                  ) -> List[Tuple[Fraction, List[Tuple[int, Interval]]]]:
    """The ranking as ``(estimate, [(variable, interval), ...])`` groups.

    Groups are in rank order (see :func:`ranked_from_intervals`), their
    members unordered: the grouping ignores variable ids, so it serves
    every renaming of a lineage.  :func:`ranked_from_groups` breaks ties.
    """
    classes = _topk_classify(intervals, k) if k is not None else {}
    groups: Dict[Tuple[int, Fraction], List[Tuple[int, Interval]]] = {}
    for variable, interval in intervals.items():
        groups.setdefault((classes.get(variable, _IN), interval.midpoint()),
                          []).append((variable, interval))
    ordered = sorted(groups.items(), key=lambda item: (item[0][0], -item[0][1]))
    return [(estimate, members) for (_, estimate), members in ordered]


def ranked_from_groups(groups: list, k: Optional[int] = None,
                       renaming: Optional[Sequence[int]] = None
                       ) -> List[RankedVariable]:
    """The first ``k`` (default all) entries of a :func:`ranked_groups`
    ranking, ties by variable id -- after mapping each id through
    ``renaming`` when one is given."""
    entries: List[RankedVariable] = []
    for estimate, members in groups:
        if renaming is not None:
            members = [(renaming[v], interval) for v, interval in members]
        if len(members) > 1:
            members = sorted(members, key=itemgetter(0))
        for variable, interval in members:
            if len(entries) == k:
                return entries
            entries.append(RankedVariable(variable, interval, estimate))
    return entries


def ranked_from_intervals(intervals: Dict[int, Interval],
                          k: Optional[int] = None) -> List[RankedVariable]:
    """Order variables by the interval evidence.

    Without ``k``: midpoint descending (ties by id).  This is sound for full
    rankings because a certified separation between two intervals implies
    their midpoints are ordered the same way.

    With ``k``: certainly-in variables first, undecided next, certainly-out
    last (midpoint order within each class), truncated to ``k``.  The
    classes matter because task-aware refinement leaves decided intervals
    wide: a certainly-out variable can retain a large midpoint, so midpoints
    alone would rank it above a certain member of the top-k.
    """
    return ranked_from_groups(ranked_groups(intervals, k), k)


def ranked_from_bounds(bounds: Dict[int, Tuple[int, int]],
                       k: Optional[int] = None) -> List[RankedVariable]:
    """:func:`ranked_from_intervals` over raw ``(lower, upper)`` pairs.

    Convenience for reading a ranking off engine results, whose ``bounds``
    store plain tuples rather than :class:`Interval` objects.
    """
    return ranked_from_intervals(
        {variable: Interval(lower, upper)
         for variable, (lower, upper) in bounds.items()}, k)


#: A per-round controller: consumes the fresh intervals, returns
#: ``(done, targets)`` -- whether the run may stop, and otherwise which
#: variables are worth refining next round.  Bundling the two decisions
#: lets each round pay for one O(n^2) interval sweep instead of separate
#: stop and schedule passes.
Controller = Callable[[Dict[int, Interval]], Tuple[bool, List[int]]]


def _topk_controller(k: int, epsilon: Optional[float]) -> Controller:
    """The controller of a top-k run; ``epsilon=None`` demands certainty.

    Refines only the variables straddling the k-th boundary; stops on full
    separation (ties at the boundary count once their intervals are single
    points) or -- with an ``epsilon`` -- once every still-undecided
    interval certifies that relative error (decided variables need no
    tight interval to be reported correctly).
    """
    def controller(intervals: Dict[int, Interval]
                   ) -> Tuple[bool, List[int]]:
        undecided = _topk_undecided(intervals, k)
        if _ties_decide(intervals, undecided):
            return True, []
        if epsilon is not None and all(
                intervals[v].satisfies_relative_error(epsilon)
                for v in undecided):
            return True, []
        return False, undecided

    return controller


def _rank_controller(epsilon: Optional[float]) -> Controller:
    """The controller of a full-ranking run.

    Refines the variables still overlapping a competitor (plus, with an
    ``epsilon``, those not yet certifying it); stops when all pairs are
    separated or identical points, or when every interval reaches
    ``epsilon``.
    """
    def controller(intervals: Dict[int, Interval]
                   ) -> Tuple[bool, List[int]]:
        items = list(intervals.items())
        contended = [
            variable for variable, interval in items
            if any(
                other != variable and other_interval.overlaps(interval)
                and not (interval.is_point() and other_interval.is_point()
                         and other_interval.lower == interval.lower)
                for other, other_interval in items
            )
        ]
        if not contended:
            return True, []
        if epsilon is None:
            return False, contended
        loose = [variable for variable, interval in items
                 if not interval.satisfies_relative_error(epsilon)]
        if not loose:
            return True, []
        return False, sorted(set(contended) | set(loose))

    return controller


class _IchiBanRun:
    """Shared driver for ranking and top-k (used directly by the engine).

    ``compiler`` resumes an already (partially) expanded compilation of
    the same function — e.g. the frontier of a persisted partial d-tree —
    so the run's first refinement round starts from the resumed tree's
    bounds instead of the trivial ones.
    """

    def __init__(self, function: DNF, heuristic: Heuristic,
                 variables: Optional[Sequence[int]] = None,
                 compiler=None) -> None:
        self.state = _AnytimeState(function, heuristic, compiler=compiler)
        if variables is None:
            variables = sorted(function.variables)
        self.variables = list(variables)
        self.steps = 0
        self.rounds = 0

    def refine(self, targets: Sequence[int],
               deadline: Optional[float] = None) -> Dict[int, Interval]:
        """Refresh the intervals of ``targets``; return all best intervals."""
        for variable in targets:
            self.state.refine(variable, deadline)
            self.steps += 1
        self.rounds += 1
        return {v: self.state.best[v] for v in self.variables}

    def run(self, controller: Controller, max_steps: Optional[int],
            timeout_seconds: Optional[float]) -> Dict[int, Interval]:
        """Refine until the controller is satisfied or the budget runs out.

        The controller sees the fresh intervals once per round and decides
        both whether to stop and which variables to refine next (an empty
        target list falls back to refining everything, so progress never
        stalls); the first round always refines everything so every
        variable has an interval.  Between rounds one
        :meth:`~repro.core.adaban._AnytimeState.expand_batch` grows the
        tree; once it is complete, one :func:`~repro.core.exaban.exaban_all`
        pass gives every tracked variable its exact point interval.
        Budget exhaustion raises :class:`IchiBanTimeout` carrying the
        best-so-far intervals, each sound whether refreshed or not.
        """
        deadline = _deadline(timeout_seconds)
        mark = self.state.work
        intervals = self.refine(self.variables)
        try:
            while True:
                done, targets = controller(intervals)
                if done:
                    return intervals
                if max_steps is not None and self.steps >= max_steps:
                    raise IchiBanTimeout(
                        f"IchiBan did not converge within {max_steps} "
                        "bound evaluations",
                        intervals, steps=self.steps, rounds=self.rounds,
                    )
                targets = targets or self.variables
                self.state.expand_batch(self.state.work - mark, targets,
                                        deadline)
                if self.state.is_complete():
                    exact = exaban_all(self.state.compiler.root)
                    return {v: Interval.point(exact.get(v, 0))
                            for v in self.variables}
                mark = self.state.work
                intervals = self.refine(targets, deadline)
        except DeadlineExpired:
            raise IchiBanTimeout(
                "IchiBan did not converge within its time budget",
                {v: self.state.best[v] for v in self.variables},
                steps=self.steps, rounds=self.rounds,
            ) from None


def ichiban_topk(function: DNF, k: int, epsilon: float = 0.1,
                 heuristic: Heuristic = select_most_frequent,
                 max_steps: Optional[int] = None,
                 timeout_seconds: Optional[float] = None
                 ) -> List[RankedVariable]:
    """Approximate top-k: stop when separated or the contenders reach ``epsilon``.

    Returns the ``k`` highest-ranked variables (certain members first, then
    boundary contenders by interval midpoint).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    run = _IchiBanRun(function, heuristic)
    intervals = run.run(_topk_controller(k, epsilon), max_steps,
                        timeout_seconds)
    return ranked_from_intervals(intervals, k)


def ichiban_topk_certain(function: DNF, k: int,
                         heuristic: Heuristic = select_most_frequent,
                         max_steps: Optional[int] = None,
                         timeout_seconds: Optional[float] = None
                         ) -> List[RankedVariable]:
    """Top-k decided with certainty (the Appendix E variant)."""
    if k <= 0:
        raise ValueError("k must be positive")
    run = _IchiBanRun(function, heuristic)
    intervals = run.run(_topk_controller(k, epsilon=None), max_steps,
                        timeout_seconds)
    return ranked_from_intervals(intervals, k)


def ichiban_rank(function: DNF, epsilon: Optional[float] = None,
                 heuristic: Heuristic = select_most_frequent,
                 max_steps: Optional[int] = None,
                 timeout_seconds: Optional[float] = None
                 ) -> List[RankedVariable]:
    """Rank all variables by Banzhaf value.

    With ``epsilon=None`` the run continues until the intervals are pairwise
    separated or collapse to identical point values (a certain ranking up to
    ties).  With an ``epsilon`` the run may also stop once every interval
    certifies that relative error; the ranking is then by midpoints.
    """
    run = _IchiBanRun(function, heuristic)
    intervals = run.run(_rank_controller(epsilon), max_steps,
                        timeout_seconds)
    return ranked_from_intervals(intervals)
