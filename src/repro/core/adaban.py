"""AdaBan: anytime deterministic approximation of Banzhaf values (Fig. 3).

The algorithm maintains a partial d-tree of the lineage.  In each round it

1. evaluates the ``bounds`` procedure on the current tree to obtain an
   interval that provably contains the exact Banzhaf value,
2. intersects it with the best interval seen so far (each refinement can only
   tighten the interval -- this is the "anytime deterministic" property), and
3. stops if the interval certifies the requested relative error, otherwise
   expands the d-tree by one batch of lazy steps and repeats.

A batch does about as much expansion work as the evaluation before it, capped
so the next evaluation costs at most about twice the last (anytime-algorithm
doubling, in deterministic work units); a complete tree gives exact values off
one :func:`~repro.core.exaban.exaban_all` pass.  The paper's optimizations
(Section 3.2.4): (1) lazy expansion (:mod:`repro.dtree.incremental`), (2)
bound caching with path invalidation and (4) the bound from ``#phi`` and
``#phi[x:=0]`` at every node (:mod:`repro.core.bounds`), (3) one partial
d-tree shared across variables (:func:`adaban_all`).

``adaban_trace`` keeps one lazy step per evaluation and exposes the interval
after every step; the Figure 5 convergence experiment is built on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Optional, Sequence

from repro.boolean.dnf import DNF
from repro.core.bounds import (
    DeadlineExpired, WorkMeter, bounds_for_variable, check_deadline)
from repro.core.exaban import exaban_all
from repro.core.intervals import Interval
from repro.dtree.heuristics import Heuristic, select_most_frequent
from repro.dtree.incremental import IncrementalCompiler
from repro.dtree.nodes import DNFLeaf


class ApproximationTimeout(Exception):
    """Raised when AdaBan exceeds its time or step budget before converging."""


@dataclass(frozen=True)
class AdaBanResult:
    """Result of an AdaBan run for one variable.

    Attributes
    ----------
    variable:
        The variable (fact id) the result refers to.
    interval:
        The final interval; it always contains the exact Banzhaf value.
    epsilon:
        The requested relative error.
    estimate:
        A certified ``epsilon``-approximation (midpoint of the certified
        range) when the error was reached, otherwise the interval midpoint.
    converged:
        Whether the requested error was certified.
    refinement_steps:
        Number of bound evaluations performed.
    """

    variable: int
    interval: Interval
    epsilon: float
    estimate: Fraction
    converged: bool
    refinement_steps: int

    @property
    def lower(self) -> int:
        """Final lower bound."""
        return self.interval.lower

    @property
    def upper(self) -> int:
        """Final upper bound."""
        return self.interval.upper


def _initial_interval(function: DNF, variable: int) -> Interval:
    """The trivial bounds ``[0, 2^(n-1)]`` used to seed the refinement."""
    n = function.num_variables()
    if not function.contains_variable(variable):
        return Interval.point(0)
    return Interval(0, 1 << max(0, n - 1))


#: Cap (b): stop once the next round is predicted to cost this × the last.
_GROWTH = 2
#: Nodes replacing a decomposed leaf (Shannon: an exclusive OR, two ANDs).
_SPLIT = 3


class _AnytimeState:
    """Shared partial d-tree plus per-variable best intervals.

    ``compiler`` may carry an already (partially) expanded compilation to
    resume — e.g. one rebuilt from a persisted
    :class:`~repro.engine.artifact.CompiledLineage` — instead of starting
    from the undecomposed lineage.  The resumed tree must represent the
    same function; refinement then starts from its current frontier, so
    work a previous run (or process) paid for is never redone.  ``work``
    sums this run's :class:`~repro.core.bounds.WorkMeter` units.
    """

    def __init__(self, function: DNF, heuristic: Heuristic,
                 compiler: Optional[IncrementalCompiler] = None) -> None:
        self.function = function
        self.compiler = (compiler if compiler is not None
                         else IncrementalCompiler(function,
                                                  heuristic=heuristic))
        self.best: Dict[int, Interval] = {}
        self.work = 0

    def refine(self, variable: int,
               deadline: Optional[float] = None) -> Interval:
        """Fold fresh bounds for ``variable`` into its best interval.

        Raises :class:`~repro.core.bounds.DeadlineExpired` rather than
        compute a node bound past ``deadline``.
        """
        check_deadline(deadline)  # a fully cached evaluation charges nothing
        meter = WorkMeter(deadline)
        node_bounds = bounds_for_variable(self.compiler.root, variable,
                                          meter=meter)
        self.work += meter.units
        fresh = Interval(node_bounds.banzhaf_lower, node_bounds.banzhaf_upper)
        previous = self.best.get(variable)
        if previous is None:
            previous = _initial_interval(self.function, variable)
        best = previous.intersect(fresh)
        self.best[variable] = best
        return best

    def expand(self, lazy: bool = True) -> bool:
        """Expand the partial d-tree by one (lazy) step."""
        return self.compiler.expand_step(lazy=lazy)

    def expand_batch(self, round_work: int, targets: Iterable[int],
                     deadline: Optional[float]) -> None:
        """Take lazy steps sized by the evaluation round that just ran.

        After one step, stop once (a) the batch's expansion work reaches
        ``round_work`` (that round's ``work``), (b) the next round over
        ``targets`` is predicted to cost ``_GROWTH * round_work``, or (c)
        the tree is complete.  The prediction charges each node that round
        must bound once plus twice per target in its domain: ``_SPLIT``
        nodes per decomposed leaf, and each leaf opened and still open at
        its clause count.  Past ``deadline`` it raises ``DeadlineExpired``.
        """
        compiler = self.compiler
        targets = frozenset(targets)

        def weight(leaf: DNFLeaf) -> int:
            return 1 + 2 * len(targets & leaf.domain)

        budget = compiler.expansion_work + round_work
        before = frontier = set(compiler.nontrivial_leaves())
        replacing = 0
        while not compiler.is_complete():
            check_deadline(deadline)
            compiler.expand_step(lazy=True)
            current = set(compiler.nontrivial_leaves())
            replacing += _SPLIT * sum(map(weight, frontier - current))
            frontier = current
            predicted = replacing + sum(leaf.priority[0] * weight(leaf)
                                        for leaf in current - before)
            if (compiler.expansion_work >= budget
                    or predicted >= _GROWTH * round_work):
                return

    def is_complete(self) -> bool:
        """``True`` once the d-tree is complete (bounds are then exact)."""
        return self.compiler.is_complete()


def adaban(function: DNF, variable: int, epsilon: float = 0.1,
           heuristic: Heuristic = select_most_frequent,
           max_steps: Optional[int] = None,
           timeout_seconds: Optional[float] = None) -> AdaBanResult:
    """Approximate the Banzhaf value of ``variable`` to relative error ``epsilon``.

    Raises :class:`ApproximationTimeout` if the step or time budget is
    exhausted before the error is certified (with ``epsilon=0`` the run
    degenerates into exact computation by full compilation).
    """
    return _run_for_variable(_AnytimeState(function, heuristic), variable,
                             epsilon, max_steps, _deadline(timeout_seconds))


def adaban_all(function: DNF, epsilon: float = 0.1,
               variables: Optional[Sequence[int]] = None,
               heuristic: Heuristic = select_most_frequent,
               max_steps: Optional[int] = None,
               timeout_seconds: Optional[float] = None
               ) -> Dict[int, AdaBanResult]:
    """Approximate the Banzhaf values of several variables.

    The partial d-tree is shared across variables (the paper's optimization
    (3)): the approximation for the first variable typically expands the tree
    far enough that later variables converge with few or no extra expansions.
    """
    state = _AnytimeState(function, heuristic)
    return adaban_over_state(state, epsilon=epsilon, variables=variables,
                             max_steps=max_steps,
                             timeout_seconds=timeout_seconds)


def adaban_over_state(state: _AnytimeState, epsilon: float = 0.1,
                      variables: Optional[Sequence[int]] = None,
                      max_steps: Optional[int] = None,
                      timeout_seconds: Optional[float] = None
                      ) -> Dict[int, AdaBanResult]:
    """:func:`adaban_all` over a caller-owned anytime state.

    The engine uses this to *resume* refinement from a cached or persisted
    partial d-tree (``state`` built via :func:`shared_state` with a resumed
    compiler) and to keep the state — and its partial tree — in hand when
    the budget runs out, so the work survives an
    :class:`ApproximationTimeout` instead of dying with the call.

    Once the shared tree is complete, every remaining variable reads its
    exact value off one :func:`~repro.core.exaban.exaban_all` pass (a point
    interval, zero refinement steps), and so, at return, does every
    variable that converged earlier.  The time budget is checked before
    every node bound and every expansion step.
    """
    if variables is None:
        variables = sorted(state.function.variables)
    deadline = _deadline(timeout_seconds)
    results = {variable: _run_for_variable(state, variable, epsilon,
                                           max_steps, deadline)
               for variable in variables}
    if state.is_complete():
        results = {variable: _exact(state, variable, epsilon,
                                    result.refinement_steps)
                   for variable, result in results.items()}
    return results


def _deadline(timeout_seconds: Optional[float]) -> Optional[float]:
    """The monotonic instant ``timeout_seconds`` from now (``None``: never)."""
    if timeout_seconds is None:
        return None
    return time.monotonic() + timeout_seconds


def _run_for_variable(state: _AnytimeState, variable: int, epsilon: float,
                      max_steps: Optional[int],
                      deadline: Optional[float]) -> AdaBanResult:
    """Alternate one-evaluation rounds and batches until done or complete."""
    steps = 0
    try:
        while not state.is_complete():
            mark = state.work
            best = state.refine(variable, deadline)
            steps += 1
            if best.satisfies_relative_error(epsilon):
                return AdaBanResult(variable=variable, interval=best,
                                    epsilon=float(epsilon),
                                    estimate=best.approximation(epsilon),
                                    converged=True, refinement_steps=steps)
            if max_steps is not None and steps >= max_steps:
                raise ApproximationTimeout(
                    f"no convergence within {max_steps} refinement steps"
                )
            state.expand_batch(state.work - mark, (variable,), deadline)
    except DeadlineExpired:
        raise ApproximationTimeout(
            "no convergence within the time budget") from None
    return _exact(state, variable, epsilon, steps)


def _exact(state: _AnytimeState, variable: int, epsilon: float,
           steps: int) -> AdaBanResult:
    """The exact result off a complete tree (``exaban_all`` is memoized)."""
    value = exaban_all(state.compiler.root).get(variable, 0)
    return AdaBanResult(variable=variable, interval=Interval.point(value),
                        epsilon=float(epsilon), estimate=Fraction(value),
                        converged=True, refinement_steps=steps)


def adaban_trace(function: DNF, variable: int,
                 heuristic: Heuristic = select_most_frequent,
                 max_steps: Optional[int] = None
                 ) -> Iterator[tuple[float, Interval]]:
    """Yield ``(elapsed_seconds, interval)`` after every refinement step.

    Runs until the d-tree is complete (exact value) or ``max_steps`` bound
    evaluations have happened.  Used by the Figure 5 convergence experiment.
    """
    state = _AnytimeState(function, heuristic)
    started = time.monotonic()
    steps = 0
    while True:
        best = state.refine(variable)
        steps += 1
        yield time.monotonic() - started, best
        if state.is_complete() or best.is_point():
            return
        if max_steps is not None and steps >= max_steps:
            return
        state.expand(lazy=True)


def shared_state(function: DNF,
                 heuristic: Heuristic = select_most_frequent,
                 compiler: Optional[IncrementalCompiler] = None
                 ) -> _AnytimeState:
    """Create a shareable anytime state (used by IchiBan and the engine).

    ``compiler`` resumes an existing (partially expanded) compilation;
    see :class:`_AnytimeState`.
    """
    return _AnytimeState(function, heuristic, compiler=compiler)
