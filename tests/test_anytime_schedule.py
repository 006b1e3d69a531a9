"""The anytime schedule of AdaBan and IchiBan.

Both alternate bound-evaluation rounds with expansion batches sized by the
round's work, and read exact values off one ExaBan pass once the shared
d-tree is complete.  Reference values are brute force, computed here.
"""

import random
import time

import pytest
from hypothesis import given, settings

from dnf_strategies import small_dnfs
from repro.baselines.brute_force import banzhaf_all_brute_force
from repro.boolean.dnf import DNF
from repro.core.adaban import (
    ApproximationTimeout,
    _AnytimeState,
    adaban_all,
    adaban_over_state,
    shared_state,
)
from repro.core.ichiban import (
    IchiBanTimeout,
    _IchiBanRun,
    _rank_controller,
    _topk_controller,
    ichiban_topk,
)
from repro.core.intervals import Interval
from repro.dtree.heuristics import select_most_frequent
from repro.dtree.incremental import IncrementalCompiler
from repro.engine.ranking import compute_ranking
from repro.workloads.generators import mixed_hard_instances, random_positive_dnf

#: Symmetric, so top-k stays contended until the intervals are points; the
#: first batch leaves its tree partial.
CYCLE = DNF([[i, (i + 1) % 12] for i in range(12)])


def _contains(intervals, exact):
    return all(interval.lower <= exact[variable] <= interval.upper
               for variable, interval in intervals.items())


def _points(exact):
    return {variable: Interval.point(value) for variable, value in exact.items()}


class _Clock:
    """A monotonic clock the test moves past every deadline."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestExactFinish:
    @settings(max_examples=60, deadline=None)
    @given(small_dnfs(max_variables=12, max_clauses=12))
    def test_complete_tree_returns_exact_points(self, function):
        exact = banzhaf_all_brute_force(function, sorted(function.variables))
        for epsilon in (0, 0.1, 0.5):
            state = shared_state(function)
            intervals = {variable: result.interval for variable, result
                         in adaban_over_state(state, epsilon=epsilon).items()}
            assert _contains(intervals, exact)
            if state.is_complete():
                assert intervals == _points(exact)
        controllers = [_topk_controller(k, epsilon)
                       for k in (1, 3) for epsilon in (None, 0.1)]
        controllers += [_rank_controller(None), _rank_controller(0.1)]
        for controller in controllers:
            run = _IchiBanRun(function, select_most_frequent)
            intervals = run.run(controller, None, None)
            assert _contains(intervals, exact)
            if run.state.is_complete():
                assert intervals == _points(exact)


class TestStepBudget:
    def test_one_batch_then_starve_then_resume(self):
        exact = banzhaf_all_brute_force(CYCLE)
        budget = 2 * len(CYCLE.variables)
        with pytest.raises(IchiBanTimeout) as info:
            ichiban_topk(CYCLE, 3, epsilon=0.0, max_steps=budget)
        assert info.value.rounds == 2
        assert _contains(info.value.intervals, exact)
        # The engine's ranking path resumes the starved partial tree.
        starved = compute_ranking(CYCLE, "topk", 3, 0.0, None,
                                  max_steps=budget)
        assert not starved.outcome.converged
        assert not starved.artifact.complete
        resumed = compute_ranking(CYCLE, "topk", 3, 0.0, None,
                                  artifact=starved.artifact)
        assert resumed.outcome.converged
        assert resumed.outcome.bounds == {v: (x, x) for v, x in exact.items()}

    def test_round_work_at_most_triples(self, monkeypatch):
        # The predicted-cost cap keeps each round within a constant factor
        # of the one before, on a lineage no batch completes.
        wide = mixed_hard_instances(seed=101, count=4,
                                    dataset="academic")[3].lineage
        assert wide.num_variables() == 52
        works = []
        refine = _IchiBanRun.refine

        def recording_refine(run, targets, deadline=None):
            before = run.state.work
            intervals = refine(run, targets, deadline)
            works.append(run.state.work - before)
            return intervals

        monkeypatch.setattr(_IchiBanRun, "refine", recording_refine)
        with pytest.raises(IchiBanTimeout):
            ichiban_topk(wide, 3, epsilon=0.1, max_steps=3 * 52)
        assert len(works) == 3
        for previous, current in zip(works, works[1:]):
            assert current <= 3 * previous


class TestDeadline:
    def _jump_at_first_step(self, monkeypatch, clock, state):
        """Pass the deadline during the first expansion step; return the
        evaluation work done by then."""
        marks = []
        expand_step = IncrementalCompiler.expand_step

        def stepping(compiler, lazy=True):
            marks.append(state.work)
            clock.now = 100.0
            return expand_step(compiler, lazy)

        monkeypatch.setattr(IncrementalCompiler, "expand_step", stepping)
        return marks

    def test_first_batch_takes_several_steps(self):
        # Precondition of the two mid-batch tests below.
        state = shared_state(CYCLE)
        before = state.compiler.expansion_steps
        state.refine(0)
        state.expand_batch(state.work, (0,), None)
        assert state.compiler.expansion_steps - before > 1

    def test_adaban_raises_mid_batch(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(time, "monotonic", clock)
        state = shared_state(CYCLE)
        marks = self._jump_at_first_step(monkeypatch, clock, state)
        with pytest.raises(ApproximationTimeout):
            adaban_over_state(state, epsilon=0.0, timeout_seconds=10.0)
        assert len(marks) == 1
        assert state.work == marks[0]

    def test_ichiban_raises_mid_batch_with_last_round(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(time, "monotonic", clock)
        run = _IchiBanRun(CYCLE, select_most_frequent)
        marks = self._jump_at_first_step(monkeypatch, clock, run.state)
        rounds = []
        refine = _IchiBanRun.refine

        def recording_refine(ichiban, targets, deadline=None):
            rounds.append(refine(ichiban, targets, deadline))
            return rounds[-1]

        monkeypatch.setattr(_IchiBanRun, "refine", recording_refine)
        with pytest.raises(IchiBanTimeout) as info:
            run.run(_topk_controller(3, 0.0), None, 10.0)
        assert len(marks) == 1
        assert run.state.work == marks[0]
        assert info.value.intervals == rounds[-1]
        assert (info.value.steps, info.value.rounds) == (12, 1)

    def test_ichiban_stops_between_target_variables(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(time, "monotonic", clock)
        refreshed = []
        refine = _AnytimeState.refine

        def refining(state, variable, deadline=None):
            interval = refine(state, variable, deadline)
            refreshed.append(variable)
            if len(refreshed) == 13:  # the first target of round 2
                clock.now = 100.0
            return interval

        monkeypatch.setattr(_AnytimeState, "refine", refining)
        with pytest.raises(IchiBanTimeout) as info:
            ichiban_topk(CYCLE, 3, epsilon=0.0, timeout_seconds=10.0)
        assert len(refreshed) == 13
        assert (info.value.steps, info.value.rounds) == (13, 1)
        assert _contains(info.value.intervals, banzhaf_all_brute_force(CYCLE))


class TestDeterminism:
    def test_runs_repeat_exactly(self):
        # Three rounds on this lineage, so batch sizing matters.
        function = random_positive_dnf(random.Random(20), 22, 33, (2, 3))
        outcomes = []
        for _ in range(2):
            run = _IchiBanRun(function, select_most_frequent)
            intervals = run.run(_topk_controller(1, None), None, None)
            results = adaban_all(function, epsilon=0.1)
            outcomes.append((
                run.steps, run.rounds, run.state.work, intervals,
                {v: (r.interval, r.refinement_steps)
                 for v, r in results.items()},
            ))
        assert outcomes[0][1] == 3
        assert outcomes[0] == outcomes[1]
