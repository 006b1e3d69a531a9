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
from repro.workloads.generators import (
    bipartite_lineage,
    chain_lineage,
    mixed_hard_instances,
    random_positive_dnf,
)

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


#: One fixed-seed lineage per ``lineages-hard`` generator, at the benchmark's
#: sizes, with its recorded schedule: IchiBan top-3 (certain) as ``(steps,
#: rounds, work)`` and the best intervals after each refinement round, in
#: sorted variable order; then the exact values both algorithms end on (the
#: tree completes) and AdaBan's per-variable refinement steps at epsilon 0.1.
PINNED = {
    "bipartite": (
        lambda: bipartite_lineage(random.Random(1), left=8, right=10,
                                  density=0.35),
        (36, 2, 3001),
        [((0, 23327), (0, 23326), (0, 23327), (0, 23327), (0, 23326),
          (0, 23327), (0, 17495), (0, 23325), (0, 23327), (0, 23325),
          (0, 23325), (0, 23327), (0, 23325), (0, 17493), (0, 23325),
          (0, 23325), (0, 17495), (0, 17495)),
         ((0, 8748), (0, 7940), (0, 8372), (360, 9384), (12, 6104),
          (0, 4364), (0, 3744), (160, 6360), (624, 5904), (48, 5064),
          (112, 5480), (444, 5836), (336, 1512), (48, 504), (612, 5936),
          (340, 5480), (240, 1068), (432, 2528))],
        (3172, 2644, 2956, 3924, 2064, 2284, 848, 2860, 2828, 1004, 1836,
         2060, 972, 300, 1996, 1940, 676, 1484),
        (4,) + (0,) * 17,
    ),
    "random": (
        lambda: random_positive_dnf(random.Random(2), 17, 25, (2, 3)),
        (34, 2, 2507),
        [((0, 15870), (0, 15873), (0, 13604), (0, 15870), (0, 13604),
          (0, 13606), (0, 13600), (0, 15868), (0, 15868), (0, 13600),
          (0, 13596), (0, 15870), (0, 13596), (0, 13596), (0, 11903),
          (0, 15872), (0, 15870)),
         ((300, 8334), (552, 5688), (27, 5881), (360, 2808), (280, 5888),
          (0, 8232), (0, 5356), (0, 8109), (276, 7389), (27, 5400),
          (0, 6441), (0, 8688), (162, 5649), (0, 4515), (0, 5854),
          (132, 7242), (1572, 7001))],
        (3793, 3387, 1681, 1991, 2679, 4577, 1039, 3625, 3945, 1165, 2449,
         4647, 1363, 921, 2003, 3021, 4427),
        (3,) + (0,) * 16,
    ),
    "chain": (
        lambda: chain_lineage(random.Random(3), length=8, width=3),
        (51, 3, 2060),
        [((0, 31855), (0, 31855), (0, 37343), (0, 31855), (0, 31855),
          (0, 33313), (0, 38801), (0, 33313), (0, 33313), (0, 33313),
          (0, 38801), (0, 33313), (0, 33313), (0, 33313), (0, 38801),
          (0, 33313), (0, 33313)),
         ((0, 14277), (0, 14277), (0, 37343), (0, 14277), (0, 30397),
          (0, 26281), (0, 31181), (0, 28045), (0, 28045), (0, 27577),
          (0, 32477), (0, 29341), (0, 29341), (0, 27577), (0, 32477),
          (0, 29341), (0, 29341)),
         ((3987, 7308), (3987, 7308), (0, 27239), (2997, 6468),
          (4440, 17163), (2673, 6468), (0, 26291), (0, 11457),
          (2268, 23629), (252, 17047), (4704, 23597), (0, 20461),
          (7276, 20461), (96, 20023), (5760, 24389), (0, 22405),
          (0, 22405))],
        (6279, 6279, 13331, 5289, 12219, 5445, 12395, 5421, 12363, 5421,
         12395, 5445, 12219, 5289, 13331, 6279, 6279),
        (4,) + (0,) * 16,
    ),
}


class TestPinnedSchedule:
    """The anytime schedule, pinned to recorded values.

    Batches are sized by :class:`~repro.core.bounds.WorkMeter` units and
    the controllers read the bounds, so a bounds change that bills
    differently or moves one bound changes these numbers, even where two
    runs of the new code agree with each other.
    """

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_schedule_matches_the_record(self, name):
        make, counts, rounds, exact, adaban_steps = PINNED[name]
        function = make()
        run = _IchiBanRun(function, select_most_frequent)
        seen = []
        refine = run.refine

        def recording(targets, deadline=None):
            intervals = refine(targets, deadline)
            seen.append(tuple((intervals[v].lower, intervals[v].upper)
                              for v in run.variables))
            return intervals

        run.refine = recording
        final = run.run(_topk_controller(3, None), None, None)
        assert (run.steps, run.rounds, run.state.work) == counts
        assert seen == rounds
        assert [final[v] for v in run.variables] == \
            [Interval.point(value) for value in exact]
        results = adaban_all(function, epsilon=0.1)
        assert [(results[v].interval, results[v].refinement_steps)
                for v in run.variables] == \
            [(Interval.point(value), steps)
             for value, steps in zip(exact, adaban_steps)]
