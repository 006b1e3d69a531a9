"""Tests for IchiBan (Banzhaf-based ranking and top-k)."""

import random
from fractions import Fraction

import pytest

from repro.baselines.brute_force import banzhaf_all_brute_force
from repro.boolean.dnf import DNF
from repro.core.adaban import ApproximationTimeout
from repro.core.ichiban import (
    IchiBanTimeout,
    _IchiBanRun,
    _topk_classify,
    _topk_undecided,
    ichiban_rank,
    ichiban_topk,
    ichiban_topk_certain,
    ranked_from_intervals,
)
from repro.core.intervals import Interval
from repro.workloads.generators import random_positive_dnf, star_join_lineage


def _exact_order(function: DNF):
    exact = banzhaf_all_brute_force(function, sorted(function.variables))
    return exact, sorted(exact, key=lambda v: (-exact[v], v))


class TestTopK:
    def test_rejects_non_positive_k(self, example9_dnf):
        with pytest.raises(ValueError):
            ichiban_topk(example9_dnf, 0)
        with pytest.raises(ValueError):
            ichiban_topk_certain(example9_dnf, -1)

    def test_certain_topk_matches_brute_force(self, rng):
        for _ in range(20):
            function = random_positive_dnf(rng, rng.randint(3, 7),
                                           rng.randint(2, 7), (1, 3))
            exact, order = _exact_order(function)
            for k in (1, 2, 3):
                reported = ichiban_topk_certain(function, k)
                assert len(reported) == min(k, len(order))
                # Every reported variable's exact value must be at least the
                # k-th largest exact value (ties make the set non-unique).
                threshold = exact[order[min(k, len(order)) - 1]]
                for entry in reported:
                    assert exact[entry.variable] >= threshold

    def test_certain_topk_intervals_contain_exact(self, rng):
        function = random_positive_dnf(rng, 6, 8, (2, 3))
        exact, _ = _exact_order(function)
        for entry in ichiban_topk_certain(function, 3):
            assert entry.lower <= exact[entry.variable] <= entry.upper

    def test_approximate_topk_on_clear_winner(self, example9_dnf):
        top = ichiban_topk(example9_dnf, 1, epsilon=0.1)
        assert top[0].variable == 0

    def test_approximate_topk_precision(self, rng):
        # With a moderate epsilon the reported set should still be exact here.
        for _ in range(10):
            function = random_positive_dnf(rng, rng.randint(4, 7),
                                           rng.randint(3, 7), (1, 3))
            exact, order = _exact_order(function)
            k = 3
            reported = {entry.variable for entry in
                        ichiban_topk(function, k, epsilon=0.05)}
            threshold = exact[order[min(k, len(order)) - 1]]
            legitimate = {v for v in exact if exact[v] >= threshold}
            assert reported <= legitimate or reported == set(order[:k])

    def test_star_lineage_top1_is_hub(self, rng):
        function = star_join_lineage(rng, 1, 3)
        top = ichiban_topk_certain(function, 1)
        # Variable 0 is the hub appearing in every clause.
        assert top[0].variable == 0


class TestRanking:
    def test_certain_ranking_matches_brute_force(self, rng):
        for _ in range(15):
            function = random_positive_dnf(rng, rng.randint(3, 6),
                                           rng.randint(2, 6), (1, 3))
            exact, order = _exact_order(function)
            ranking = ichiban_rank(function, epsilon=None)
            reported_values = [exact[entry.variable] for entry in ranking]
            # The reported order must be non-increasing in the exact values.
            assert reported_values == sorted(reported_values, reverse=True)
            assert {entry.variable for entry in ranking} == function.variables

    def test_epsilon_ranking_orders_by_midpoints(self, rng):
        function = random_positive_dnf(rng, 6, 8, (2, 3))
        ranking = ichiban_rank(function, epsilon=0.1)
        midpoints = [entry.estimate for entry in ranking]
        assert midpoints == sorted(midpoints, reverse=True)

    def test_ranking_entry_fields(self, example9_dnf):
        ranking = ichiban_rank(example9_dnf, epsilon=None)
        first = ranking[0]
        assert first.variable == 0
        assert first.lower == first.upper == 3
        assert first.estimate == Fraction(3)

    def test_all_equal_values_rank_as_ties(self):
        function = DNF([[0], [1], [2]])
        ranking = ichiban_rank(function, epsilon=None)
        values = {entry.variable: entry.estimate for entry in ranking}
        assert len(set(values.values())) == 1


class TestBudgetExhaustion:
    def _hard_function(self, rng):
        return random_positive_dnf(rng, 24, 40, (3, 5))

    def test_timeout_carries_partial_intervals(self, rng):
        function = self._hard_function(rng)
        with pytest.raises(IchiBanTimeout) as info:
            ichiban_topk(function, 3, epsilon=0.01, timeout_seconds=0.0)
        timeout = info.value
        # The partial intervals cover every variable and remain sound.
        assert set(timeout.intervals) == function.variables
        assert timeout.rounds >= 1
        assert timeout.steps >= len(function.variables)
        # IchiBanTimeout stays catchable as the generic anytime failure.
        assert isinstance(timeout, ApproximationTimeout)

    def test_partial_intervals_contain_exact_values(self, rng):
        function = random_positive_dnf(rng, 6, 8, (2, 3))
        exact = banzhaf_all_brute_force(function)
        with pytest.raises(IchiBanTimeout) as info:
            # One round of bound evaluations, then the step budget is gone.
            ichiban_topk(function, 2, epsilon=0.0,
                         max_steps=len(function.variables))
        for variable, interval in info.value.intervals.items():
            assert interval.lower <= exact[variable] <= interval.upper

    def test_max_steps_counts_bound_evaluations(self, rng):
        # max_steps is AdaBan's unit: one step per bound evaluation, not
        # one per refinement round.  A budget below one full round still
        # admits the (mandatory) first round, so steps >= #variables; a
        # round-counting implementation would have claimed steps == 1.
        function = random_positive_dnf(rng, 8, 12, (2, 4))
        with pytest.raises(IchiBanTimeout) as info:
            ichiban_topk(function, 2, epsilon=0.0, max_steps=1)
        assert info.value.steps >= len(function.variables)


class TestScheduling:
    def test_classification(self):
        intervals = {
            0: Interval(10, 12),   # certainly in (nobody can reach 10)
            1: Interval(5, 9),     # undecided against 2
            2: Interval(4, 8),     # undecided against 1
            3: Interval(0, 3),     # certainly out (0, 1, 2 all above)
        }
        classes = _topk_classify(intervals, 2)
        assert classes[0] == 0 and classes[3] == 2
        assert classes[1] == classes[2] == 1
        assert set(_topk_undecided(intervals, 2)) == {1, 2}

    def test_decided_variables_stop_refining(self, monkeypatch):
        # The schedule refines only boundary-straddling variables: once a
        # variable is decided (certainly in or certainly out of the top-k),
        # no later round evaluates it again.  On this lineage a variable is
        # decided a round before the batched expansion completes the tree,
        # so the check is not vacuous.
        rounds = []
        refine = _IchiBanRun.refine

        def recording_refine(run, targets, deadline=None):
            intervals = refine(run, targets, deadline)
            undecided = set(_topk_undecided(intervals, 1))
            rounds.append((set(targets), set(intervals) - undecided))
            return intervals

        monkeypatch.setattr(_IchiBanRun, "refine", recording_refine)
        function = random_positive_dnf(random.Random(20), 22, 33, (2, 3))
        top = ichiban_topk_certain(function, 1)
        assert top[0].variable == 0
        skipped = 0
        for index, (_, decided) in enumerate(rounds):
            for later_targets, _ in rounds[index + 1:]:
                assert not decided & later_targets
                skipped += len(decided)
        assert skipped > 0

    def test_out_variable_ranked_below_undecided(self):
        # A certainly-out variable can keep a wide interval with a large
        # midpoint; classification-aware ordering must keep it out of the
        # reported set regardless.
        intervals = {
            0: Interval(101, 110),
            1: Interval(105, 120),
            2: Interval(0, 100),    # out (0 and 1 certainly above), mid 50
            3: Interval(10, 102),   # undecided, mid 56
        }
        reported = [entry.variable
                    for entry in ranked_from_intervals(intervals, 2)]
        assert 2 not in reported

    def test_ranked_from_intervals_without_k_is_midpoint_order(self):
        intervals = {0: Interval(1, 3), 1: Interval(4, 6), 2: Interval(2, 2)}
        ranking = ranked_from_intervals(intervals)
        assert [entry.variable for entry in ranking] == [1, 0, 2]
