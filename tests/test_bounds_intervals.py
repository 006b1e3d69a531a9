"""Tests for the bounds procedure (Fig. 2) and the interval algebra."""

from fractions import Fraction

import pytest

from repro.baselines.brute_force import banzhaf_all_brute_force
from repro.boolean.assignments import count_models
from repro.boolean.dnf import DNF
from repro.core.bounds import (
    BanzhafBounds,
    WorkMeter,
    bounds_for_variable,
    cofactor_count_bounds,
    count_bounds,
)
from repro.core.intervals import Interval
from repro.dtree.compile import compile_dnf
from repro.dtree.incremental import IncrementalCompiler
from repro.workloads.generators import random_positive_dnf

from dnf_strategies import SHARING_DNF, unfolded_count


class TestBanzhafBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            BanzhafBounds(2, 0, 1, 5)
        with pytest.raises(ValueError):
            BanzhafBounds(0, 5, 1, 2)

    def test_is_exact(self):
        assert BanzhafBounds(3, 7, 3, 7).is_exact()
        assert not BanzhafBounds(2, 7, 3, 7).is_exact()


class TestCountBounds:
    def test_exact_on_complete_trees(self, rng):
        for _ in range(20):
            function = random_positive_dnf(rng, rng.randint(1, 6),
                                           rng.randint(1, 5), (1, 3))
            tree = compile_dnf(function)
            lower, upper = count_bounds(tree)
            assert lower == upper == count_models(function)

    def test_sandwich_on_partial_trees(self, rng):
        for _ in range(30):
            function = random_positive_dnf(rng, rng.randint(2, 7),
                                           rng.randint(2, 7), (1, 3))
            compiler = IncrementalCompiler(function)
            exact = count_models(function)
            while True:
                lower, upper = count_bounds(compiler.root)
                assert lower <= exact <= upper
                if compiler.is_complete():
                    break
                compiler.expand_step(lazy=False)

    def test_bounds_tighten_monotonically(self, rng):
        function = random_positive_dnf(rng, 7, 8, (2, 3))
        compiler = IncrementalCompiler(function)
        previous_width = None
        while not compiler.is_complete():
            lower, upper = count_bounds(compiler.root)
            width = upper - lower
            if previous_width is not None:
                assert width <= previous_width
            previous_width = width
            compiler.expand_step(lazy=False)

    def test_shared_nodes_are_evaluated_and_billed_once(self):
        # The compiler shares identical sub-functions, so this lineage's
        # d-tree is a DAG with fewer distinct nodes than its unfolding.
        tree = compile_dnf(SHARING_DNF)
        assert tree.num_nodes() < unfolded_count(tree)
        meter = WorkMeter()
        exact = count_models(SHARING_DNF)
        assert count_bounds(tree, meter) == (exact, exact)
        assert meter.units == tree.num_nodes()


class TestBanzhafBoundsOnTrees:
    def test_contains_exact_value_during_expansion(self, rng):
        for _ in range(25):
            function = random_positive_dnf(rng, rng.randint(2, 6),
                                           rng.randint(2, 6), (1, 3))
            exact = banzhaf_all_brute_force(function)
            compiler = IncrementalCompiler(function)
            while True:
                for variable in sorted(function.variables):
                    bounds = bounds_for_variable(compiler.root, variable)
                    assert bounds.banzhaf_lower <= exact[variable]
                    assert exact[variable] <= bounds.banzhaf_upper
                if compiler.is_complete():
                    break
                compiler.expand_step(lazy=False)

    def test_exact_on_complete_trees(self, rng):
        functions = [random_positive_dnf(rng, rng.randint(1, 6),
                                         rng.randint(1, 5), (1, 3))
                     for _ in range(20)]
        # A DAG: the passes meet nodes that several parents share.
        functions.append(SHARING_DNF)
        for function in functions:
            exact = banzhaf_all_brute_force(function)
            tree = compile_dnf(function)
            for variable in sorted(function.variables):
                bounds = bounds_for_variable(tree, variable)
                assert bounds.banzhaf_lower == bounds.banzhaf_upper == exact[variable]

    def test_variable_not_in_function(self):
        function = DNF([[0]], domain=[0, 1])
        compiler = IncrementalCompiler(function)
        bounds = bounds_for_variable(compiler.root, 1)
        assert bounds.banzhaf_lower == bounds.banzhaf_upper == 0

    def test_cofactor_count_bounds_contain_truth(self, rng):
        for _ in range(20):
            function = random_positive_dnf(rng, rng.randint(2, 6),
                                           rng.randint(2, 6), (1, 3))
            compiler = IncrementalCompiler(function)
            compiler.expand_step(lazy=True)
            for variable in sorted(function.variables):
                exact = count_models(function.cofactor(variable, False))
                lower, upper = cofactor_count_bounds(compiler.root, variable)
                assert lower <= exact <= upper


class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_intersection(self):
        assert Interval(0, 10).intersect(Interval(5, 20)) == Interval(5, 10)
        with pytest.raises(ValueError):
            Interval(0, 1).intersect(Interval(5, 6))

    def test_point_and_width(self):
        assert Interval.point(4).is_point()
        assert Interval(2, 6).width() == 4
        assert Interval(2, 6).contains(5)
        assert not Interval(2, 6).contains(7)

    def test_relative_error_condition(self):
        # Example 14: with [Lb, Ub] = [43, 136] the error 0.5 cannot be
        # certified ((1-0.5)*136 = 68 > (1+0.5)*43 = 64.5) but 0.6 can.
        interval = Interval(43, 136)
        assert not interval.satisfies_relative_error(0.5)
        assert interval.satisfies_relative_error(0.6)
        low, high = interval.epsilon_interval(0.6)
        assert float(low) == pytest.approx(0.4 * 136)
        assert float(high) == pytest.approx(1.6 * 43)
        assert low <= high

    def test_epsilon_interval_rejects_unsatisfied(self):
        with pytest.raises(ValueError):
            Interval(43, 136).epsilon_interval(0.5)

    def test_approximation_within_relative_error(self):
        interval = Interval(90, 100)
        estimate = interval.approximation(0.1)
        for value in range(90, 101):
            # estimate must be an eps-approximation of any possible exact value
            assert (1 - Fraction(1, 10)) * value <= estimate
            assert estimate <= (1 + Fraction(1, 10)) * value

    def test_relative_gap(self):
        assert Interval.point(5).relative_gap() == 0
        assert Interval(0, 5).relative_gap() == 1
        assert Interval(5, 10).relative_gap() == Fraction(1, 3)

    def test_ordering_helpers(self):
        assert Interval(10, 12).strictly_above(Interval(1, 9))
        assert Interval(1, 9).strictly_below(Interval(10, 12))
        assert Interval(1, 9).overlaps(Interval(9, 12))
        assert Interval(4, 8).midpoint() == 6
