"""Tests for the bounds procedure (Fig. 2) and the interval algebra."""

import hashlib
import random
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
from repro.dtree.nodes import DecompOr, DNFLeaf
from repro.workloads.generators import (
    bipartite_lineage,
    chain_lineage,
    random_positive_dnf,
)

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

    def test_cofactor_count_bounds_outside_the_domain(self):
        # phi[x := 0] is phi itself for a variable phi is not defined over.
        tree = compile_dnf(DNF([[0, 1], [2, 3]]))
        assert isinstance(tree, DecompOr)
        assert cofactor_count_bounds(tree, 9) == count_bounds(tree) == (7, 7)
        leaf = IncrementalCompiler(DNF([[0, 1], [1, 2], [2, 3]])).root
        assert isinstance(leaf, DNFLeaf)
        assert cofactor_count_bounds(leaf, 9) == count_bounds(leaf)


#: One fixed-seed lineage per ``lineages-hard`` generator, at the benchmark's
#: sizes, with the record of every ``bounds_for_variable`` call along a lazy
#: ``expand_step`` run to completion: after each step (and before the first)
#: every variable is bounded in sorted order.  One line per tree, one
#: ``WorkMeter.units`` per call; then the SHA-256 of the ``repr`` of every
#: call's ``(banzhaf_lower, count_lower, banzhaf_upper, count_upper)``.
BILLED = {
    "bipartite": (
        lambda: bipartite_lineage(random.Random(1), left=8, right=10,
                                  density=0.35),
        """
        78 52 52 52 52 52 52 52 52 52 52 52 52 52 52 52 52 52
        119 78 78 10 78 78 78 78 78 78 78 78 78 78 78 78 78 78
        55 72 72 4 72 72 72 72 72 72 72 72 72 8 72 72 72 72
        44 62 22 4 62 62 62 62 62 62 62 62 62 6 62 62 14 62
        110 80 68 6 114 114 74 114 78 96 96 96 54 14 114 114 46 78
        68 44 44 4 44 44 6 44 8 8 8 18 8 8 44 44 44 8
        35 46 24 4 46 46 12 46 14 46 46 14 46 6 46 46 14 14
        67 42 18 4 92 58 80 92 82 92 92 80 26 6 70 82 12 50
        112 82 68 6 96 116 56 102 60 80 80 42 38 12 92 116 50 36
        64 70 44 6 56 70 16 56 20 50 50 24 26 12 70 70 30 20
        51 38 18 4 70 32 36 70 40 70 70 70 24 6 40 40 12 54
        65 56 50 6 54 62 46 76 48 48 48 52 24 12 56 76 26 30
        79 50 56 6 76 72 42 92 46 68 68 58 40 12 76 82 30 36
        37 22 16 4 50 28 32 42 32 50 50 50 18 6 30 50 12 24
        91 70 28 4 116 96 66 94 72 114 126 72 36 6 78 98 18 48
        63 58 28 4 78 68 46 72 50 76 84 58 36 6 56 70 18 44
        84 62 58 6 78 72 40 92 44 72 72 56 38 12 64 86 32 36
        31 24 16 4 38 18 18 36 20 38 38 26 20 6 20 20 12 26
        34 22 16 4 32 42 44 28 44 30 32 24 18 6 24 44 12 24
        32 40 18 4 28 38 12 24 14 26 28 14 20 6 40 40 14 14
        248 118 86 6 188 162 92 198 100 190 206 124 48 12 142 182 40 56
        """,
        "7449f81dfe5e93518ba1d173df6bfc3431841f2650002f05"
        "a35143fb8f9be6b6",
    ),
    "random": (
        lambda: random_positive_dnf(random.Random(2), 17, 25, (2, 3)),
        """
        69 46 46 46 46 46 46 46 46 46 46 46 46 46 46 46 46
        107 70 70 70 70 10 70 70 70 70 70 70 70 70 70 70 70
        90 8 58 8 58 4 58 58 58 58 58 16 58 58 58 58 58
        71 14 82 12 82 6 82 42 82 82 82 26 82 82 82 62 82
        39 6 50 6 50 4 50 50 50 50 50 10 50 50 22 12 50
        94 12 78 10 78 6 78 26 78 78 78 20 78 78 78 60 78
        33 8 46 6 24 4 46 8 46 46 46 12 46 46 46 14 46
        90 6 74 6 86 4 82 66 82 74 82 12 68 86 48 42 86
        65 12 62 10 72 6 80 44 70 62 80 22 80 68 60 42 82
        28 8 34 6 26 4 18 8 34 34 18 12 18 14 34 34 34
        56 12 54 10 50 6 38 20 54 54 38 20 38 56 54 46 46
        68 6 36 6 36 4 44 30 34 32 50 12 44 34 40 36 36
        62 12 66 10 58 6 58 48 52 66 58 20 54 64 46 24 74
        47 6 42 6 40 4 20 16 32 40 20 10 20 40 32 32 36
        53 12 36 10 40 6 60 44 48 36 64 20 60 64 34 24 42
        32 6 36 6 34 4 22 24 24 36 22 10 20 36 16 12 36
        270 16 166 14 128 6 128 78 132 154 152 24 136 168 128 102 174
        """,
        "67233e33a0c23d3d5effd7b547232e4db48084e3d1eb35f9"
        "bf173c02170dd6ef",
    ),
    "chain": (
        lambda: chain_lineage(random.Random(3), length=8, width=3),
        """
        24 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16
        53 34 10 34 34 34 34 34 34 34 34 34 34 34 34 34 34
        29 8 4 36 16 36 36 36 36 36 36 36 36 36 36 36 36
        43 12 6 20 40 54 38 54 54 54 54 54 54 54 54 54 54
        27 6 4 12 10 38 22 38 38 38 38 38 38 38 38 38 38
        52 10 6 22 24 38 50 74 62 74 74 74 74 74 74 74 74
        25 6 4 6 12 12 10 34 22 34 34 34 34 34 34 34 34
        28 6 4 12 10 18 16 40 28 40 40 40 40 40 40 40 40
        71 10 6 20 28 44 40 68 78 108 100 108 108 108 108 108 108
        26 6 4 12 10 18 16 18 36 36 28 36 36 36 36 36 36
        26 6 4 12 10 12 18 18 16 36 28 36 36 36 36 36 36
        26 6 4 6 12 12 10 18 16 36 28 36 36 36 36 36 36
        29 6 4 12 10 18 16 24 22 42 34 42 42 42 42 42 42
        98 10 6 20 26 40 44 76 74 116 116 156 152 156 156 156 156
        24 6 4 6 12 12 10 18 16 18 32 32 28 32 32 32 32
        27 6 4 12 10 18 16 24 22 24 38 38 34 38 38 38 38
        24 6 4 6 12 12 10 12 18 18 16 32 28 32 32 32 32
        27 6 4 12 10 18 16 18 24 24 22 38 34 38 38 38 38
        27 6 4 12 10 12 18 18 16 24 22 38 34 38 38 38 38
        27 6 4 6 12 12 10 18 16 24 22 38 34 38 38 38 38
        30 6 4 12 10 18 16 24 22 30 28 44 40 44 44 44 44
        289 14 6 20 30 44 46 74 90 138 148 248 208 304 284 336 336
        """,
        "4ed3f8ac008c75d190a080358895e882019f245033790cf6"
        "ff21765764ac6845",
    ),
}


class TestPinnedBilling:
    """The work and the bounds of each call, pinned to recorded values.

    ``tests/test_anytime_schedule.py`` pins run totals, which two billing
    errors that cancel would pass; here each call's units must match.
    """

    @pytest.mark.parametrize("name", sorted(BILLED))
    def test_every_call_matches_the_record(self, name):
        make, units, digest = BILLED[name]
        function = make()
        compiler = IncrementalCompiler(function)
        variables = sorted(function.variables)
        seen_units, seen_bounds = [], []
        while True:
            row = []
            for variable in variables:
                meter = WorkMeter()
                bounds = bounds_for_variable(compiler.root, variable, meter)
                row.append(meter.units)
                seen_bounds.append((bounds.banzhaf_lower, bounds.count_lower,
                                    bounds.banzhaf_upper, bounds.count_upper))
            seen_units.append(tuple(row))
            if compiler.is_complete():
                break
            compiler.expand_step(lazy=True)
        assert seen_units == [tuple(map(int, line.split()))
                              for line in units.split("\n") if line.strip()]
        assert hashlib.sha256(
            repr(seen_bounds).encode()).hexdigest() == digest


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
