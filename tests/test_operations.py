"""Tests for structural DNF operations (factoring, components, Shannon)."""

import pytest

from repro.boolean.assignments import count_models
from repro.boolean.dnf import DNF, ConstantTrue
from repro.boolean.operations import (
    condition,
    factor_common_variables,
    independent_components,
    is_independent,
    is_mutually_exclusive,
    shannon_expansion,
)


class TestIndependence:
    def test_is_independent(self):
        assert is_independent(DNF([[0]]), DNF([[1]]))
        assert not is_independent(DNF([[0, 1]]), DNF([[1, 2]]))

    def test_clause_components(self):
        clauses = [frozenset({0, 1}), frozenset({1, 2}), frozenset({3})]
        components = independent_components(DNF(clauses))
        sizes = sorted(c.num_clauses() for c in components)
        assert sizes == [1, 2]

    def test_independent_components_split(self):
        function = DNF([[0, 1], [2, 3]])
        components = independent_components(function)
        assert len(components) == 2
        assert {c.variables for c in components} == {
            frozenset({0, 1}), frozenset({2, 3})
        }

    def test_independent_components_connected(self):
        function = DNF([[0, 1], [1, 2]])
        assert len(independent_components(function)) == 1

    def test_independent_components_of_false(self):
        false = DNF.false([0])
        assert independent_components(false) == [false]


class TestMutualExclusion:
    def test_shannon_branches_are_mutually_exclusive(self):
        function = DNF([[0, 1], [0, 2], [1, 2]])
        # x0 & phi[x0:=1] vs ~x0 & phi[x0:=0] can never be satisfied together;
        # here we check the weaker property on the cofactors conjoined with
        # the literal clauses explicitly.
        left = DNF([[0, 1], [0, 2]])
        right = DNF([[1, 2]], domain=[0, 1, 2])
        assert not is_mutually_exclusive(left, left)
        assert is_mutually_exclusive(DNF([[0]]), DNF.false([0]))

    def test_disjoint_models(self):
        # x & y vs exactly-one-of constructions.
        assert is_mutually_exclusive(DNF([[0, 1]]), DNF.false([0, 1]))


class TestFactoring:
    def test_factor_common_variables(self):
        function = DNF([[0, 1], [0, 2]])
        common, residual = factor_common_variables(function)
        assert common == frozenset({0})
        assert residual == DNF([[1], [2]])

    def test_factor_no_common(self):
        function = DNF([[0, 1], [2]])
        common, residual = factor_common_variables(function)
        assert common == frozenset()
        assert residual is function

    def test_factor_constant_true(self):
        function = DNF([[0], [0, 1]])
        # The clause {0} consists solely of common variables.
        with pytest.raises(ConstantTrue):
            factor_common_variables(function)


class TestShannon:
    def test_shannon_expansion_cofactors(self):
        function = DNF([[0, 1], [2]])
        positive, negative = shannon_expansion(function, 0)
        assert positive == DNF([[1], [2]])
        assert negative == DNF([[2]], domain=[1, 2])

    def test_shannon_preserves_model_count(self):
        function = DNF([[0, 1], [1, 2], [0, 2]])
        positive, negative = shannon_expansion(function, 1)
        assert count_models(function) == count_models(positive) + count_models(negative)

    def test_shannon_unknown_variable(self):
        with pytest.raises(ValueError):
            shannon_expansion(DNF([[0]]), 9)

    def test_shannon_constant_true_propagates(self):
        function = DNF([[0], [1, 2]])
        with pytest.raises(ConstantTrue):
            shannon_expansion(function, 0)


class TestCondition:
    def test_condition_multiple(self):
        function = DNF([[0, 1], [2, 3]])
        result = condition(function, trues=[0], falses=[2])
        assert result == DNF([[1]], domain=[1, 3])

    def test_condition_ignores_missing_variables(self):
        function = DNF([[0]])
        assert condition(function, trues=[], falses=[9]) == function
