"""Tests for iDNF functions and the L/U bound synthesis (Proposition 12)."""

import random

import pytest

from repro.boolean.assignments import count_models
from repro.boolean.dnf import DNF
from repro.boolean.idnf import (
    IDNF,
    idnf_model_count,
    is_idnf,
    lower_idnf,
    upper_idnf,
)
from repro.workloads.generators import random_positive_dnf


class TestIsIdnf:
    def test_detects_idnf(self):
        assert is_idnf(DNF([[0, 1], [2]]))
        assert is_idnf(DNF([[0]]))
        assert is_idnf(DNF.false([0, 1]))

    def test_detects_repetition(self):
        assert not is_idnf(DNF([[0, 1], [0, 2]]))


class TestIdnfModelCount:
    def test_single_clause(self):
        assert idnf_model_count(DNF([[0, 1]])) == 1

    def test_disjoint_clauses(self):
        # (x & y) | z over 3 vars: non-models = 3 * 1 = 3 -> 5 models.
        assert idnf_model_count(DNF([[0, 1], [2]])) == 5

    def test_silent_variables(self):
        assert idnf_model_count(DNF([[0]], domain=[0, 1])) == 2

    def test_false(self):
        assert idnf_model_count(DNF.false([0, 1])) == 0

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            width = rng.randint(1, 3)
            clauses = []
            variable = 0
            for _ in range(rng.randint(1, 4)):
                clause = list(range(variable, variable + rng.randint(1, width)))
                variable = clause[-1] + 1
                clauses.append(clause)
            function = DNF(clauses, domain=range(variable + rng.randint(0, 2)))
            assert idnf_model_count(function) == count_models(function)

    def test_rejects_non_idnf(self):
        with pytest.raises(ValueError):
            idnf_model_count(DNF([[0, 1], [0, 2]]))

    def test_idnf_wrapper_class(self):
        wrapped = IDNF(DNF([[0], [1, 2]]))
        assert wrapped.model_count() == count_models(wrapped.dnf)
        with pytest.raises(ValueError):
            IDNF(DNF([[0, 1], [0, 2]]))


class TestSynthesis:
    def test_example13_bounds(self):
        # phi = (x & y) | (x & z) | u : #phi = 11.
        function = DNF([[0, 1], [0, 2], [3]])
        lower = lower_idnf(function)
        upper = upper_idnf(function)
        assert is_idnf(lower)
        assert is_idnf(upper)
        assert idnf_model_count(lower) <= 11 <= idnf_model_count(upper)

    def test_lower_is_subset_of_clauses(self):
        function = DNF([[0, 1], [0, 2], [3]])
        assert lower_idnf(function).clauses <= function.clauses

    def test_upper_preserves_domain(self):
        function = DNF([[0, 1], [0, 2]], domain=[0, 1, 2, 5])
        assert upper_idnf(function).domain == function.domain
        assert lower_idnf(function).domain == function.domain

    def test_bounds_sandwich_random(self, rng):
        for _ in range(40):
            function = random_positive_dnf(rng, rng.randint(2, 7),
                                           rng.randint(1, 6), (1, 3))
            exact = count_models(function)
            assert idnf_model_count(lower_idnf(function)) <= exact
            assert exact <= idnf_model_count(upper_idnf(function))

    def test_idnf_is_its_own_bound(self):
        function = DNF([[0, 1], [2]])
        assert idnf_model_count(lower_idnf(function)) == count_models(function)
        assert idnf_model_count(upper_idnf(function)) == count_models(function)

    @pytest.mark.parametrize("clauses", [
        [[0, 1, 4], [0], [2, 3, 5], [2, 4, 5], [3, 4, 5]],
        [[0], [1, 5], [2, 3, 4], [2, 4, 5], [3, 4, 5]],
        [[0, 1, 4], [0, 3, 4], [1, 3, 4], [2, 3]],
    ])
    def test_upper_covers_clauses_after_a_weakening(self, clauses):
        # A weakening frees variables; a later clause whose first variable
        # is one of them still needs a subclause in U.
        function = DNF(clauses)
        upper = upper_idnf(function)
        assert is_idnf(upper)
        assert all(any(kept <= clause for kept in upper.clauses)
                   for clause in function.clauses)
        assert idnf_model_count(upper) >= count_models(function)

    def test_upper_handles_fully_covered_clause(self):
        # The clause (y & z) shares all variables with previously kept clauses.
        function = DNF([[0, 1], [0, 2], [1, 2]])
        upper = upper_idnf(function)
        assert is_idnf(upper)
        assert idnf_model_count(upper) >= count_models(function)
