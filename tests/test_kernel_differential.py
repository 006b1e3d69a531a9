"""Differential tests: the bitset kernel against definitional oracles.

Every hot DNF operation runs on the bitset kernel.  These tests run each
one on Hypothesis-generated random DNFs and check the result against a
definition computed here from the frozenset clause view: truth tables
over the stated result domain, clause-set identities, partition and
maximality properties, brute-force model counts and Banzhaf values.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from hypothesis import example, given, settings

from dnf_strategies import small_dnfs
from repro.baselines.brute_force import banzhaf_all_brute_force
from repro.boolean.assignments import count_models
from repro.boolean.dnf import DNF, ConstantTrue
from repro.boolean.idnf import idnf_model_count, is_idnf, lower_idnf, upper_idnf
from repro.boolean.operations import (
    factor_common_variables,
    independent_components,
    shannon_expansion,
)
from repro.core.exaban import exaban_all
from repro.dtree.compile import compile_dnf
from repro.dtree.heuristics import select_max_depth_reduction, select_most_frequent
from repro.engine.canonical import canonicalize


def _assignments(domain):
    """Every assignment over ``domain``, as the frozenset of true variables."""
    variables = sorted(domain)
    for size in range(len(variables) + 1):
        for subset in combinations(variables, size):
            yield frozenset(subset)


def _holds(function: DNF, assignment) -> bool:
    """Definitional evaluation straight off the clause set."""
    return any(clause <= assignment for clause in function.clauses)


def _run(operation):
    """Call ``operation``, capturing a :class:`ConstantTrue` as its domain."""
    try:
        return operation(), None
    except ConstantTrue as constant:
        return None, constant.domain


def _assert_restriction(result, true_domain, original: DNF, domain,
                        forced) -> None:
    """``result`` is ``original`` with ``forced`` set to 1, over ``domain``.

    ``result``/``true_domain`` come from :func:`_run`: either a DNF whose
    truth table over ``domain`` matches, or a raised :class:`ConstantTrue`
    whose carried domain is ``domain`` and whose function is constant 1.
    """
    domain = frozenset(domain)
    if result is None:
        assert true_domain == domain
        assert all(_holds(original, assignment | forced)
                   for assignment in _assignments(domain))
        return
    assert result.domain == domain
    for assignment in _assignments(domain):
        assert _holds(result, assignment) == \
            _holds(original, assignment | forced), assignment


def _clause_groups(clauses):
    """Connected components of the clause graph (clauses sharing variables)."""
    remaining = list(clauses)
    groups = []
    while remaining:
        group = [remaining.pop()]
        support = set(group[0])
        grown = True
        while grown:
            grown = False
            for clause in list(remaining):
                if clause & support:
                    remaining.remove(clause)
                    group.append(clause)
                    support |= clause
                    grown = True
        groups.append(group)
    return groups


def _is_read_once(function: DNF) -> bool:
    """No variable occurs in two clauses."""
    occurring = set()
    for clause in function.clauses:
        occurring |= clause
    return sum(len(clause) for clause in function.clauses) == len(occurring)


class TestOperationDifferential:
    @settings(max_examples=120, deadline=None)
    @given(small_dnfs())
    def test_absorb(self, function):
        minimal = {clause for clause in function.clauses
                   if not any(other < clause for other in function.clauses)}
        absorbed = function.absorb()
        assert absorbed.clauses == minimal
        assert absorbed.domain == function.domain

    @settings(max_examples=120, deadline=None)
    @given(small_dnfs())
    def test_cofactor_both_values(self, function):
        for variable in sorted(function.domain):
            rest = function.domain - {variable}
            for value in (False, True):
                result, true_domain = _run(
                    lambda: function.cofactor(variable, value))
                if not value:
                    assert true_domain is None
                forced = frozenset({variable}) if value else frozenset()
                _assert_restriction(result, true_domain, function, rest,
                                    forced)

    @settings(max_examples=120, deadline=None)
    @given(small_dnfs())
    def test_factor_common_variables(self, function):
        clauses = iter(function.clauses)
        expected_common = frozenset(next(clauses)).intersection(*clauses)
        factored, true_domain = _run(
            lambda: factor_common_variables(function))
        if factored is None:
            residual = None
        else:
            common, residual = factored
            assert common == expected_common
        if not expected_common:
            assert residual is function
            return
        # f == AND(common) & residual, with the residual over domain - common.
        _assert_restriction(residual, true_domain, function,
                            function.domain - expected_common,
                            expected_common)

    @settings(max_examples=120, deadline=None)
    @given(small_dnfs())
    def test_independent_components(self, function):
        components = independent_components(function)
        # A partition of the clauses...
        seen = [clause for component in components
                for clause in component.clauses]
        assert len(seen) == len(function.clauses)
        assert set(seen) == function.clauses
        supports = []
        for component in components:
            support = frozenset().union(*component.clauses)
            # ...each group over exactly its own variables...
            assert component.domain == support
            # ...connected...
            assert len(_clause_groups(component.clauses)) == 1
            supports.append(support)
        # ...and pairwise variable-disjoint.
        assert sum(map(len, supports)) == len(frozenset().union(*supports))

    @settings(max_examples=120, deadline=None)
    @given(small_dnfs())
    def test_kernel_built_dnfs_equal_rebuilt(self, function):
        """Every kernel surgery's output upholds the sorted-mask invariant.

        Mask-tuple equality over equal orders must be clause-set equality,
        so each derived DNF must compare equal (both directions, and as a
        dict key) to a fresh DNF built from its clause view.
        """
        derived = list(independent_components(function))
        derived.append(function.absorb())
        derived.append(function.restricted_domain())
        try:
            derived.append(factor_common_variables(function)[1])
        except ConstantTrue:
            pass
        for variable in sorted(function.domain):
            try:
                derived.append(function.cofactor(variable, True))
            except ConstantTrue:
                pass
            derived.append(function.cofactor(variable, False))
        for result in derived:
            rebuilt = DNF(result.sorted_clauses(), domain=result.domain)
            assert result == rebuilt and rebuilt == result
            assert hash(result) == hash(rebuilt)
            assert {result: 1}.get(rebuilt) == 1

    def test_bridge_merge_components_stay_normalized(self):
        # Clause {0, 2} bridges the earlier {0} and {2} components: the
        # folded group's masks must come back sorted, or the component's
        # kernel breaks the ascending-mask invariant and equality with an
        # independently built equal DNF fails.
        function = DNF([[0], [2], [0, 2], [3]], domain=[0, 1, 2, 3])
        components = independent_components(function)
        bridged = next(c for c in components if 0 in c.variables)
        rebuilt = DNF(bridged.sorted_clauses(), domain=bridged.domain)
        assert bridged == rebuilt and rebuilt == bridged
        assert {bridged: 1}.get(rebuilt) == 1

    @settings(max_examples=120, deadline=None)
    @given(small_dnfs())
    def test_shannon_expansion(self, function):
        variable = min(function.domain)
        rest = function.domain - {variable}
        expansion, true_domain = _run(
            lambda: shannon_expansion(function, variable))
        if expansion is None:
            positive = negative = None
        else:
            positive, negative = expansion
        _assert_restriction(positive, true_domain, function, rest,
                            frozenset({variable}))
        if negative is not None:
            _assert_restriction(negative, None, function, rest, frozenset())

    @settings(max_examples=120, deadline=None)
    @given(small_dnfs())
    def test_accessors(self, function):
        clauses = function.clauses
        occurring = frozenset().union(*clauses)
        probes = sorted(function.domain) + [max(function.domain) + 7]
        assert function.variables == occurring
        assert function.silent_variables() == function.domain - occurring
        assert function.common_variables() == \
            frozenset(next(iter(clauses))).intersection(*clauses)
        assert function.variable_frequencies() == dict(
            Counter(variable for clause in clauses for variable in clause))
        assert function.sorted_clauses() == tuple(
            sorted(tuple(sorted(clause)) for clause in clauses))
        assert function.size() == sum(len(clause) for clause in clauses)
        assert function.num_clauses() == len(clauses)
        assert function.is_single_literal() == (
            len(clauses) == 1 and len(next(iter(clauses))) == 1)
        assert [function.contains_variable(v) for v in probes] == \
            [any(v in clause for clause in clauses) for v in probes]
        assert function.restricted_domain() == DNF(clauses, domain=occurring)

    @settings(max_examples=120, deadline=None)
    @given(small_dnfs())
    def test_idnf_syntheses(self, function):
        lower = lower_idnf(function)
        upper = upper_idnf(function)
        assert is_idnf(function) == _is_read_once(function)
        for synthesis in (lower, upper):
            assert _is_read_once(synthesis) and is_idnf(synthesis)
            assert synthesis.domain == function.domain
            assert idnf_model_count(synthesis) == count_models(synthesis)
        # L is a maximal variable-disjoint subset of the clauses.
        assert lower.clauses <= function.clauses
        used = frozenset().union(*lower.clauses)
        assert all(clause & used for clause in function.clauses)
        # U has a subclause of every clause (so every model of phi is one).
        assert all(any(kept <= clause for kept in upper.clauses)
                   for clause in function.clauses)
        assert count_models(lower) <= count_models(function) \
            <= count_models(upper)

    @settings(max_examples=120, deadline=None)
    @given(small_dnfs())
    # Splitting beats frequency here: x2 occurs most, x3 disconnects more.
    @example(DNF([[0, 2, 4], [1, 3], [2, 3, 4], [2, 4]], domain=range(5)))
    def test_heuristics(self, function):
        frequencies = Counter(variable for clause in function.clauses
                              for variable in clause)
        ranked = sorted(frequencies, key=lambda v: (-frequencies[v], v))
        assert select_most_frequent(function) == ranked[0]

        def split_key(variable):
            reduced = [clause - {variable} for clause in function.clauses
                       if clause - {variable}]
            return (len(_clause_groups(reduced)), frequencies[variable],
                    -variable)

        assert select_max_depth_reduction(function) == \
            max(ranked[:8], key=split_key)

    @settings(max_examples=60, deadline=None)
    @given(small_dnfs())
    def test_exact_banzhaf_end_to_end(self, function):
        assert exaban_all(compile_dnf(function)) == \
            banzhaf_all_brute_force(function)

    @settings(max_examples=60, deadline=None)
    @given(small_dnfs())
    def test_iterative_passes_match_seed_recursive(self, function):
        """Fused iterative passes == the seed recursive reference passes."""
        from repro.core import reference as seed
        from repro.core.exaban import exaban, model_count
        from repro.core.shapley import shapley_all

        tree = compile_dnf(function)
        assert model_count(tree) == seed.model_count_recursive(tree)
        assert exaban_all(tree) == seed.exaban_all_recursive(tree)
        for variable in sorted(function.domain):
            assert exaban(tree, variable) == \
                seed.exaban_recursive(tree, variable)
        assert shapley_all(function, tree=tree) == \
            seed.shapley_all_recursive(function, tree)

    @settings(max_examples=60, deadline=None)
    @given(small_dnfs())
    def test_canonical_key_stable_across_kernels(self, function):
        lineage = canonicalize(function)
        n = function.num_variables()
        assert sorted(lineage.to_canonical) == sorted(function.domain)
        assert sorted(lineage.to_canonical.values()) == list(range(n))
        assert lineage.from_canonical == {
            index: variable
            for variable, index in lineage.to_canonical.items()}
        renamed = DNF([[lineage.to_canonical[v] for v in clause]
                       for clause in function.clauses], domain=range(n))
        assert lineage.dnf == renamed and renamed == lineage.dnf
        assert hash(lineage.dnf) == hash(renamed)
        assert lineage.key == (n, renamed.sorted_clauses())


class TestLazyViews:
    def test_kernel_built_dnf_materializes_clauses(self):
        lineage = canonicalize(DNF([[3, 5], [5, 9]], domain=[1, 3, 5, 9]))
        canonical_dnf = lineage.dnf
        # Built mask-first by canonicalize: the frozenset view must agree.
        assert canonical_dnf.clauses == frozenset(
            frozenset(clause) for clause in lineage.key[1])
        assert canonical_dnf == DNF(lineage.key[1],
                                    domain=range(len(lineage.to_canonical)))
        assert hash(canonical_dnf) == hash(
            DNF(lineage.key[1], domain=range(len(lineage.to_canonical))))
