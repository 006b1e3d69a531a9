"""Tests for d-tree nodes, the exhaustive compiler and the incremental compiler."""

import random

import pytest
from hypothesis import example, given, settings

from repro.boolean.assignments import count_models, enumerate_assignments
from repro.boolean.dnf import DNF
from repro.core.exaban import model_count
from repro.dtree.compile import (
    CompilationBudget,
    CompilationLimitReached,
    compile_dnf,
)
from repro.dtree.heuristics import (
    HEURISTICS,
    select_first,
    select_max_depth_reduction,
    select_most_frequent,
)
from repro.dtree.incremental import IncrementalCompiler, node_for
from repro.dtree.nodes import (
    DecompAnd,
    DecompOr,
    DNFLeaf,
    ExclusiveOr,
    FalseLeaf,
    LiteralLeaf,
    TrueLeaf,
    pretty_print,
)
from repro.dtree.serialize import decode_tree, encode_tree, trees_equal
from repro.engine.artifact import CompiledLineage, complete_compilation
from repro.workloads.generators import bipartite_lineage, random_positive_dnf

from dnf_strategies import SHARING_DNF, shannon_dnfs, unfolded_count


class TestNodes:
    def test_leaf_domains(self):
        assert TrueLeaf([1, 2]).domain == frozenset({1, 2})
        assert FalseLeaf().domain == frozenset()
        assert LiteralLeaf(3).domain == frozenset({3})

    def test_literal_evaluation(self):
        assert LiteralLeaf(1).evaluate(frozenset({1}))
        assert not LiteralLeaf(1).evaluate(frozenset())
        assert LiteralLeaf(1, negated=True).evaluate(frozenset())

    def test_inner_node_domain_union(self):
        node = DecompAnd([LiteralLeaf(1), LiteralLeaf(2)])
        assert node.domain == frozenset({1, 2})
        assert not node.is_leaf()
        assert node.num_nodes() == 3

    def test_parent_pointers(self):
        left, right = LiteralLeaf(1), LiteralLeaf(2)
        node = DecompOr([left, right])
        assert left.parent is node
        assert right.parent is node

    def test_replace_child(self):
        left, right = LiteralLeaf(1), LiteralLeaf(2)
        node = DecompOr([left, right])
        replacement = LiteralLeaf(1, negated=True)
        node.replace_child(left, replacement)
        assert replacement.parent is node
        assert left.parent is None
        with pytest.raises(ValueError):
            node.replace_child(left, replacement)

    def test_validate_disjointness(self):
        node = DecompAnd([LiteralLeaf(1), LiteralLeaf(1)])
        with pytest.raises(ValueError):
            node.validate()

    def test_validate_exclusive_domains(self):
        node = ExclusiveOr([LiteralLeaf(1), LiteralLeaf(2)])
        with pytest.raises(ValueError):
            node.validate()

    def test_dnf_leaf_rejects_trivial(self):
        with pytest.raises(ValueError):
            DNFLeaf(DNF.false([0]))
        with pytest.raises(ValueError):
            DNFLeaf(DNF([[0]]))

    def test_invalidate_clears_ancestor_caches(self):
        leaf = LiteralLeaf(1)
        node = DecompAnd([leaf, LiteralLeaf(2)])
        node.cache_set("k", 1)
        leaf.cache_set("k", 2)
        leaf.invalidate()
        assert node.cache_get("k") is None
        assert leaf.cache_get("k") is None

    def test_pretty_print(self):
        node = DecompAnd([LiteralLeaf(1), LiteralLeaf(2)])
        text = pretty_print(node)
        assert "⊙" in text and "x1" in text


def _assert_equivalent(tree, function: DNF) -> None:
    for assignment in enumerate_assignments(function.domain):
        assert tree.evaluate(assignment) == function.evaluate(assignment)


class TestCompile:
    def test_example9_tree_is_complete(self, example9_dnf):
        tree = compile_dnf(example9_dnf)
        assert tree.is_complete()
        tree.validate()
        assert tree.domain == example9_dnf.domain

    def test_compilation_preserves_semantics(self, rng):
        for _ in range(40):
            function = random_positive_dnf(rng, rng.randint(1, 6),
                                           rng.randint(1, 6), (1, 3))
            tree = compile_dnf(function)
            tree.validate()
            assert tree.is_complete()
            _assert_equivalent(tree, function)

    def test_compilation_preserves_model_count(self, rng):
        for _ in range(40):
            function = random_positive_dnf(rng, rng.randint(1, 7),
                                           rng.randint(1, 6), (1, 3))
            assert model_count(compile_dnf(function)) == count_models(function)

    def test_false_and_literal(self):
        assert isinstance(compile_dnf(DNF.false([0, 1])), FalseLeaf)
        assert isinstance(compile_dnf(DNF([[5]])), LiteralLeaf)

    def test_silent_variables_get_true_leaf(self):
        tree = compile_dnf(DNF([[0]], domain=[0, 1, 2]))
        assert tree.domain == frozenset({0, 1, 2})
        assert model_count(tree) == 4

    def test_absorption_before_decomposition(self):
        # (x0) absorbs (x0 & x1): variable x1 becomes silent.
        function = DNF([[0], [0, 1]])
        tree = compile_dnf(function)
        assert tree.domain == frozenset({0, 1})
        assert model_count(tree) == 2

    def test_hierarchical_lineage_needs_no_shannon(self):
        # Lineage of a hierarchical query decomposes by factoring/partitioning.
        budget = CompilationBudget(max_shannon_steps=0)
        function = DNF([[0, 1, 4], [0, 2, 4], [0, 3, 4]])
        tree = compile_dnf(function, budget=budget)
        assert tree.is_complete()

    def test_non_hierarchical_needs_shannon(self):
        budget = CompilationBudget(max_shannon_steps=0)
        function = DNF([[0, 1], [1, 2], [2, 3]])
        with pytest.raises(CompilationLimitReached):
            compile_dnf(function, budget=budget)

    def test_budget_counts_shannon_steps(self):
        budget = CompilationBudget()
        compile_dnf(DNF([[0, 1], [1, 2], [2, 3]]), budget=budget)
        assert budget.shannon_steps >= 1

    def test_all_heuristics_produce_equivalent_trees(self, rng):
        function = random_positive_dnf(rng, 6, 6, (2, 3))
        for heuristic in HEURISTICS.values():
            tree = compile_dnf(function, heuristic=heuristic)
            _assert_equivalent(tree, function)


class TestHeuristics:
    def test_most_frequent(self):
        function = DNF([[0, 1], [0, 2], [3]])
        assert select_most_frequent(function) == 0

    def test_most_frequent_tie_break(self):
        assert select_most_frequent(DNF([[1, 2]])) == 1

    def test_first(self):
        assert select_first(DNF([[5, 3]])) == 3

    def test_max_split_prefers_articulation_variable(self):
        # Removing x2 splits the clause graph into two components.
        function = DNF([[0, 2], [1, 2], [2, 3], [2, 4]])
        assert select_max_depth_reduction(function) == 2

    def test_heuristics_reject_constants(self):
        with pytest.raises(ValueError):
            select_most_frequent(DNF.false([0]))
        with pytest.raises(ValueError):
            select_first(DNF.false([0]))


class TestIncremental:
    def test_node_for_trivial_cases(self):
        assert isinstance(node_for(DNF.false([0])), FalseLeaf)
        assert isinstance(node_for(DNF([[3]])), LiteralLeaf)
        wide = node_for(DNF([[3]], domain=[3, 4]))
        assert isinstance(wide, DecompAnd)
        assert wide.domain == frozenset({3, 4})
        assert isinstance(node_for(DNF([[0, 1], [2]])), DNFLeaf)

    def test_initial_state(self, example9_dnf):
        compiler = IncrementalCompiler(example9_dnf)
        assert not compiler.is_complete()
        assert len(compiler.nontrivial_leaves()) == 1

    def test_expansion_reaches_completion(self, example9_dnf):
        compiler = IncrementalCompiler(example9_dnf)
        complete_compilation(compiler, CompilationBudget())
        assert compiler.is_complete()
        compiler.root.validate()
        assert model_count(compiler.root) == count_models(example9_dnf)

    def test_expansion_preserves_semantics(self, rng):
        for _ in range(25):
            function = random_positive_dnf(rng, rng.randint(2, 6),
                                           rng.randint(1, 6), (1, 3))
            compiler = IncrementalCompiler(function)
            steps = 0
            while not compiler.is_complete() and steps < 200:
                compiler.expand_step(lazy=False)
                steps += 1
                _assert_equivalent(compiler.root, function)

    def test_lazy_step_stops_at_shannon(self):
        function = DNF([[0, 1], [1, 2], [2, 3]])
        compiler = IncrementalCompiler(function)
        compiler.expand_step(lazy=True)
        assert compiler.shannon_steps == 1

    def test_expand_step_on_complete_tree_is_noop(self):
        compiler = IncrementalCompiler(DNF([[0]]))
        assert compiler.is_complete()
        assert compiler.expand_step() is False

    def test_open_leaf_tracking_matches_tree(self, rng):
        function = random_positive_dnf(rng, 6, 8, (2, 3))
        compiler = IncrementalCompiler(function)
        while not compiler.is_complete():
            compiler.expand_step(lazy=False)
            tracked = set(compiler.nontrivial_leaves())
            actual = {leaf for leaf in compiler.root.iter_leaves()
                      if isinstance(leaf, DNFLeaf)}
            assert tracked == actual

    def test_tied_leaves_expand_in_insertion_order(self):
        # Variable-disjoint components of one shape: after the split every
        # open leaf ties on priority, so the earliest-opened one must win
        # (not whichever a memory-address-ordered set yields first).
        function = DNF([clause for base in range(0, 48, 3)
                        for clause in ([base, base + 1],
                                       [base + 1, base + 2])])
        compiler = IncrementalCompiler(function)
        compiler.expand_step(lazy=False)
        tied = [leaf for leaf in compiler.root.iter_leaves()
                if isinstance(leaf, DNFLeaf)]
        assert len(tied) == 16
        assert len({leaf.priority for leaf in tied}) == 1
        for leaf in tied:
            assert compiler.pick_leaf() is leaf
            compiler.expand_step(lazy=False)


class TestShannonBudget:
    """``max_shannon_steps=N`` allows at most N Shannon expansions per
    attempt, whether the compilation is fresh or resumed."""

    # Needs 13 Shannon expansions in all.
    FUNCTION = bipartite_lineage(random.Random(3), left=8, right=12,
                                 density=0.35)

    def test_fresh_compilation_performs_n(self):
        budget = CompilationBudget(max_shannon_steps=5)
        with pytest.raises(CompilationLimitReached):
            compile_dnf(self.FUNCTION, budget=budget)
        assert budget.shannon_steps == 6  # five performed, the sixth refused
        compiler = IncrementalCompiler(self.FUNCTION)
        with pytest.raises(CompilationLimitReached):
            complete_compilation(compiler,
                                 CompilationBudget(max_shannon_steps=5))
        assert compiler.shannon_steps == 5

    def test_resumed_compilation_performs_n(self):
        compiler = IncrementalCompiler(self.FUNCTION)
        compiler.expand_step()
        assert compiler.shannon_steps == 1
        resumed = CompiledLineage.from_compiler(compiler).resume_compiler()
        with pytest.raises(CompilationLimitReached):
            complete_compilation(resumed,
                                 CompilationBudget(max_shannon_steps=5))
        assert resumed.shannon_steps == 1 + 5

    def test_a_budget_of_the_work_left_suffices(self):
        total = CompilationBudget()
        expected = compile_dnf(self.FUNCTION, budget=total)
        compiler = IncrementalCompiler(self.FUNCTION)
        compiler.expand_step()
        complete_compilation(compiler, CompilationBudget(
            max_shannon_steps=total.shannon_steps - 1))
        assert compiler.shannon_steps == total.shannon_steps
        assert trees_equal(compiler.root, expected)

    def test_open_leaves_completed_together_share_sub_functions(self):
        # Exhausted after 3 of its 9 expansions, this lineage leaves open
        # leaves whose compilations repeat a sub-function.  Completed with
        # one memo, the resume expands it once: 9 in all, not 10.
        fresh = CompilationBudget()
        compile_dnf(SHARING_DNF, budget=fresh)
        compiler = IncrementalCompiler(SHARING_DNF)
        with pytest.raises(CompilationLimitReached):
            complete_compilation(compiler,
                                 CompilationBudget(max_shannon_steps=3))
        resumed = CompiledLineage.from_compiler(compiler).resume_compiler()
        assert len(resumed.nontrivial_leaves()) > 1
        complete_compilation(resumed, CompilationBudget())
        assert resumed.shannon_steps == fresh.shannon_steps == 9


def _dnf_leaves(root):
    return {leaf for leaf in root.iter_leaves() if isinstance(leaf, DNFLeaf)}


def _exhausts(compile_call) -> bool:
    try:
        compile_call()
    except CompilationLimitReached:
        return True
    return False


@settings(max_examples=60, deadline=None)
@given(function=shannon_dnfs())
@example(function=SHARING_DNF)
def test_exhausted_compilation_leaves_a_resumable_tree(function):
    """Under every budget of 0-5 Shannon steps, a compilation either
    completes or leaves a valid partial d-tree of the lineage, whose
    completion is ``compile_dnf``'s tree; ``compile_dnf`` exhausts the
    same budgets.

    ``compile_dnf`` expands each distinct sub-function once.  A resume
    cannot reuse subtrees the exhausted attempt finished, so it may
    expand more, but never more than the unfolded tree holds."""
    total = CompilationBudget()
    expected = compile_dnf(function, budget=total)
    assert total.shannon_steps == sum(
        isinstance(node, ExclusiveOr) for node in expected.iter_nodes())
    unfolded = unfolded_count(expected, ExclusiveOr)
    for steps in range(6):
        compiler = IncrementalCompiler(function)
        exhausted = _exhausts(lambda: complete_compilation(
            compiler, CompilationBudget(max_shannon_steps=steps)))
        assert exhausted == _exhausts(lambda: compile_dnf(
            function, budget=CompilationBudget(max_shannon_steps=steps)))
        assert exhausted == (total.shannon_steps > steps)
        assert compiler.is_complete() is not exhausted
        assert compiler.shannon_steps == min(steps, total.shannon_steps)
        tree = compiler.root
        tree.validate()
        _assert_equivalent(tree, function)
        assert set(compiler.nontrivial_leaves()) == _dnf_leaves(tree)
        assert trees_equal(decode_tree(encode_tree(tree)), tree)
        resumed = CompiledLineage.from_compiler(compiler).resume_compiler()
        complete_compilation(resumed, CompilationBudget())
        assert trees_equal(resumed.root, expected)
        assert total.shannon_steps <= resumed.shannon_steps <= unfolded
