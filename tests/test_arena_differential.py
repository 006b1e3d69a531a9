"""Differential tests: the arena backend against the recursive oracle.

The struct-of-arrays arena (:mod:`repro.dtree.arena`) implements the
fused counting, Banzhaf and Shapley passes as index loops over
postorder columns.  This module pins their core contract --
**bit-identical results** -- by fuzzing random DNFs through the arena and
the recursive seed reference (:mod:`repro.core.reference`), checks the
ranking tier's enclosures and order against ExaBan on tie-rich instances,
and covers the shapes the column layout is most likely to get wrong:
DAGs whose shared sub-functions are one row, deep trees (built and
rebuilt far beyond the recursion limit) and trees decoded from legacy v1
shards.
"""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from repro.boolean.assignments import count_models
from repro.boolean.dnf import DNF
from repro.core import reference as seed
from repro.core.bounds import bounds_for_variable, count_bounds
from repro.core.exaban import exaban_all, model_count
from repro.core.ichiban import ranked_from_bounds
from repro.core.shapley import shapley_all, shapley_brute_force
from repro.dtree.arena import (
    DTreeArena,
    arena_banzhaf,
    arena_counts,
    arena_of,
)
from repro.baselines.brute_force import banzhaf_all_brute_force
from repro.dtree.compile import (
    CompilationBudget,
    CompilationLimitReached,
    compile_dnf,
)
from repro.dtree.incremental import IncrementalCompiler
from repro.dtree.nodes import DecompAnd, DTreeNode, LiteralLeaf
from repro.dtree.serialize import decode_tree, encode_tree, trees_equal
from repro.engine.artifact import complete_compilation
from repro.engine.ranking import compute_ranking
from repro.experiments.metrics import ground_truth_topk
from repro.workloads.generators import random_positive_dnf, star_join_lineage

from dnf_strategies import SHARING_DNF, shannon_dnfs, small_dnfs, unfolded_count

_SETTINGS = settings(max_examples=50, deadline=None)


@contextmanager
def recursion_limit(limit: int):
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


@_SETTINGS
@given(function=small_dnfs())
def test_arena_counts_and_banzhaf_match_baselines(function: DNF):
    tree = compile_dnf(function)
    arena = DTreeArena.from_tree(tree)
    counts = arena_counts(arena)
    # Model count: arena column vs recursive seed.
    assert counts[arena.root] == seed.model_count_recursive(tree)
    assert counts[arena.root] == model_count(tree)
    # Fused all-variables Banzhaf: bit-identical ints.
    banzhaf = arena_banzhaf(arena)
    assert banzhaf == seed.exaban_all_recursive(tree)
    assert banzhaf == exaban_all(tree)


@_SETTINGS
@given(function=small_dnfs())
def test_arena_shapley_matches_recursive_seed(function: DNF):
    tree = compile_dnf(function)
    # shapley_all routes critical counts through the arena's model-vector
    # and cofactor passes; the recursive seed never touches the arena.
    assert shapley_all(function, tree=tree) == seed.shapley_all_recursive(
        function, compile_dnf(function))


@_SETTINGS
@given(function=shannon_dnfs(), steps=st.integers(min_value=0, max_value=4))
@example(function=SHARING_DNF, steps=3)
def test_shared_compilations_match_reference_and_brute_force(function: DNF,
                                                             steps: int):
    """The compiler shares identical sub-functions, so its trees are DAGs
    with one arena row per distinct node.  Counts, Banzhaf and Shapley
    values over them equal the recursive seed (which unfolds the DAG) and
    brute force, bit for bit -- for a fresh compilation, and for one
    completed from the partial DAG an exhausted budget left, whose bounds
    enclose the truth."""
    truth = banzhaf_all_brute_force(function)
    models = count_models(function)
    shapley = {variable: shapley_brute_force(function, variable)
               for variable in sorted(function.variables)}
    compiler = IncrementalCompiler(function)
    try:
        complete_compilation(compiler,
                             CompilationBudget(max_shannon_steps=steps))
    except CompilationLimitReached:
        partial = compiler.root
        lower, upper = count_bounds(partial)
        assert lower <= models <= upper
        for variable, value in truth.items():
            bounds = bounds_for_variable(partial, variable)
            assert bounds.banzhaf_lower <= value <= bounds.banzhaf_upper
        complete_compilation(compiler, CompilationBudget())
    for tree in (compiler.root, compile_dnf(function)):
        assert len(arena_of(tree)) == tree.num_nodes()
        assert exaban_all(tree) == seed.exaban_all_recursive(tree) == truth
        assert model_count(tree) == seed.model_count_recursive(tree) \
            == models
        assert shapley_all(function, tree=tree) \
            == seed.shapley_all_recursive(function, tree) == shapley


def test_sharing_lineage_compiles_to_a_dag():
    # Turning sharing off would unfold this lineage's 127 distinct nodes
    # back into 167 (and its 9 Shannon expansions into 10).
    tree = compile_dnf(SHARING_DNF)
    assert tree.num_nodes() < unfolded_count(tree)
    arena = arena_of(tree)
    assert len(arena) == tree.num_nodes()
    assert arena_banzhaf(arena) == banzhaf_all_brute_force(SHARING_DNF)


def _tie_rich_instances():
    """Symmetric lineages whose Banzhaf values tie heavily, plus fuzz."""
    rng = random.Random(77)
    instances = [star_join_lineage(rng, 2, 3) for _ in range(4)]
    for _ in range(12):
        instances.append(random_positive_dnf(rng, rng.randint(3, 7),
                                             rng.randint(2, 6), (1, 3)))
    return instances


def test_rank_encloses_and_orders_like_exact():
    for function in _tie_rich_instances():
        tree = compile_dnf(function)
        exact = {v: value for v, value in exaban_all(tree).items()
                 if v in function.variables}
        result = compute_ranking(function, "rank", None, None, None)
        outcome = result.outcome
        assert outcome.method_used == "rank"
        assert outcome.converged
        assert set(outcome.values) == set(exact)
        for variable, (lower, upper) in outcome.bounds.items():
            assert lower <= exact[variable] <= upper
        # Certainty (epsilon=None) leaves every pair separated or tied at
        # one point: the value order must match the exact order.
        rank_order = sorted(outcome.values,
                            key=lambda v: (-outcome.values[v], v))
        exact_order = sorted(exact, key=lambda v: (-exact[v], v))
        assert rank_order == exact_order


def test_topk_sets_legitimate_on_tie_rich_instances():
    k = 3
    for function in _tie_rich_instances():
        if len(function.variables) <= k:
            continue
        exact = {v: value
                 for v, value in exaban_all(compile_dnf(function)).items()
                 if v in function.variables}
        result = compute_ranking(function, "topk", k, None, None)
        assert result.outcome.method_used == "topk"
        assert result.outcome.converged
        reported = [entry.variable
                    for entry in ranked_from_bounds(result.outcome.bounds, k)]
        legitimate = ground_truth_topk(exact, k)
        assert set(reported) <= legitimate
        assert len(reported) >= min(k, len(exact))
        # And the certain top-k set (exact values above the (k+1)-th) is
        # fully recovered: interval separation never drops a certain member.
        certain = {v for v in exact
                   if sum(exact[u] > exact[v] for u in exact) < k
                   and sum(exact[u] >= exact[v] for u in exact) <= k}
        assert certain <= set(reported)


def test_deep_arena_build_and_extend():
    # A 1500-deep conjunction chain: the arena build and both passes must
    # stay iterative (no recursion-limit coupling), and so must the
    # rebuild after the tree grows.
    depth = 1500
    root: DTreeNode = LiteralLeaf(0)
    for variable in range(1, depth):
        root = DecompAnd([root, LiteralLeaf(variable)])
    with recursion_limit(1000):
        arena = DTreeArena.from_tree(root)
        assert len(arena.kinds) == 2 * depth - 1
        counts = arena_counts(arena)
        assert counts[arena.root] == 1
        values = arena_banzhaf(arena)
        assert values[0] == 1 and values[depth - 1] == 1
        # Extend the tree: the grown root gets a fresh arena over every
        # row, the old rows included.
        grown = DecompAnd([root, LiteralLeaf(depth)])
        extended = arena_of(grown)
        assert len(extended.kinds) == len(arena.kinds) + 2
        assert arena_counts(extended)[extended.root] == 1
        assert arena_banzhaf(extended)[depth] == 1


#: Complete v1 trees as a v1 store shard holds them, with the DNF each
#: one compiles.  Together they use every v1 tag but "D".
_V1_TREES = [
    (["&", [["L", 1, False], ["|", [["L", 0, False], ["L", 2, False]]]]],
     [(0, 1), (1, 2)], 3),
    (["^", [["&", [["L", 0, False],
                   ["|", [["L", 1, False], ["L", 2, False]]]]],
            ["&", [["L", 0, True],
                   ["&", [["L", 1, False], ["L", 2, False]]]]]]],
     [(0, 1), (0, 2), (1, 2)], 3),
    (["&", [["|", [["L", 0, False],
                   ["&", [["L", 1, False], ["L", 2, False]]]]],
            ["T", [3]]]],
     [(0,), (1, 2)], 4),
    (["^", [["&", [["L", 0, False], ["L", 1, False]]],
            ["&", [["L", 0, True], ["F", [1]]]]]],
     [(0, 1)], 2),
]


def test_v1_shard_round_trips_into_the_arena():
    for encoded, clauses, size in _V1_TREES:
        function = DNF(clauses, domain=range(size))
        decoded = decode_tree(encoded)
        # The decoded tree feeds the arena losslessly...
        assert arena_banzhaf(arena_of(decoded)) == \
            seed.exaban_all_recursive(decoded) == \
            banzhaf_all_brute_force(function)
        # ...and round-trips through the v2 column format.
        assert trees_equal(decode_tree(encode_tree(decoded)), decoded)


def test_arena_shapley_values_are_fractions():
    # Exactness guard: the arena-backed Shapley path must keep returning
    # exact Fractions.
    function = DNF([(0, 1), (1, 2)], domain=range(3))
    values = shapley_all(function)
    assert all(isinstance(value, Fraction) for value in values.values())
    assert values == seed.shapley_all_recursive(function,
                                                compile_dnf(function))
