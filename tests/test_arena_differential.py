"""Differential tests: the arena backend against the recursive oracle.

The struct-of-arrays arena (:mod:`repro.dtree.arena`) implements the
fused counting, Banzhaf, Shapley and bounds passes as index loops over
postorder-contiguous columns.  This module pins their core contract --
**bit-identical results** -- by fuzzing random DNFs through the arena and
the recursive seed reference (:mod:`repro.core.reference`), checks the
arena bounds passes against the object-tree bounds procedure, exercises
the float tier's enclosure and ordering guarantees on tie-rich instances,
and covers the shapes the column layout is most likely to get wrong:
deep trees (build and incremental ``extend`` far beyond the recursion
limit) and trees decoded from legacy v1 shards.
"""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings

from repro.boolean.dnf import DNF
from repro.core import reference as seed
from repro.core.bounds import bounds_for_variable, count_bounds
from repro.core.exaban import exaban_all, model_count
from repro.core.ichiban import ranked_from_bounds
from repro.core.shapley import shapley_all
from repro.dtree.arena import (
    DTreeArena,
    arena_banzhaf,
    arena_banzhaf_bounds,
    arena_count_bounds,
    arena_counts,
    arena_model_count,
    arena_of,
)
from repro.dtree.compile import compile_dnf
from repro.dtree.incremental import IncrementalCompiler
from repro.dtree.nodes import DecompAnd, DTreeNode, LiteralLeaf
from repro.dtree.serialize import (
    decode_tree,
    encode_tree,
    encode_tree_v1,
    trees_equal,
)
from repro.engine.ranking import compute_ranking
from repro.experiments.metrics import ground_truth_topk
from repro.workloads.generators import random_positive_dnf, star_join_lineage

from dnf_strategies import small_dnfs

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
    assert counts[arena.root] == arena_model_count(arena)
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
@given(function=small_dnfs())
def test_arena_bounds_match_object_bounds_on_partial_trees(function: DNF):
    # Stop compilation after a few expansions so DNF leaves survive: the
    # bounds passes differ from plain counting exactly on partial trees.
    compiler = IncrementalCompiler(function)
    for _ in range(2):
        if not compiler.expand_step():
            break
    tree = compiler.root
    arena = DTreeArena.from_tree(tree)
    lower, upper = arena_count_bounds(arena)[arena.root]
    assert (lower, upper) == count_bounds(tree)
    for variable in sorted(function.variables):
        expected = bounds_for_variable(tree, variable)
        actual = arena_banzhaf_bounds(arena, variable)
        assert (actual.banzhaf_lower, actual.banzhaf_upper,
                actual.count_lower, actual.count_upper) == (
            expected.banzhaf_lower, expected.banzhaf_upper,
            expected.count_lower, expected.count_upper)


def _tie_rich_instances():
    """Symmetric lineages whose Banzhaf values tie heavily, plus fuzz."""
    rng = random.Random(77)
    instances = [star_join_lineage(rng, 2, 3) for _ in range(4)]
    for _ in range(12):
        instances.append(random_positive_dnf(rng, rng.randint(3, 7),
                                             rng.randint(2, 6), (1, 3)))
    return instances


def test_float_rank_encloses_and_orders_like_exact():
    for function in _tie_rich_instances():
        tree = compile_dnf(function)
        exact = {v: value for v, value in exaban_all(tree).items()
                 if v in function.variables}
        result = compute_ranking(function, "rank", None, None, None,
                                 numeric="float")
        outcome = result.outcome
        assert outcome.method_used == "rank-float"
        assert outcome.converged
        assert set(outcome.values) == set(exact)
        for variable, (lower, upper) in outcome.bounds.items():
            assert lower <= exact[variable] <= upper
        # Non-straddlers are certifiably separated, straddlers fall back
        # to exact points: the value order must match the exact order.
        float_order = sorted(outcome.values,
                             key=lambda v: (-outcome.values[v], v))
        exact_order = sorted(exact, key=lambda v: (-exact[v], v))
        assert float_order == exact_order


def test_float_topk_sets_legitimate_on_tie_rich_instances():
    k = 3
    for function in _tie_rich_instances():
        if len(function.variables) <= k:
            continue
        exact = {v: value
                 for v, value in exaban_all(compile_dnf(function)).items()
                 if v in function.variables}
        result = compute_ranking(function, "topk", k, None, None,
                                 numeric="float")
        assert result.outcome.method_used == "topk-float"
        reported = [entry.variable
                    for entry in ranked_from_bounds(result.outcome.bounds, k)]
        legitimate = ground_truth_topk(exact, k)
        assert set(reported) <= legitimate
        assert len(reported) >= min(k, len(exact))
        # And the certain top-k set (exact values above the (k+1)-th) is
        # fully recovered: float separation never drops a certain member.
        certain = {v for v in exact
                   if sum(exact[u] > exact[v] for u in exact) < k
                   and sum(exact[u] >= exact[v] for u in exact) <= k}
        assert certain <= set(reported)


def test_deep_arena_build_and_extend():
    # A 1500-deep conjunction chain: the arena build, both passes, and the
    # object round-trip must stay iterative (no recursion-limit coupling).
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
        assert trees_equal(root, arena.to_tree())
        # Incremental extend: wrap the old root; every old row must be
        # carried (with its counts payload) into the new arena.
        grown = DecompAnd([root, LiteralLeaf(depth)])
        extended = arena.extend(grown)
        assert len(extended.kinds) == len(arena.kinds) + 2
        carried = extended.payloads["counts"]
        assert sum(value is not None for value in carried) >= len(arena.kinds)
        assert arena_counts(extended)[extended.root] == 1
        assert arena_banzhaf(extended)[depth] == 1


def test_v1_shard_round_trips_into_the_arena():
    rng = random.Random(31)
    for _ in range(10):
        function = random_positive_dnf(rng, rng.randint(3, 7),
                                       rng.randint(2, 6), (1, 3))
        tree = compile_dnf(function)
        # Legacy nested-list encoding (what a v1 store shard holds).
        decoded = decode_tree(encode_tree_v1(tree))
        assert trees_equal(tree, decoded)
        # The decoded tree feeds the arena losslessly...
        assert arena_banzhaf(arena_of(decoded)) == \
            seed.exaban_all_recursive(tree)
        # ...and re-encodes deterministically in the v2 column format.
        assert encode_tree(decoded) == encode_tree(tree)
        assert decode_tree(encode_tree(decoded)) is not None


def test_arena_shapley_values_are_fractions():
    # Exactness guard: the arena-backed Shapley path must keep returning
    # exact Fractions (the float tier is ranking-only by design).
    function = DNF([(0, 1), (1, 2)], domain=range(3))
    values = shapley_all(function)
    assert all(isinstance(value, Fraction) for value in values.values())
    assert values == seed.shapley_all_recursive(function,
                                                compile_dnf(function))
