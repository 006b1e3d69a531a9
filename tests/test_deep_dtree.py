"""Regression tests: deep d-trees no longer depend on the recursion limit.

The seed implementation compiled and evaluated d-trees with recursive
passes, so a tree deeper than ``sys.getrecursionlimit()`` crashed with
``RecursionError``.  Compilation, the count/Banzhaf passes, the Shapley
vector passes and the AdaBan bounds procedure are now all explicit-stack
iterative; these tests pin the interpreter limit *below* the tree depth
and run the whole pipeline through trees that the recursive formulation
provably cannot traverse -- and check that the engine leaves the limit
alone while doing so.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction

from repro.boolean.dnf import DNF
from repro.core.bounds import bounds_for_variable, count_bounds
from repro.core.exaban import exaban, exaban_all, model_count
from repro.dtree.compile import compile_dnf
from repro.dtree.nodes import DecompAnd, DTreeNode, LiteralLeaf
from repro.dtree.serialize import clone_tree, decode_tree, encode_tree, trees_equal
from repro.engine import Engine


@contextmanager
def recursion_limit(limit: int):
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def tree_depth(root: DTreeNode) -> int:
    """Maximum root-to-leaf node count, computed iteratively."""
    depth = 0
    stack = [(root, 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in node.children())
    return depth


def read_once_comb(levels: int) -> DNF:
    """The read-once function ``E_k = x_k | (y_k & E_{k-1})`` as a DNF.

    Its d-tree is a linear-size chain (one component split plus one factor
    step per level), about ``2 * levels`` deep -- the deep-chain shape that
    crashed the seed's recursive compile and count passes.
    """
    clauses = [(0,)]
    next_variable = 1
    for _ in range(1, levels):
        x_k, y_k = next_variable, next_variable + 1
        next_variable += 2
        clauses = [tuple(sorted((y_k,) + clause)) for clause in clauses]
        clauses.append((x_k,))
    return DNF(clauses)


class TestDeepCompileAndCount:
    def test_deep_chain_compiles_and_counts_below_recursion_limit(self):
        function = read_once_comb(120)
        with recursion_limit(200):
            tree = compile_dnf(function)
            depth = tree_depth(tree)
            # The tree is deeper (and has more nodes) than the interpreter
            # would allow a recursive pass to descend.
            assert depth > sys.getrecursionlimit()
            assert tree.num_nodes() > sys.getrecursionlimit()
            assert tree.is_complete()

            total = model_count(tree)
            values = exaban_all(tree)
        # Spot-check the fused passes against the per-variable pass and the
        # model-count identity Banzhaf(x) = #phi[x:=1] - #phi[x:=0].
        n = function.num_variables()
        assert 0 < total < (1 << n)
        for variable in (0, 1, n - 2, n - 1):
            banzhaf, count = exaban(tree, variable)
            assert count == total
            assert banzhaf == values[variable]
        # x_k of the outermost level is one literal of an independent-or:
        # its Banzhaf value is the non-model count of the sibling subtree.
        assert values[max(function.variables)] > 0

    def test_deep_tree_counts_match_exact_bounds_and_roundtrip(self):
        # A directly built conjunction chain, far deeper than the pinned
        # limit: count passes, the (iterative) bounds procedure, and the
        # iterative codec must all agree without touching the call stack.
        depth = 1500
        root: DTreeNode = LiteralLeaf(0)
        for variable in range(1, depth):
            root = DecompAnd([root, LiteralLeaf(variable)])
        with recursion_limit(1000):
            assert tree_depth(root) > sys.getrecursionlimit()
            assert model_count(root) == 1
            values = exaban_all(root)
            assert values[0] == 1 and values[depth - 1] == 1
            # Complete tree: count bounds and Banzhaf bounds are points.
            assert count_bounds(root) == (1, 1)
            bounds = bounds_for_variable(root, depth - 1)
            assert (bounds.banzhaf_lower, bounds.banzhaf_upper) == (1, 1)
            clone = clone_tree(root)
            assert trees_equal(root, clone)
            assert trees_equal(root, decode_tree(encode_tree(root)))

    def test_deep_partial_tree_bounds(self):
        # The bounds procedure also runs on *partial* trees (AdaBan); nest
        # an undecomposed leaf at the bottom of a deep decomposable spine.
        from repro.dtree.nodes import DNFLeaf

        depth = 1200
        leaf_function = DNF([[0, 1], [1, 2]], domain=[0, 1, 2])
        root: DTreeNode = DNFLeaf(leaf_function)
        for variable in range(3, depth + 3):
            root = DecompAnd([root, LiteralLeaf(variable)])
        with recursion_limit(1000):
            assert tree_depth(root) > sys.getrecursionlimit()
            bounds = bounds_for_variable(root, 1)
            assert bounds.banzhaf_lower <= bounds.banzhaf_upper
            lower, upper = count_bounds(root)
            assert 0 <= lower <= upper


class TestEngineLeavesRecursionLimit:
    def test_engine_call_keeps_the_interpreter_recursion_limit(self):
        # A library call must not change process-global state: the engine
        # evaluates a d-tree deeper than the limit without raising it.
        function = read_once_comb(120)
        expected = exaban_all(compile_dnf(function))
        with recursion_limit(200):
            assert tree_depth(compile_dnf(function)) > sys.getrecursionlimit()
            (outcome,) = Engine().attribute_lineages([function])
            assert sys.getrecursionlimit() == 200
        assert outcome.method_used == "exact"
        assert outcome.values == {v: Fraction(value)
                                  for v, value in expected.items()}
