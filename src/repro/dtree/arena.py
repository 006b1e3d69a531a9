"""Arena (struct-of-arrays) backend for compiled d-trees.

The object d-tree (:mod:`repro.dtree.nodes`) is the *construction*
representation: the compilers need parent pointers, in-place leaf
replacement and per-node cache invalidation.  Every evaluation pass,
however, only ever walks the finished structure — and walking a linked
graph of Python objects pays an attribute load, an ``isinstance`` fan-out
and a method call per node per pass.  This module flattens a compiled
(or partially compiled) tree into a **postorder struct-of-arrays arena**
so the fused passes become tight loops over parallel lists indexed by
``int``:

* ``kinds[i]`` — small-int node kind (``KIND_*`` below), replacing
  ``isinstance`` dispatch;
* ``variables[i]`` / ``negated[i]`` — literal payload (``-1`` / ``False``
  on non-literal rows);
* ``domain_sizes[i]`` — ``len(node.domain)`` (every counting rule needs
  only the size; the full domain stays reachable via ``domains[i]``);
* ``child_first[i]`` / ``child_last[i]`` — the row's span in the flat
  ``children`` array (``[first, last)``), empty for leaves;
* ``leaf_functions[i]`` — the undecomposed :class:`~repro.boolean.dnf.DNF`
  of a ``KIND_DNF`` row (partial trees only);
* named **payload columns** (``DTreeArena.payloads``) — per-node
  scratch shared by the passes: the exact subtree-count column and the
  size-indexed model vectors.

The compilers share identical complete sub-functions, so a tree may be a
DAG: a node with several parents.  Each distinct node gets **one row**,
in a depth-first postorder (children left to right), so every child row
precedes its parent row (``children[j] < i`` for all ``j`` in the span of
row ``i``) and the root is the last row.  Bottom-up passes are therefore a
forward ``for`` loop and top-down passes a backward one — no explicit
stack, no recursion, no visit ordering logic.  A shared row's subtree
sits where its first parent reached it, so sibling subtrees need not be
contiguous; on an unshared tree the order is the plain postorder.  The
top-down Banzhaf pass *adds* each parent's contribution into a row's
multiplier, so a shared row collects the sum over its parents: the
derivative of the root count by one backward pass over the circuit.

Arenas are **derived data**: built lazily from a root node and cached in
the root's ``_cache`` (:func:`arena_of`), which
:meth:`~repro.dtree.nodes.DTreeNode.invalidate` clears on any in-place
mutation — a stale arena is unreachable by construction, exactly like
the bounds caches.  A mutated tree gets a fresh arena on next use.

The exact passes here are the only production implementation of the
count, Banzhaf and Shapley passes; :mod:`repro.core.exaban` and
:mod:`repro.core.shapley` are thin entry points over them, and
:mod:`repro.core.reference` keeps the recursive seed passes as the oracle.
Bounds on partial trees are not computed here: the object-tree
:mod:`repro.core.bounds`, whose per-node caches survive the incremental
compiler's path invalidation, is their one implementation.

The ``*_pass`` entry points (:func:`counts_pass`, :func:`banzhaf_pass`)
run the pass beside which they sit and report to an optional
:class:`~repro.engine.stats.EngineStats`: a memoized answer counts as one
``payload_hits``, a computed one is timed under its pass label.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.boolean.dnf import DNF
from repro.dtree.nodes import (
    DecompAnd,
    DecompOr,
    DNFLeaf,
    DTreeNode,
    ExclusiveOr,
    FalseLeaf,
    LiteralLeaf,
    TrueLeaf,
)

#: Node kinds (row tags of the ``kinds`` column); the inner kinds
#: (``KIND_AND`` and up) are the largest.
KIND_TRUE = 0
KIND_FALSE = 1
KIND_LITERAL = 2
KIND_DNF = 3
KIND_AND = 4
KIND_OR = 5
KIND_XOR = 6

_NODE_KINDS = {
    TrueLeaf: KIND_TRUE,
    FalseLeaf: KIND_FALSE,
    LiteralLeaf: KIND_LITERAL,
    DNFLeaf: KIND_DNF,
    DecompAnd: KIND_AND,
    DecompOr: KIND_OR,
    ExclusiveOr: KIND_XOR,
}

#: Root-cache key under which :func:`arena_of` memoizes the arena.
_ARENA_CACHE_KEY = "dtree_arena"


class DTreeArena:
    """One flattened d-tree: parallel columns plus named payload slots.

    Construct through :meth:`from_tree` or :func:`arena_of` (cached).
    The row order satisfies the postorder invariant documented in the
    module docstring; the root is row ``len(self) - 1``.
    """

    __slots__ = ("kinds", "variables", "negated", "domain_sizes",
                 "child_first", "child_last", "children", "domains",
                 "leaf_functions", "payloads", "results")

    def __init__(self, kinds: List[int], variables: List[int],
                 negated: List[bool], domain_sizes: List[int],
                 child_first: List[int], child_last: List[int],
                 children: List[int], domains: List[frozenset],
                 leaf_functions: List[Optional[DNF]]) -> None:
        self.kinds = kinds
        self.variables = variables
        self.negated = negated
        self.domain_sizes = domain_sizes
        self.child_first = child_first
        self.child_last = child_last
        self.children = children
        self.domains = domains
        self.leaf_functions = leaf_functions
        #: Named per-row payload columns (``counts``, ``models``).
        self.payloads: Dict[str, list] = {}
        #: Whole-arena derived results (the ``banzhaf`` dict).
        self.results: Dict[str, object] = {}

    # -- construction --------------------------------------------------- #

    @classmethod
    def from_tree(cls, root: DTreeNode) -> "DTreeArena":
        """Flatten a (complete or partial) tree or DAG, one row per node.

        An iterative depth-first postorder: an inner node is pushed back
        under a ``None`` marker before its children, and gets its row
        when the marker comes up again; a node that already has a row is
        skipped, so a shared subtree is walked once.
        """
        kinds: List[int] = []
        variables: List[int] = []
        negated: List[bool] = []
        domain_sizes: List[int] = []
        child_first: List[int] = []
        child_last: List[int] = []
        children: List[int] = []
        domains: List[frozenset] = []
        leaf_functions: List[Optional[DNF]] = []
        rows: Dict[DTreeNode, int] = {}
        node_kinds = _NODE_KINDS
        stack: List[Optional[DTreeNode]] = [root]
        pop = stack.pop
        push = stack.append
        node = root
        try:
            while stack:
                node = pop()
                if node is None:  # the inner node below: children done
                    node = pop()
                    kind = node_kinds[node.__class__]
                    child_first.append(len(children))
                    for child in node._children:
                        children.append(rows[child])
                    child_last.append(len(children))
                    variables.append(-1)
                    negated.append(False)
                    leaf_functions.append(None)
                elif node in rows:
                    continue
                else:
                    kind = node_kinds[node.__class__]
                    if kind >= KIND_AND:
                        push(node)
                        push(None)
                        stack.extend(reversed(node._children))
                        continue
                    first = len(children)
                    child_first.append(first)
                    child_last.append(first)
                    if kind == KIND_LITERAL:
                        variables.append(node.variable)
                        negated.append(node.negated)
                    else:
                        variables.append(-1)
                        negated.append(False)
                    leaf_functions.append(
                        node.function if kind == KIND_DNF else None)
                rows[node] = len(kinds)
                kinds.append(kind)
                domain = node.domain
                domain_sizes.append(len(domain))
                domains.append(domain)
        except KeyError:
            raise TypeError(f"unknown d-tree node type "
                            f"{type(node).__name__}") from None
        return cls(kinds, variables, negated, domain_sizes, child_first,
                   child_last, children, domains, leaf_functions)

    # -- basic accessors ------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def root(self) -> int:
        """Row index of the root (last row, by the postorder invariant)."""
        return len(self.kinds) - 1

    def is_complete(self) -> bool:
        """``True`` iff no row is an undecomposed DNF leaf."""
        return KIND_DNF not in self.kinds

    def child_rows(self, row: int) -> List[int]:
        """The child row indices of one row (empty for leaves)."""
        return self.children[self.child_first[row]:self.child_last[row]]

def arena_of(root: DTreeNode) -> DTreeArena:
    """The (cached) arena of a tree; built lazily, one per root.

    The arena is memoized in the root's per-node cache, which
    :meth:`~repro.dtree.nodes.DTreeNode.invalidate` clears from any
    mutated descendant up to the root — so a cached arena is always
    consistent with the live tree.  Concurrent builders at worst
    duplicate the (idempotent) construction, matching the bounds-cache
    discipline.
    """
    arena = root.cache_get(_ARENA_CACHE_KEY)
    if arena is None:
        arena = DTreeArena.from_tree(root)
        root.cache_set(_ARENA_CACHE_KEY, arena)
    return arena


class IncompleteArenaError(Exception):
    """Raised when an exact pass is attempted on a partial-tree arena."""


class _NullStats:
    """Stands in for an absent stats sink, so passes never branch on it."""

    def bump(self, **deltas: int) -> None:
        pass

    def timed_pass(self, label: str):
        return nullcontext()


_NULL_STATS = _NullStats()


# --------------------------------------------------------------------- #
# Exact passes (tight index loops; bit-identical to core/reference.py)
# --------------------------------------------------------------------- #


def arena_counts(arena: DTreeArena) -> List[int]:
    """The exact subtree model-count payload column (bottom-up, cached)."""
    counts = arena.payloads.get("counts")
    if counts is not None:
        return counts
    kinds = arena.kinds
    domain_sizes = arena.domain_sizes
    child_first = arena.child_first
    child_last = arena.child_last
    children = arena.children
    counts = [0] * len(kinds)
    # Tight postorder loop: slice-iterate the child spans (substantially
    # faster in CPython than range-and-index) — this is the hot path the
    # arena exists for.
    for row, kind in enumerate(kinds):
        if kind == KIND_LITERAL:
            counts[row] = 1
        elif kind == KIND_AND:
            value = 1
            for child in children[child_first[row]:child_last[row]]:
                value *= counts[child]
            counts[row] = value
        elif kind == KIND_OR:
            non_models = 1
            for child in children[child_first[row]:child_last[row]]:
                non_models *= (1 << domain_sizes[child]) - counts[child]
            counts[row] = (1 << domain_sizes[row]) - non_models
        elif kind == KIND_XOR:
            value = 0
            for child in children[child_first[row]:child_last[row]]:
                value += counts[child]
            counts[row] = value
        elif kind == KIND_TRUE:
            counts[row] = 1 << domain_sizes[row]
        elif kind == KIND_FALSE:
            counts[row] = 0
        else:
            raise IncompleteArenaError(
                "exact counting requires a complete d-tree; found an "
                "undecomposed leaf")
    arena.payloads["counts"] = counts
    return counts


def counts_pass(arena: DTreeArena, stats=None) -> List[int]:
    """:func:`arena_counts`, reported to ``stats`` as a hit or ``count``."""
    stats = stats if stats is not None else _NULL_STATS
    counts = arena.payloads.get("counts")
    if counts is not None:
        stats.bump(payload_hits=1)
        return counts
    with stats.timed_pass("count"):
        return arena_counts(arena)


def arena_banzhaf(arena: DTreeArena) -> Dict[int, int]:
    """Exact Banzhaf values of all root-domain variables (both passes).

    Bottom-up counts (:func:`arena_counts`, shared payload) plus one
    top-down multiplier loop with prefix/suffix sibling products, which
    adds each parent's contribution into a row's multiplier: a shared row
    sums over its parents, in exact integers.  Cached as the per-arena
    ``banzhaf`` result.
    """
    cached = arena.results.get("banzhaf")
    if cached is not None:
        return cached  # type: ignore[return-value]
    counts = arena_counts(arena)
    kinds = arena.kinds
    variables = arena.variables
    negated = arena.negated
    domain_sizes = arena.domain_sizes
    child_first = arena.child_first
    child_last = arena.child_last
    children = arena.children
    size = len(kinds)
    multipliers = [0] * size
    multipliers[size - 1] = 1
    banzhaf: Dict[int, int] = {v: 0 for v in arena.domains[size - 1]}
    # Two scratch buffers grown to the widest fanout seen, instead of a
    # fresh ``values``/``prefixes`` pair allocated for every internal row
    # (tens of thousands of short-lived lists on deep arenas).
    values: List[int] = []
    prefixes: List[int] = []
    for row in range(size - 1, -1, -1):
        multiplier = multipliers[row]
        if multiplier == 0:
            continue
        kind = kinds[row]
        if kind == KIND_LITERAL:
            if negated[row]:
                banzhaf[variables[row]] -= multiplier
            else:
                banzhaf[variables[row]] += multiplier
            continue
        if kind == KIND_AND or kind == KIND_OR:
            kids = children[child_first[row]:child_last[row]]
            width = len(kids)
            if width > len(values):
                grow = width - len(values)
                values.extend([1] * grow)
                prefixes.extend([1] * grow)
            if kind == KIND_AND:
                for position in range(width):
                    values[position] = counts[kids[position]]
            else:
                for position in range(width):
                    child = kids[position]
                    values[position] = (
                        (1 << domain_sizes[child]) - counts[child])
            # Prefix/suffix sibling products, fused with the push.
            running = 1
            for position in range(width):
                prefixes[position] = running
                running *= values[position]
            suffix = 1
            for position in range(width - 1, -1, -1):
                multipliers[kids[position]] += (
                    multiplier * prefixes[position] * suffix)
                suffix *= values[position]
        elif kind == KIND_XOR:
            for child in children[child_first[row]:child_last[row]]:
                multipliers[child] += multiplier
    arena.results["banzhaf"] = banzhaf
    return banzhaf


def banzhaf_pass(arena: DTreeArena, stats=None) -> Dict[int, int]:
    """:func:`arena_banzhaf`, reported to ``stats`` as a hit or ``banzhaf``."""
    stats = stats if stats is not None else _NULL_STATS
    cached = arena.results.get("banzhaf")
    if cached is not None:
        stats.bump(payload_hits=1)
        return cached  # type: ignore[return-value]
    with stats.timed_pass("banzhaf"):
        return arena_banzhaf(arena)


# --------------------------------------------------------------------- #
# Shapley support: size-indexed model vectors over the arena
# --------------------------------------------------------------------- #


def _binomials(n: int) -> List[int]:
    return [math.comb(n, k) for k in range(n + 1)]


def _vector_convolve(left: List[int], right: List[int]) -> List[int]:
    result = [0] * (len(left) + len(right) - 1)
    for i, a in enumerate(left):
        if a == 0:
            continue
        for j, b in enumerate(right):
            if b:
                result[i + j] += a * b
    return result


def _vector_complement(vector: List[int], n: int) -> List[int]:
    return [math.comb(n, k) - vector[k] for k in range(n + 1)]


def arena_models(arena: DTreeArena) -> List[List[int]]:
    """Size-indexed model vectors per row (the Shapley ``models`` pass).

    Entry ``k`` of row ``i``'s vector counts the models of the subtree
    that set exactly ``k`` domain variables true, cached as the
    ``models`` payload column and shared by every variable's cofactor
    pass.
    """
    models = arena.payloads.get("models")
    if models is not None:
        return models
    kinds = arena.kinds
    domain_sizes = arena.domain_sizes
    models = [None] * len(kinds)  # type: ignore[list-item]
    for row in range(len(kinds)):
        kind = kinds[row]
        size = domain_sizes[row]
        if kind == KIND_TRUE:
            vector = _binomials(size)
        elif kind == KIND_FALSE:
            vector = [0] * (size + 1)
        elif kind == KIND_LITERAL:
            vector = [1, 0] if arena.negated[row] else [0, 1]
        elif kind == KIND_AND:
            vector = [1]
            for child in arena.child_rows(row):
                vector = _vector_convolve(vector, models[child])
        elif kind == KIND_OR:
            non_models = [1]
            for child in arena.child_rows(row):
                non_models = _vector_convolve(
                    non_models,
                    _vector_complement(models[child], domain_sizes[child]))
            vector = [math.comb(size, k) - non_models[k]
                      for k in range(size + 1)]
        elif kind == KIND_XOR:
            vector = [0] * (size + 1)
            for child in arena.child_rows(row):
                for k, value in enumerate(models[child]):
                    vector[k] += value
        else:
            raise ValueError(
                "Shapley computation requires a complete d-tree")
        models[row] = vector
    arena.payloads["models"] = models
    return models


def _relevant_rows(arena: DTreeArena, variable: int) -> List[bool]:
    """Rows on the restricted descent for ``variable`` (root included).

    A decomposable row forwards the variable to exactly one child;
    exclusive children all share the parent domain — so the relevant set
    is found top-down (backward row iteration) and evaluated bottom-up
    (forward iteration), both plain loops thanks to the postorder
    invariant.
    """
    relevant = [False] * len(arena.kinds)
    root = arena.root
    if variable in arena.domains[root]:
        relevant[root] = True
    domains = arena.domains
    for row in range(root, -1, -1):
        if not relevant[row]:
            continue
        for child in arena.child_rows(row):
            if variable in domains[child]:
                relevant[child] = True
    return relevant


def arena_cofactor_vectors(arena: DTreeArena, variable: int
                           ) -> Tuple[List[int], List[int]]:
    """Size vectors of ``phi[x:=1]`` / ``phi[x:=0]`` over ``domain - x``.

    The per-variable Shapley pass: restricted to the rows whose domain
    contains the variable, with untouched siblings read from the shared
    ``models`` payload (:func:`arena_models`).
    """
    models = arena_models(arena)
    relevant = _relevant_rows(arena, variable)
    kinds = arena.kinds
    domain_sizes = arena.domain_sizes
    vectors: Dict[int, Tuple[List[int], List[int]]] = {}
    for row in range(len(kinds)):
        if not relevant[row]:
            continue
        kind = kinds[row]
        size = domain_sizes[row]
        if kind == KIND_TRUE:
            cof = _binomials(size - 1)
            result = (cof, list(cof))
        elif kind == KIND_FALSE:
            zeros = [0] * size
            result = (zeros, list(zeros))
        elif kind == KIND_LITERAL:
            # Only x-literals can be relevant (a literal's domain is {x}).
            negated = arena.negated[row]
            result = ([0] if negated else [1], [1] if negated else [0])
        elif kind == KIND_AND or kind == KIND_OR:
            conjunction = kind == KIND_AND
            positive: List[int] = [1]
            negative: List[int] = [1]
            for child in arena.child_rows(row):
                if relevant[child]:
                    child_positive, child_negative = vectors[child]
                    child_n = domain_sizes[child] - 1
                else:
                    child_positive = child_negative = models[child]
                    child_n = domain_sizes[child]
                if conjunction:
                    positive = _vector_convolve(positive, child_positive)
                    negative = _vector_convolve(negative, child_negative)
                else:
                    positive = _vector_convolve(
                        positive, _vector_complement(child_positive, child_n))
                    negative = _vector_convolve(
                        negative, _vector_complement(child_negative, child_n))
            if not conjunction:
                cof_size = size - 1
                positive = [math.comb(cof_size, k) - positive[k]
                            for k in range(cof_size + 1)]
                negative = [math.comb(cof_size, k) - negative[k]
                            for k in range(cof_size + 1)]
            result = (positive, negative)
        elif kind == KIND_XOR:
            cof_size = size - 1
            positive = [0] * (cof_size + 1)
            negative = [0] * (cof_size + 1)
            for child in arena.child_rows(row):
                child_positive, child_negative = vectors[child]
                for k, value in enumerate(child_positive):
                    positive[k] += value
                for k, value in enumerate(child_negative):
                    negative[k] += value
            result = (positive, negative)
        else:
            raise ValueError(
                "Shapley computation requires a complete d-tree")
        vectors[row] = result
    return vectors[arena.root]
