"""Arena (struct-of-arrays) backend for compiled d-trees.

The object d-tree (:mod:`repro.dtree.nodes`) is the *construction*
representation: the compilers need parent pointers, in-place leaf
replacement and per-node cache invalidation.  Every evaluation pass,
however, only ever walks the finished structure — and walking a linked
graph of Python objects pays an attribute load, an ``isinstance`` fan-out
and a method call per node per pass.  This module flattens a compiled
(or partially compiled) tree into a **postorder-contiguous
struct-of-arrays arena** so the fused passes become tight loops over
parallel lists indexed by ``int``:

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
  scratch shared by the passes: the exact subtree-count column, the
  size-indexed model vectors, the float log-count column, …

**Postorder invariant**: every child row precedes its parent row
(``children[j] < i`` for all ``j`` in the span of row ``i``), and the
root is the last row.  Bottom-up passes are therefore a forward ``for``
loop and top-down passes a backward one — no explicit stack, no
recursion, no visit ordering logic.  Sibling subtrees are contiguous
(the rows of one child's subtree form one block).

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
compiler's path invalidation, is their one implementation.  The float
passes are the ranking fast path: log2-domain scores with a tracked
relative-error bound, so callers can tell which variables are separated
beyond floating error and which need the exact-``Fraction`` fallback.

The ``*_pass`` entry points (:func:`counts_pass`, :func:`banzhaf_pass`,
:func:`float_banzhaf_pass`, :func:`float_surrogate_pass`) run the pass
beside which they sit and report to an optional
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

#: Node kinds (row tags of the ``kinds`` column).
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

#: Per-operation relative-error unit of the float passes: a few double
#: ULPs, deliberately conservative (``math.log1p``/``math.log2`` are not
#: correctly rounded on every platform).
FLOAT_ERROR_UNIT = 2.0 ** -50

_LN2 = math.log(2.0)


class ArenaBuilder:
    """Accumulates arena rows bottom-up (children before parents).

    Used by :meth:`DTreeArena.from_tree` over a postorder walk.
    """

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.variables: List[int] = []
        self.negated: List[bool] = []
        self.domain_sizes: List[int] = []
        self.child_first: List[int] = []
        self.child_last: List[int] = []
        self.children: List[int] = []
        self.domains: List[frozenset] = []
        self.leaf_functions: List[Optional[DNF]] = []
        self.nodes: List[DTreeNode] = []
        self.index: Dict[int, int] = {}

    def add(self, node: DTreeNode) -> int:
        """Append one row; every child of ``node`` must already have a row."""
        kind = _NODE_KINDS.get(type(node))
        if kind is None:
            raise TypeError(
                f"unknown d-tree node type {type(node).__name__}")
        row = len(self.kinds)
        first = len(self.children)
        for child in node.children():
            self.children.append(self.index[id(child)])
        self.kinds.append(kind)
        if kind == KIND_LITERAL:
            self.variables.append(node.variable)
            self.negated.append(node.negated)
        else:
            self.variables.append(-1)
            self.negated.append(False)
        self.domain_sizes.append(len(node.domain))
        self.child_first.append(first)
        self.child_last.append(len(self.children))
        self.domains.append(node.domain)
        self.leaf_functions.append(
            node.function if kind == KIND_DNF else None)
        self.nodes.append(node)
        self.index[id(node)] = row
        return row

    def finish(self, root: DTreeNode) -> "DTreeArena":
        """Seal the rows into an arena whose last row is ``root``."""
        if not self.nodes or self.nodes[-1] is not root:
            raise ValueError("arena root must be the last row added")
        return DTreeArena(self)


class DTreeArena:
    """One flattened d-tree: parallel columns plus named payload slots.

    Construct through :meth:`from_tree` or :func:`arena_of` (cached).
    The row order satisfies the postorder invariant documented in the
    module docstring; the root is row ``len(self) - 1``.
    """

    __slots__ = ("kinds", "variables", "negated", "domain_sizes",
                 "child_first", "child_last", "children", "domains",
                 "leaf_functions", "payloads", "results")

    def __init__(self, builder: ArenaBuilder) -> None:
        self.kinds = builder.kinds
        self.variables = builder.variables
        self.negated = builder.negated
        self.domain_sizes = builder.domain_sizes
        self.child_first = builder.child_first
        self.child_last = builder.child_last
        self.children = builder.children
        self.domains = builder.domains
        self.leaf_functions = builder.leaf_functions
        #: Named per-row payload columns (counts, models, float logs, ...).
        self.payloads: Dict[str, list] = {}
        #: Whole-arena derived results (the Banzhaf dict, float scores).
        self.results: Dict[str, object] = {}

    # -- construction --------------------------------------------------- #

    @classmethod
    def from_tree(cls, root: DTreeNode) -> "DTreeArena":
        """Flatten a (complete or partial) tree; iterative postorder."""
        builder = ArenaBuilder()
        preorder: List[DTreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            preorder.append(node)
            stack.extend(node.children())
        for node in reversed(preorder):
            builder.add(node)
        return builder.finish(root)

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
    top-down multiplier loop with prefix/suffix sibling products —
    identical arithmetic to :func:`repro.core.exaban.exaban_all`, minus
    the object walk.  Cached as the per-arena ``banzhaf`` result.
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
                multipliers[kids[position]] = (
                    multiplier * prefixes[position] * suffix)
                suffix *= values[position]
        elif kind == KIND_XOR:
            for child in children[child_first[row]:child_last[row]]:
                multipliers[child] = multiplier
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


def arena_model_count(arena: DTreeArena) -> int:
    """Exact model count of the root (reads the shared counts column)."""
    return arena_counts(arena)[arena.root]


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


# --------------------------------------------------------------------- #
# Float tier: log2-domain scores with tracked relative error
# --------------------------------------------------------------------- #
#
# Every quantity is a pair ``(log2(value), err)`` where ``err`` bounds the
# *relative* error of the represented value (|computed/true - 1| <= err,
# to first order).  Products add errors; log-domain additions keep the
# max; subtractions amplify by t/(1-t) where t = 2^(small - large) — near
# cancellation the bound blows up and we poison the result (``err = inf``)
# so the caller falls back to the exact tier.  Each operation also
# charges one FLOAT_ERROR_UNIT of rounding.


def log2_add(a: float, b: float) -> float:
    """``log2(2**a + 2**b)`` without overflow; -inf means zero."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(2.0 ** (b - a)) / _LN2


def log2_sub(a: float, b: float) -> float:
    """``log2(2**a - 2**b)`` for ``a >= b``; returns -inf on cancellation."""
    if b == -math.inf:
        return a
    t = 2.0 ** (b - a)
    if t >= 1.0:
        return -math.inf
    return a + math.log1p(-t) / _LN2


def _sub_error(a: float, b: float, err: float) -> float:
    """Relative-error bound after ``2**a - 2**b`` (amplified near ties)."""
    if b == -math.inf:
        return err + FLOAT_ERROR_UNIT
    t = 2.0 ** (b - a)
    if t >= 1.0 - 1e-9:
        return math.inf
    return err * (1.0 + t) / (1.0 - t) + FLOAT_ERROR_UNIT


def arena_float_counts(arena: DTreeArena) -> Tuple[List[float], List[float]]:
    """Log2 model counts + relative-error bounds per row (complete trees).

    Cached as the ``float_counts`` / ``float_count_errs`` payload columns.
    Raises :class:`IncompleteArenaError` on undecomposed leaves — partial
    trees go through :func:`arena_float_surrogate` instead.
    """
    logs = arena.payloads.get("float_counts")
    if logs is not None:
        return logs, arena.payloads["float_count_errs"]
    kinds = arena.kinds
    domain_sizes = arena.domain_sizes
    logs = [0.0] * len(kinds)
    errs = [0.0] * len(kinds)
    for row in range(len(kinds)):
        kind = kinds[row]
        if kind == KIND_TRUE:
            value, err = float(domain_sizes[row]), 0.0
        elif kind == KIND_FALSE:
            value, err = -math.inf, 0.0
        elif kind == KIND_LITERAL:
            value, err = 0.0, 0.0
        elif kind == KIND_AND:
            value, err = 0.0, 0.0
            for child in arena.child_rows(row):
                value += logs[child]
                err += errs[child] + FLOAT_ERROR_UNIT
        elif kind == KIND_OR:
            # #or = 2^d - prod(2^d_c - #c): accumulate the non-model
            # product in log space, then one (possibly cancelling) sub.
            non_log, err = 0.0, 0.0
            for child in arena.child_rows(row):
                child_non = log2_sub(float(domain_sizes[child]), logs[child])
                non_log += child_non
                err += _sub_error(float(domain_sizes[child]), logs[child],
                                  errs[child])
            space = float(domain_sizes[row])
            value = log2_sub(space, non_log)
            err = _sub_error(space, non_log, err)
        elif kind == KIND_XOR:
            value, err = -math.inf, 0.0
            for child in arena.child_rows(row):
                value = log2_add(value, logs[child])
                err = max(err, errs[child]) + FLOAT_ERROR_UNIT
        else:
            raise IncompleteArenaError(
                "float counting requires a complete d-tree; "
                "found an undecomposed leaf")
        logs[row] = value
        errs[row] = err
    arena.payloads["float_counts"] = logs
    arena.payloads["float_count_errs"] = errs
    return logs, errs


def arena_float_banzhaf(arena: DTreeArena
                        ) -> Dict[int, Tuple[float, float]]:
    """Float fused Banzhaf pass: ``{variable: (log2 |score|, rel_err)}``.

    Mirrors :func:`arena_banzhaf` in log2 space.  Banzhaf scores of
    monotone lineages are non-negative, but per-literal contributions
    carry signs (negated Shannon literals), so positive and negative
    mass accumulate separately and combine with one final subtraction —
    whose cancellation, if any, lands in the error bound.  A score of
    zero is ``-inf``.  Cached in ``results["float_banzhaf"]``.
    """
    cached = arena.results.get("float_banzhaf")
    if cached is not None:
        return cached  # type: ignore[return-value]
    logs, errs = arena_float_counts(arena)
    kinds = arena.kinds
    domain_sizes = arena.domain_sizes
    size = len(kinds)
    multipliers: List[float] = [-math.inf] * size
    mult_errs: List[float] = [0.0] * size
    multipliers[size - 1] = 0.0
    positive: Dict[int, Tuple[float, float]] = {}
    negative: Dict[int, Tuple[float, float]] = {}
    for row in range(size - 1, -1, -1):
        multiplier = multipliers[row]
        if multiplier == -math.inf:
            continue
        mult_err = mult_errs[row]
        kind = kinds[row]
        if kind == KIND_LITERAL:
            bucket = negative if arena.negated[row] else positive
            variable = arena.variables[row]
            log, err = bucket.get(variable, (-math.inf, 0.0))
            bucket[variable] = (log2_add(log, multiplier),
                                max(err, mult_err) + FLOAT_ERROR_UNIT)
        elif kind == KIND_AND or kind == KIND_OR:
            conjunction = kind == KIND_AND
            child_rows = list(arena.child_rows(row))
            values: List[float] = []
            value_errs: List[float] = []
            for child in child_rows:
                if conjunction:
                    values.append(logs[child])
                    value_errs.append(errs[child])
                else:
                    space = float(domain_sizes[child])
                    values.append(log2_sub(space, logs[child]))
                    value_errs.append(
                        _sub_error(space, logs[child], errs[child]))
            count = len(values)
            prefixes = [0.0] * (count + 1)
            prefix_errs = [0.0] * (count + 1)
            for position in range(count):
                prefixes[position + 1] = prefixes[position] + values[position]
                prefix_errs[position + 1] = (
                    prefix_errs[position] + value_errs[position]
                    + FLOAT_ERROR_UNIT)
            suffix = 0.0
            suffix_err = 0.0
            for position in range(count - 1, -1, -1):
                child = child_rows[position]
                contribution = multiplier + prefixes[position] + suffix
                contribution_err = (mult_err + prefix_errs[position]
                                    + suffix_err + FLOAT_ERROR_UNIT)
                if multipliers[child] == -math.inf:
                    multipliers[child] = contribution
                    mult_errs[child] = contribution_err
                else:
                    multipliers[child] = log2_add(
                        multipliers[child], contribution)
                    mult_errs[child] = (max(mult_errs[child],
                                            contribution_err)
                                        + FLOAT_ERROR_UNIT)
                suffix += values[position]
                suffix_err += value_errs[position] + FLOAT_ERROR_UNIT
        elif kind == KIND_XOR:
            for child in arena.child_rows(row):
                if multipliers[child] == -math.inf:
                    multipliers[child] = multiplier
                    mult_errs[child] = mult_err
                else:
                    multipliers[child] = log2_add(
                        multipliers[child], multiplier)
                    mult_errs[child] = (max(mult_errs[child], mult_err)
                                        + FLOAT_ERROR_UNIT)
    scores: Dict[int, Tuple[float, float]] = {}
    for variable in arena.domains[size - 1]:
        pos_log, pos_err = positive.get(variable, (-math.inf, 0.0))
        neg_log, neg_err = negative.get(variable, (-math.inf, 0.0))
        if neg_log == -math.inf:
            scores[variable] = (pos_log, pos_err)
        elif pos_log >= neg_log:
            scores[variable] = (log2_sub(pos_log, neg_log),
                                _sub_error(pos_log, neg_log,
                                           max(pos_err, neg_err)))
        else:
            # Negative net score cannot happen for monotone lineages;
            # poison rather than mis-rank if it ever does.
            scores[variable] = (log2_sub(neg_log, pos_log), math.inf)
    arena.results["float_banzhaf"] = scores
    return scores


def float_banzhaf_pass(arena: DTreeArena, stats=None
                       ) -> Dict[int, Tuple[float, float]]:
    """:func:`arena_float_banzhaf`, reported as a hit or ``float``."""
    stats = stats if stats is not None else _NULL_STATS
    cached = arena.results.get("float_banzhaf")
    if cached is not None:
        stats.bump(payload_hits=1)
        return cached  # type: ignore[return-value]
    with stats.timed_pass("float"):
        return arena_float_banzhaf(arena)


def _dnf_leaf_estimates(function: DNF, domain_size: int
                        ) -> Tuple[float, Dict[int, float]]:
    """Closed-form independence estimates for an undecomposed DNF leaf.

    Treating clauses as independent events over the leaf's ``d``-variable
    domain, a clause of width ``w`` is satisfied with probability
    ``2**-w``, so::

        log2(count_est)      = d + sum_c log2(1 - 2**-w_c)          # non-models
        log2(banzhaf_est(x)) = (d-1) + sum_{c w/o x} log2(1 - 2**-w_c)
                               + log2(1 - prod_{c with x} (1 - 2**-(w_c-1)))

    (the last factor is the probability that flipping ``x`` to true
    fires at least one clause containing it).  Exactness is irrelevant
    here — only the surrogate *order* is consumed.  Returns
    ``(log2 count_est, {variable: log2 banzhaf_est})``.
    """
    clauses = list(function.clauses)
    widths = [len(clause) for clause in clauses]
    per_clause_miss = [log2_sub(0.0, -float(width)) for width in widths]
    total_miss = sum(per_clause_miss)
    count_est = log2_sub(float(domain_size), float(domain_size) + total_miss)
    estimates: Dict[int, float] = {}
    by_variable: Dict[int, List[int]] = {}
    for clause, width in zip(clauses, widths):
        for variable in clause:
            by_variable.setdefault(variable, []).append(width)
    for variable, member_widths in by_variable.items():
        without = total_miss - sum(
            per_clause_miss[i] for i, clause in enumerate(clauses)
            if variable in clause)
        # ln prod_{c with x} (1 - 2**-(w_c - 1)); width-1 clause {x}
        # always fires => product 0 => flip factor log2(1) = 0.
        if any(width == 1 for width in member_widths):
            flip = 0.0
        else:
            ln_stay = sum(math.log1p(-(2.0 ** -(width - 1)))
                          for width in member_widths)
            if ln_stay == 0.0:
                estimates[variable] = -math.inf
                continue
            flip = math.log2(-math.expm1(ln_stay))
        estimates[variable] = (domain_size - 1) + without + flip
    return count_est, estimates


def arena_float_surrogate(arena: DTreeArena) -> Dict[int, float]:
    """Surrogate Banzhaf order estimates for a (possibly partial) tree.

    Runs the same fused pass shape as :func:`arena_float_banzhaf` but
    replaces every undecomposed ``KIND_DNF`` leaf with the closed-form
    independence estimates of :func:`_dnf_leaf_estimates`.  The returned
    ``{variable: log2 estimate}`` carries **order information only** — no
    error bound, no exactness claim; callers must mark results as
    non-converged surrogates.  Cached in ``results["float_surrogate"]``.
    """
    cached = arena.results.get("float_surrogate")
    if cached is not None:
        return cached  # type: ignore[return-value]
    kinds = arena.kinds
    domain_sizes = arena.domain_sizes
    size = len(kinds)
    # Bottom-up: estimated log2 counts (exact rules, DNF rows estimated).
    logs: List[float] = [0.0] * size
    leaf_scores: List[Optional[Dict[int, float]]] = [None] * size
    for row in range(size):
        kind = kinds[row]
        if kind == KIND_TRUE:
            logs[row] = float(domain_sizes[row])
        elif kind == KIND_FALSE:
            logs[row] = -math.inf
        elif kind == KIND_LITERAL:
            logs[row] = 0.0
        elif kind == KIND_DNF:
            count_est, estimates = _dnf_leaf_estimates(
                arena.leaf_functions[row], domain_sizes[row])
            logs[row] = count_est
            leaf_scores[row] = estimates
        elif kind == KIND_AND:
            logs[row] = sum(logs[child] for child in arena.child_rows(row))
        elif kind == KIND_OR:
            non_log = sum(
                log2_sub(float(domain_sizes[child]), logs[child])
                for child in arena.child_rows(row))
            logs[row] = log2_sub(float(domain_sizes[row]), non_log)
        else:  # KIND_XOR
            value = -math.inf
            for child in arena.child_rows(row):
                value = log2_add(value, logs[child])
            logs[row] = value
    # Top-down multipliers, literals and DNF leaves collect estimates.
    multipliers: List[float] = [-math.inf] * size
    multipliers[size - 1] = 0.0
    estimates: Dict[int, float] = {
        variable: -math.inf for variable in arena.domains[size - 1]}
    for row in range(size - 1, -1, -1):
        multiplier = multipliers[row]
        if multiplier == -math.inf:
            continue
        kind = kinds[row]
        if kind == KIND_LITERAL:
            if not arena.negated[row]:
                variable = arena.variables[row]
                estimates[variable] = log2_add(
                    estimates.get(variable, -math.inf), multiplier)
            # Negated Shannon literals would subtract; the surrogate
            # keeps the dominant positive mass (order heuristic).
        elif kind == KIND_DNF:
            for variable, estimate in leaf_scores[row].items():
                # Leaf estimates are absolute over the leaf domain; the
                # multiplier rescales them into the root space.
                estimates[variable] = log2_add(
                    estimates.get(variable, -math.inf),
                    multiplier + estimate - (domain_sizes[row] - 1))
        elif kind == KIND_AND or kind == KIND_OR:
            conjunction = kind == KIND_AND
            child_rows = list(arena.child_rows(row))
            values = []
            for child in child_rows:
                if conjunction:
                    values.append(logs[child])
                else:
                    values.append(log2_sub(float(domain_sizes[child]),
                                           logs[child]))
            count = len(values)
            prefixes = [0.0] * (count + 1)
            for position in range(count):
                prefixes[position + 1] = prefixes[position] + values[position]
            suffix = 0.0
            for position in range(count - 1, -1, -1):
                child = child_rows[position]
                contribution = multiplier + prefixes[position] + suffix
                multipliers[child] = log2_add(
                    multipliers[child], contribution)
                suffix += values[position]
        else:  # KIND_XOR
            for child in arena.child_rows(row):
                multipliers[child] = log2_add(
                    multipliers[child], multiplier)
    # Wait-for-DNF leaves rescaled by multiplier - (d_leaf - 1): the leaf
    # estimate already includes its own 2^(d-1) factor, the multiplier
    # contributes the sibling product over the remaining variables.
    arena.results["float_surrogate"] = estimates
    return estimates


def float_surrogate_pass(arena: DTreeArena, stats=None) -> Dict[int, float]:
    """:func:`arena_float_surrogate`, reported as a hit or ``surrogate``."""
    stats = stats if stats is not None else _NULL_STATS
    cached = arena.results.get("float_surrogate")
    if cached is not None:
        stats.bump(payload_hits=1)
        return cached  # type: ignore[return-value]
    with stats.timed_pass("surrogate"):
        return arena_float_surrogate(arena)


def pow2_int(log2_value: float, err: float = 0.0, *, ceil: bool = False
             ) -> int:
    """Exact integer ``2**(log2_value +- err)``, floor or ceil.

    Converts a float-tier log score into an exact bound the interval
    machinery understands: ``floor(2**(log2_value - err'))`` or
    ``ceil(2**(log2_value + err'))`` where ``err'`` is ``err`` converted
    from relative error to a log2 half-width.  Works for arbitrarily
    large magnitudes via mantissa shifting; clamps at zero; ``-inf``
    maps to 0 (and 1 when ``ceil`` with positive error is requested of a
    genuinely unknown zero — callers pass ``-inf`` only for exact zero,
    which stays 0).
    """
    if log2_value == -math.inf:
        return 0
    if not math.isfinite(log2_value) or not math.isfinite(err):
        raise ValueError("cannot convert an unbounded float score")
    half_width = err / _LN2  # log2(1 + err) <= err / ln 2
    target = log2_value + half_width if ceil else log2_value - half_width
    floor_target = math.floor(target)
    frac = target - floor_target
    # 2**frac in [1, 2); scale into a 64-bit mantissa with 1-ulp slack.
    mantissa = int(2.0 ** (frac + 53))
    slack = 2
    if ceil:
        mantissa += slack
        shift = floor_target - 53
        if shift >= 0:
            result = mantissa << shift
        else:
            divisor = 1 << (-shift)
            result = -((-mantissa) // divisor)  # ceil division
        return max(result, 1)
    mantissa = max(mantissa - slack, 0)
    shift = floor_target - 53
    if shift >= 0:
        result = mantissa << shift
    else:
        result = mantissa >> (-shift)
    return max(result, 0)
