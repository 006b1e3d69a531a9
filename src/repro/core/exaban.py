"""ExaBan: exact Banzhaf values over complete d-trees (Fig. 1 of the paper).

The algorithm is a bottom-up evaluation of the d-tree.  At each node it
maintains the pair ``(Banzhaf(phi, x), #phi)`` for the function ``phi``
represented by the subtree, combining children with Eq. (4)-(9):

* independent AND (``⊙``): counts multiply; the Banzhaf value of the child
  containing ``x`` is scaled by the product of the other children's counts;
* independent OR (``⊗``): *non*-model counts multiply; the Banzhaf value of
  the child containing ``x`` is scaled by the product of the other children's
  non-model counts;
* exclusive OR (``⊕``): counts and Banzhaf values add.

``exaban_all`` computes the Banzhaf values of *all* variables in two linear
passes (one bottom-up for counts, one top-down for per-leaf multipliers),
which is how the paper's prototype shares work across variables.

The public entry points (:func:`model_count`, :func:`exaban`,
:func:`exaban_all`) run over the **arena** backend
(:mod:`repro.dtree.arena`): the tree is flattened once into
postorder-contiguous struct-of-arrays columns (cached in the root's
node cache, invalidated with it on mutation) and the passes become tight
index loops.  The original object-tree walks are kept verbatim as
:func:`model_count_objects` / :func:`exaban_all_objects` — they are the
PR 5 baseline that ``bench_arena.py`` measures against and that the
differential test suite cross-checks, and they remain fully supported
(arbitrarily deep Shannon chains never hit the recursion limit in either
backend).

The optional ``counts`` memo (node id -> subtree count) is still
honoured: the arena keeps counts in its ``"counts"`` payload column and
mirrors them into the caller's memo, so engine code that shares a memo
through :class:`repro.engine.artifact.CompiledLineage` keeps its
skip-recount behaviour and its cache-hit accounting.  Sibling products
in the top-down passes use prefix/suffix products, so wide decomposable
nodes cost O(children), not O(children^2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dtree.arena import (
    DTreeArena,
    IncompleteArenaError,
    arena_counts,
    arena_of,
    banzhaf_pass,
    counts_pass,
)
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


class IncompleteDTreeError(Exception):
    """Raised when an exact computation is attempted on a partial d-tree."""


#: Node-id -> exact model count of the subtree.  Valid only while the tree
#: object is alive and unmutated; complete compiled artifacts guarantee both.
CountMemo = Dict[int, int]


def _count_subtree(root: DTreeNode, counts: CountMemo) -> None:
    """Fill ``counts`` with the model count of every node under ``root``.

    Iterative postorder; subtrees whose root is already in the memo are
    skipped without descending into them.
    """
    pending: List[DTreeNode] = [root]
    postorder: List[DTreeNode] = []
    while pending:
        node = pending.pop()
        if id(node) in counts:
            continue
        postorder.append(node)
        pending.extend(node.children())
    for node in reversed(postorder):
        key = id(node)
        if key in counts:
            continue
        if isinstance(node, TrueLeaf):
            value = 1 << len(node.domain)
        elif isinstance(node, FalseLeaf):
            value = 0
        elif isinstance(node, LiteralLeaf):
            value = 1
        elif isinstance(node, DNFLeaf):
            raise IncompleteDTreeError(
                "exact counting requires a complete d-tree; found an "
                "undecomposed leaf"
            )
        elif isinstance(node, DecompAnd):
            value = 1
            for child in node.children():
                value *= counts[id(child)]
        elif isinstance(node, DecompOr):
            non_models = 1
            for child in node.children():
                non_models *= (1 << len(child.domain)) - counts[id(child)]
            value = (1 << len(node.domain)) - non_models
        elif isinstance(node, ExclusiveOr):
            value = sum(counts[id(child)] for child in node.children())
        else:
            raise TypeError(f"unknown d-tree node type {type(node).__name__}")
        counts[key] = value


def model_count_objects(node: DTreeNode,
                        counts: Optional[CountMemo] = None) -> int:
    """Object-tree model count: the PR 5 baseline walk.

    Same contract as :func:`model_count`, but walks the linked
    :class:`DTreeNode` graph with an explicit stack instead of the arena
    columns.  Kept as the differential baseline and benchmark reference.
    """
    memo: CountMemo = counts if counts is not None else {}
    _count_subtree(node, memo)
    return memo[id(node)]


def _arena_for_exact(node: DTreeNode,
                     stats=None) -> Tuple[DTreeArena, List[int]]:
    """Flatten ``node`` and run the exact count pass, translating errors."""
    arena = arena_of(node)
    try:
        column = counts_pass(arena, stats=stats)
    except IncompleteArenaError as error:
        raise IncompleteDTreeError(str(error)) from None
    return arena, column


def _mirror_counts(arena: DTreeArena, column: List[int],
                   counts: Optional[CountMemo]) -> None:
    """Copy the arena count column into a caller-supplied node-id memo."""
    if counts is None or id(arena.nodes[-1]) in counts:
        return
    for row, node in enumerate(arena.nodes):
        counts[id(node)] = column[row]


def model_count(node: DTreeNode, counts: Optional[CountMemo] = None,
                stats=None) -> int:
    """Exact model count ``#phi`` of the function represented by ``node``.

    Requires a complete d-tree (no :class:`DNFLeaf` leaves).  Runs over
    the cached arena; ``counts`` is an optional shared memo (node id ->
    count) kept in sync with the arena's count column so legacy callers
    (and the engine's memo-hit accounting) keep working.  ``stats`` is an
    optional :class:`~repro.engine.stats.EngineStats` that the pass
    reports to (see :func:`repro.dtree.arena.counts_pass`).
    """
    arena, column = _arena_for_exact(node, stats=stats)
    _mirror_counts(arena, column, counts)
    return column[arena.root]


def _sibling_products(values: List[int]) -> List[int]:
    """For each index, the product of all *other* entries (prefix/suffix)."""
    size = len(values)
    prefix = [1] * (size + 1)
    for index, value in enumerate(values):
        prefix[index + 1] = prefix[index] * value
    others = [0] * size
    suffix = 1
    for index in range(size - 1, -1, -1):
        others[index] = prefix[index] * suffix
        suffix *= values[index]
    return others


def _push_multipliers(root: DTreeNode, counts: CountMemo,
                      banzhaf: Dict[int, int]) -> None:
    """Top-down multiplier pass accumulating signed multipliers per literal."""
    stack: List[Tuple[DTreeNode, int]] = [(root, 1)]
    while stack:
        node, multiplier = stack.pop()
        if multiplier == 0:
            continue
        if isinstance(node, LiteralLeaf):
            sign = -1 if node.negated else 1
            banzhaf[node.variable] += sign * multiplier
            continue
        if isinstance(node, (TrueLeaf, FalseLeaf)):
            continue
        children = node.children()
        if isinstance(node, DecompAnd):
            child_counts = [counts[id(child)] for child in children]
            for child, others in zip(children,
                                     _sibling_products(child_counts)):
                stack.append((child, multiplier * others))
        elif isinstance(node, DecompOr):
            non_models = [
                (1 << len(child.domain)) - counts[id(child)]
                for child in children
            ]
            for child, others in zip(children, _sibling_products(non_models)):
                stack.append((child, multiplier * others))
        elif isinstance(node, ExclusiveOr):
            for child in children:
                stack.append((child, multiplier))
        else:
            raise TypeError(f"unknown d-tree node type {type(node).__name__}")


def exaban(node: DTreeNode, variable: int,
           counts: Optional[CountMemo] = None,
           stats=None) -> Tuple[int, int]:
    """Exact ``(Banzhaf(phi, x), #phi)`` for one variable (Fig. 1).

    ``variable`` need not occur in the function; its Banzhaf value is then 0.
    Raises :class:`IncompleteDTreeError` on partial d-trees.  ``counts`` is
    the optional shared subtree-count memo (see :func:`model_count`).

    Runs over the cached arena: the fused all-variables pass is computed
    once and memoized on the arena, so repeated single-variable queries
    against one tree cost a dict lookup after the first.
    """
    arena = arena_of(node)
    try:
        # The fused pass fills the counts payload too, so the count read
        # below never runs a second bottom-up pass.
        result = banzhaf_pass(arena, stats=stats)
    except IncompleteArenaError as error:
        raise IncompleteDTreeError(str(error)) from None
    column = arena_counts(arena)
    _mirror_counts(arena, column, counts)
    return result.get(variable, 0), column[arena.root]


def exaban_objects(node: DTreeNode, variable: int,
                   counts: Optional[CountMemo] = None) -> Tuple[int, int]:
    """Object-tree single-variable ExaBan: the PR 5 restricted walk."""
    memo: CountMemo = counts if counts is not None else {}
    _count_subtree(node, memo)
    banzhaf: Dict[int, int] = {variable: 0}

    # Restricted top-down pass: only the target variable's literal leaves
    # contribute, but the multiplier flow is the same as exaban_all's.
    stack: List[Tuple[DTreeNode, int]] = [(node, 1)]
    while stack:
        current, multiplier = stack.pop()
        if multiplier == 0 or variable not in current.domain:
            continue
        if isinstance(current, LiteralLeaf):
            if current.variable == variable:
                sign = -1 if current.negated else 1
                banzhaf[variable] += sign * multiplier
            continue
        if isinstance(current, (TrueLeaf, FalseLeaf)):
            continue
        children = current.children()
        if isinstance(current, DecompAnd):
            child_counts = [memo[id(child)] for child in children]
            for child, others in zip(children,
                                     _sibling_products(child_counts)):
                stack.append((child, multiplier * others))
        elif isinstance(current, DecompOr):
            non_models = [
                (1 << len(child.domain)) - memo[id(child)]
                for child in children
            ]
            for child, others in zip(children, _sibling_products(non_models)):
                stack.append((child, multiplier * others))
        elif isinstance(current, ExclusiveOr):
            for child in children:
                stack.append((child, multiplier))
        else:
            raise TypeError(
                f"unknown d-tree node type {type(current).__name__}")
    return banzhaf[variable], memo[id(node)]


def exaban_all(node: DTreeNode,
               counts: Optional[CountMemo] = None,
               stats=None) -> Dict[int, int]:
    """Exact Banzhaf values of *all* domain variables in two passes.

    The bottom-up pass computes model counts; the top-down pass pushes a
    multiplier to every leaf (the product of sibling counts / non-model
    counts along the path), so that the Banzhaf value of a variable is the
    signed sum of the multipliers of its literal leaves.  Variables in the
    domain that never occur as literals get the Banzhaf value 0.

    Runs over the cached arena (see :func:`repro.dtree.arena.arena_banzhaf`)
    and memoizes the full result on it, so a second call against the same
    unmutated tree is a cache hit.  ``counts`` is the optional shared
    subtree-count memo: the arena's count column is mirrored into it, so
    later :func:`model_count` / :func:`exaban` calls through the same memo
    (or the object-tree baselines) never recount a subtree.  ``stats`` is
    an optional :class:`~repro.engine.stats.EngineStats` that the pass
    reports to (see :func:`repro.dtree.arena.banzhaf_pass`).
    """
    arena = arena_of(node)
    try:
        result = banzhaf_pass(arena, stats=stats)
    except IncompleteArenaError as error:
        raise IncompleteDTreeError(str(error)) from None
    _mirror_counts(arena, arena_counts(arena), counts)
    return dict(result)


def exaban_all_objects(node: DTreeNode,
                       counts: Optional[CountMemo] = None) -> Dict[int, int]:
    """Object-tree fused all-variables pass: the PR 5 baseline.

    Identical contract and bit-identical results to :func:`exaban_all`;
    kept as the measured baseline for ``bench_arena.py`` and the
    differential suite.
    """
    memo: CountMemo = counts if counts is not None else {}
    _count_subtree(node, memo)
    banzhaf: Dict[int, int] = {var: 0 for var in node.domain}
    _push_multipliers(node, memo, banzhaf)
    return banzhaf
