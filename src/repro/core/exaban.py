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

The entry points (:func:`model_count`, :func:`exaban`, :func:`exaban_all`)
run over the **arena** backend (:mod:`repro.dtree.arena`): the tree is
flattened once into postorder struct-of-arrays columns, one row per
distinct node (cached in the root's node cache, invalidated with it on
mutation), and the passes become tight index loops.  Subtree counts live in the arena's ``"counts"``
payload column, so every later pass over the same tree reuses them, and
arbitrarily deep Shannon chains never hit the recursion limit.
:mod:`repro.core.reference` keeps the recursive seed passes as the oracle
the differential suites check against.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.dtree.arena import (
    IncompleteArenaError,
    arena_counts,
    arena_of,
    banzhaf_pass,
    counts_pass,
)
from repro.dtree.nodes import DTreeNode


class IncompleteDTreeError(Exception):
    """Raised when an exact computation is attempted on a partial d-tree."""


def model_count(node: DTreeNode, stats=None) -> int:
    """Exact model count ``#phi`` of the function represented by ``node``.

    Requires a complete d-tree (no :class:`DNFLeaf` leaves).  Runs over
    the cached arena, whose ``"counts"`` column every later pass over the
    same tree reuses.  ``stats`` is an optional
    :class:`~repro.engine.stats.EngineStats` that the pass reports to (see
    :func:`repro.dtree.arena.counts_pass`).
    """
    arena = arena_of(node)
    try:
        column = counts_pass(arena, stats=stats)
    except IncompleteArenaError as error:
        raise IncompleteDTreeError(str(error)) from None
    return column[arena.root]


def exaban(node: DTreeNode, variable: int,
           stats=None) -> Tuple[int, int]:
    """Exact ``(Banzhaf(phi, x), #phi)`` for one variable (Fig. 1).

    ``variable`` need not occur in the function; its Banzhaf value is then 0.
    Raises :class:`IncompleteDTreeError` on partial d-trees.

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
    return result.get(variable, 0), arena_counts(arena)[arena.root]


def exaban_all(node: DTreeNode, stats=None) -> Dict[int, int]:
    """Exact Banzhaf values of *all* domain variables in two passes.

    The bottom-up pass computes model counts; the top-down pass pushes a
    multiplier to every leaf (the product of sibling counts / non-model
    counts along the path), so that the Banzhaf value of a variable is the
    signed sum of the multipliers of its literal leaves.  Variables in the
    domain that never occur as literals get the Banzhaf value 0.

    Runs over the cached arena (see :func:`repro.dtree.arena.arena_banzhaf`)
    and memoizes the full result on it, so a second call against the same
    unmutated tree is a cache hit, and later :func:`model_count` /
    :func:`exaban` calls read the counts column it filled.  ``stats`` is
    an optional :class:`~repro.engine.stats.EngineStats` that the pass
    reports to (see :func:`repro.dtree.arena.banzhaf_pass`).
    """
    arena = arena_of(node)
    try:
        result = banzhaf_pass(arena, stats=stats)
    except IncompleteArenaError as error:
        raise IncompleteDTreeError(str(error)) from None
    return dict(result)
