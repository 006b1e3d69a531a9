"""Lower/upper bounds on Banzhaf values and model counts for partial d-trees.

This implements the ``bounds`` procedure of Fig. 2 in the paper, generalized
to n-ary d-tree nodes.  At a non-trivial leaf (an undecomposed positive DNF
function) the bounds come from the iDNF syntheses ``L`` and ``U``
(Proposition 12); at trivial leaves the exact values are used; at inner nodes
the children's bounds are combined by the monotone versions of Eq. (4)-(9):
lower bounds of positively-occurring terms and upper bounds of
negatively-occurring terms give a lower bound, and vice versa.

Bounds are cached on the nodes (the paper's optimization (2)): the
incremental compiler invalidates exactly the path from an expanded leaf to
the root, so re-evaluating the bounds after an expansion touches only that
path.  There are two walks: the count bounds, and per variable the Banzhaf
bounds, which at each node whose domain holds the variable also take the
bounds on ``#phi[x := 0]`` for optimization (4), kept in the same cache
entry.  Both are **iterative** (explicit-stack postorder that stops
descending at cached subtrees and visits a shared node once), matching the
counting passes in :mod:`repro.core.exaban`: deep Shannon chains in a
partial tree never hit the interpreter recursion limit.

A :class:`WorkMeter` counts an evaluation's work in deterministic units, by
which the anytime schedule sizes its batches, and stops it at a deadline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.boolean.idnf import clause_order, cofactor_counts, synthesis_counts
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

_COUNT_KEY = "count_bounds"
_ORDER_KEY = "clause_order"
_BOUNDS_KEY = "banzhaf_bounds"


class DeadlineExpired(Exception):
    """Raised by :func:`check_deadline` once its deadline has passed."""


def check_deadline(deadline: Optional[float]) -> None:
    """Raise :class:`DeadlineExpired` once monotonic ``deadline`` passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExpired("deadline passed")


class WorkMeter:
    """One evaluation's work, and the deadline no node bound is computed past.

    A computed node bound (a count, Banzhaf or cofactor count bound) costs
    1 unit, a ``DNFLeaf``'s its clause count.
    """

    __slots__ = ("units", "deadline")

    def __init__(self, deadline: Optional[float] = None) -> None:
        self.units = 0
        self.deadline = deadline


def _charge(meter: Optional[WorkMeter], node: DTreeNode) -> None:
    """Charge the bound ``node`` is about to get (checks the deadline)."""
    if meter is not None:
        check_deadline(meter.deadline)
        meter.units += node.priority[0] if isinstance(node, DNFLeaf) else 1


@dataclass(frozen=True)
class BanzhafBounds:
    """Bounds on the Banzhaf value of one variable and on the model count.

    Attributes mirror the quadruple ``(Lb, L#, Ub, U#)`` of Fig. 2.
    """

    banzhaf_lower: int
    count_lower: int
    banzhaf_upper: int
    count_upper: int

    def __post_init__(self) -> None:
        if self.banzhaf_lower > self.banzhaf_upper:
            raise ValueError("banzhaf lower bound exceeds upper bound")
        if self.count_lower > self.count_upper:
            raise ValueError("count lower bound exceeds upper bound")

    def is_exact(self) -> bool:
        """``True`` iff both intervals are single points."""
        return (self.banzhaf_lower == self.banzhaf_upper
                and self.count_lower == self.count_upper)


def _count_bounds_node(node: DTreeNode) -> tuple[int, int]:
    """Count bounds of one node; inner nodes read their children's cache."""
    if isinstance(node, TrueLeaf):
        return (1 << len(node.domain),) * 2
    if isinstance(node, FalseLeaf):
        return (0, 0)
    if isinstance(node, LiteralLeaf):
        return (1, 1)
    if isinstance(node, DNFLeaf):
        n = node.function.num_variables()
        return synthesis_counts(_leaf_order(node), (1 << n) - 1, n)
    if isinstance(node, DecompAnd):
        lower, upper = 1, 1
        for child in node.children():
            child_lower, child_upper = child.cache_get(_COUNT_KEY)
            lower *= child_lower
            upper *= child_upper
        return (lower, upper)
    if isinstance(node, DecompOr):
        non_lower, non_upper = 1, 1
        for child in node.children():
            child_lower, child_upper = child.cache_get(_COUNT_KEY)
            space = 1 << len(child.domain)
            non_lower *= space - child_upper
            non_upper *= space - child_lower
        space = 1 << len(node.domain)
        return (space - non_upper, space - non_lower)
    if isinstance(node, ExclusiveOr):
        lower = sum(child.cache_get(_COUNT_KEY)[0]
                    for child in node.children())
        upper = sum(child.cache_get(_COUNT_KEY)[1]
                    for child in node.children())
        return (lower, upper)
    raise TypeError(f"unknown d-tree node type {type(node).__name__}")


def _uncached_postorder(node: DTreeNode, key: object,
                        variable: Optional[int]) -> List[DTreeNode]:
    """The distinct nodes below ``node`` with no ``key`` entry, children first.

    Descends only into children whose domain holds ``variable`` (into
    every child when it is ``None``), and never below a node that has an
    entry.  An iterative depth-first postorder: a node is pushed back
    under a ``None`` marker before its children and listed when the
    marker comes up again.  A node is expanded once, so a subtree that
    several parents share is walked, evaluated and billed once.
    """
    order: List[DTreeNode] = []
    seen: set = set()
    stack: List[Optional[DTreeNode]] = [node]
    while stack:
        current = stack.pop()
        if current is None:
            order.append(stack.pop())
            continue
        if current in seen or current._cache.get(key) is not None:
            continue
        seen.add(current)
        stack.append(current)
        stack.append(None)
        for child in current.children():
            if variable is None or variable in child.domain:
                stack.append(child)
    return order


def count_bounds(node: DTreeNode,
                 meter: Optional[WorkMeter] = None) -> tuple[int, int]:
    """Lower and upper bounds on the model count of ``node`` (cached)."""
    cached = node.cache_get(_COUNT_KEY)
    if cached is not None:
        return cached  # type: ignore[return-value]
    for current in _uncached_postorder(node, _COUNT_KEY, None):
        _charge(meter, current)
        current.cache_set(_COUNT_KEY, _count_bounds_node(current))
    return node.cache_get(_COUNT_KEY)  # type: ignore[return-value]


def cofactor_count_bounds(node: DTreeNode, variable: int,
                          meter: Optional[WorkMeter] = None
                          ) -> tuple[int, int]:
    """Bounds on ``#phi[x := 0]`` over the node's domain minus ``x`` (cached).

    This powers the paper's optimization (4) in Section 3.2.4: from bounds on
    ``#phi`` and ``#phi[x := 0]`` one obtains Banzhaf bounds via
    ``Banzhaf(phi, x) = #phi - 2 * #phi[x := 0]``, which are often tighter
    than the direct Proposition 12 bounds.  Read off the node's
    :func:`bounds_for_variable` entry; for ``x`` outside the domain,
    ``phi[x := 0]`` is ``phi`` and these are its count bounds.
    """
    if variable not in node.domain:
        return count_bounds(node, meter)
    bounds_for_variable(node, variable, meter)
    return _cofactor_of(node, (_BOUNDS_KEY, variable), meter)


def _leaf_order(leaf: DNFLeaf) -> List[int]:
    """The leaf's :func:`clause_order` entries, kept in its node cache."""
    entries = leaf.cache_get(_ORDER_KEY)
    if entries is None:
        entries = clause_order(leaf.function._bitset())
        leaf.cache_set(_ORDER_KEY, entries)
    return entries  # type: ignore[return-value]


def _leaf_cofactor_counts(leaf: DNFLeaf, variable: int
                          ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The leaf's :func:`cofactor_counts` for ``variable``, memoized."""
    key = (_ORDER_KEY, variable)
    cached = leaf.cache_get(key)
    if cached is None:
        kernel = leaf.function._bitset()
        cached = cofactor_counts(_leaf_order(leaf), len(kernel.order),
                                 kernel.position_of(variable))
        leaf.cache_set(key, cached)
    return cached  # type: ignore[return-value]


def _cofactor_of(node: DTreeNode, key: object,
                 meter: Optional[WorkMeter]) -> tuple[int, int]:
    """The cofactor count bounds of ``node``'s entry, whose domain holds x.

    A literal's entry leaves them open until a node above it first reads
    them; then they are computed and billed, once.
    """
    entry = node._cache[key]
    if entry[2] is None:
        _charge(meter, node)
        value = 1 if node.negated else 0
        entry = (entry[0], entry[1], value, value)
        node._cache[key] = entry
    return entry[2], entry[3]


def _bounds_entry(node: DTreeNode, variable: int, key: object,
                  meter: Optional[WorkMeter]) -> tuple:
    """One node's ``(Lb, Ub, cofactor L#, cofactor U#)`` for ``variable``.

    Fig. 2 at one node, the cofactor bounds of ``#phi[x := 0]`` in the
    same step when the domain holds ``variable`` (billed as one more node
    bound), and then optimization (4).  Every count bound below the node
    and the entries of its children holding ``variable`` are cached.
    The cofactor bounds stay ``None`` for a domain without the variable,
    and at a literal until :func:`_cofactor_of`.
    """
    if variable not in node.domain:
        return (0, 0, None, None)
    if isinstance(node, LiteralLeaf):
        value = -1 if node.negated else 1
        return (value, value, None, None)
    _charge(meter, node)
    if isinstance(node, (DecompAnd, DecompOr)):
        # The variable is in exactly one child (disjoint domains); its
        # bounds are scaled by products over the siblings, taking lower
        # bounds of terms that occur positively and upper bounds of terms
        # that occur negatively (and vice versa for the upper bound).
        conjunction = isinstance(node, DecompAnd)
        lower_factor = upper_factor = 1
        for child in node.children():
            if variable in child.domain:
                target = child
                continue
            child_lower, child_upper = child._cache[_COUNT_KEY]
            if conjunction:
                lower_factor *= child_lower
                upper_factor *= child_upper
            else:  # DecompOr: the sibling term is the non-model count.
                space = 1 << len(child.domain)
                lower_factor *= space - child_upper
                upper_factor *= space - child_lower
        # Interval product of [Lb, Ub] (possibly spanning zero, e.g. for the
        # negated literal introduced by Shannon expansion) with the
        # non-negative sibling factor interval [lower_factor, upper_factor].
        target_lower, target_upper = target._cache[key][:2]
        candidates = (target_lower * lower_factor,
                      target_lower * upper_factor,
                      target_upper * lower_factor,
                      target_upper * upper_factor)
        lower, upper = min(candidates), max(candidates)
        cofactor_lower, cofactor_upper = _cofactor_of(target, key, meter)
        if conjunction:
            cofactor_lower *= lower_factor
            cofactor_upper *= upper_factor
        else:
            space = 1 << (len(target.domain) - 1)
            non_lower = (space - cofactor_upper) * lower_factor
            non_upper = (space - cofactor_lower) * upper_factor
            space = 1 << (len(node.domain) - 1)
            cofactor_lower, cofactor_upper = (space - non_upper,
                                              space - non_lower)
    elif isinstance(node, ExclusiveOr):
        lower = upper = cofactor_lower = cofactor_upper = 0
        for child in node.children():
            child_entry = child._cache[key]
            lower += child_entry[0]
            upper += child_entry[1]
            child_lower, child_upper = _cofactor_of(child, key, meter)
            cofactor_lower += child_lower
            cofactor_upper += child_upper
    elif isinstance(node, DNFLeaf):
        (cofactor_lower, cofactor_upper), (positive_lower, positive_upper) = \
            _leaf_cofactor_counts(node, variable)
        # Proposition 12.  The function is positive, so the Banzhaf value is
        # non-negative; clamping the lower bound at zero keeps it valid and
        # can only tighten it.
        if node.function.contains_variable(variable):
            lower = max(0, positive_lower - cofactor_upper)
            upper = max(lower, positive_upper - cofactor_lower)
        else:
            lower = upper = 0
    elif isinstance(node, TrueLeaf):
        lower = upper = 0
        cofactor_lower = cofactor_upper = 1 << (len(node.domain) - 1)
    elif isinstance(node, FalseLeaf):
        lower = upper = cofactor_lower = cofactor_upper = 0
    else:
        raise TypeError(f"unknown d-tree node type {type(node).__name__}")
    # Optimization (4): intersect with the bounds derived from
    # Banzhaf(phi, x) = #phi - 2 * #phi[x := 0].
    count_lower, count_upper = node._cache[_COUNT_KEY]
    return (max(lower, count_lower - 2 * cofactor_upper),
            min(upper, count_upper - 2 * cofactor_lower),
            cofactor_lower, cofactor_upper)


def bounds_for_variable(node: DTreeNode, variable: int,
                        meter: Optional[WorkMeter] = None) -> BanzhafBounds:
    """Fig. 2 ``bounds`` for one variable, node-cached, billed to ``meter``.

    One walk computes each node's entry (:func:`_bounds_entry`), after the
    count bounds of the whole tree.  Only subtrees containing the variable
    contribute Banzhaf bounds (a decomposable node scales exactly one
    child's bounds; exclusive children all share the parent domain).
    """
    key = (_BOUNDS_KEY, variable)
    count_lower, count_upper = count_bounds(node, meter)
    entry = node._cache.get(key)
    if entry is None:
        for current in _uncached_postorder(node, key, variable):
            _charge(meter, current)
            current._cache[key] = _bounds_entry(current, variable, key, meter)
        entry = node._cache[key]
    return BanzhafBounds(entry[0], count_lower, entry[1], count_upper)
