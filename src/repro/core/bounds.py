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
path.  All three evaluations are **iterative** (explicit-stack postorder
that stops descending at cached subtrees and visits a shared node once),
matching the counting passes in :mod:`repro.core.exaban`: deep Shannon
chains in a partial tree never hit the interpreter recursion limit.

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


class DeadlineExpired(Exception):
    """Raised by :func:`check_deadline` once its deadline has passed."""


def check_deadline(deadline: Optional[float]) -> None:
    """Raise :class:`DeadlineExpired` once monotonic ``deadline`` passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExpired("deadline passed")


class WorkMeter:
    """One evaluation's work, and the deadline no node bound is computed past.

    A computed node bound costs 1 unit, a ``DNFLeaf``'s its clause count.
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


def _cofactor_count_bounds_node(node: DTreeNode, variable: int, key: object,
                                meter: Optional[WorkMeter]
                                ) -> tuple[int, int]:
    """Cofactor count bounds of one node (children's values pre-cached)."""
    if isinstance(node, TrueLeaf):
        return (1 << (len(node.domain) - 1),) * 2
    if isinstance(node, FalseLeaf):
        return (0, 0)
    if isinstance(node, LiteralLeaf):
        if node.variable == variable:
            value = 1 if node.negated else 0
        else:
            value = 1
        return (value, value)
    if isinstance(node, DNFLeaf):
        return _leaf_cofactor_counts(node, variable)[0]
    if isinstance(node, DecompAnd):
        lower, upper = 1, 1
        for child in node.children():
            if variable in child.domain:
                child_lower, child_upper = child.cache_get(key)
            else:
                child_lower, child_upper = count_bounds(child, meter)
            lower *= child_lower
            upper *= child_upper
        return (lower, upper)
    if isinstance(node, DecompOr):
        non_lower, non_upper = 1, 1
        for child in node.children():
            if variable in child.domain:
                child_lower, child_upper = child.cache_get(key)
                space = 1 << (len(child.domain) - 1)
            else:
                child_lower, child_upper = count_bounds(child, meter)
                space = 1 << len(child.domain)
            non_lower *= space - child_upper
            non_upper *= space - child_lower
        space = 1 << (len(node.domain) - 1)
        return (space - non_upper, space - non_lower)
    if isinstance(node, ExclusiveOr):
        lower = sum(child.cache_get(key)[0] for child in node.children())
        upper = sum(child.cache_get(key)[1] for child in node.children())
        return (lower, upper)
    raise TypeError(f"unknown d-tree node type {type(node).__name__}")


def cofactor_count_bounds(node: DTreeNode, variable: int,
                          meter: Optional[WorkMeter] = None
                          ) -> tuple[int, int]:
    """Bounds on ``#phi[x := 0]`` over the node's domain minus ``x`` (cached).

    This powers the paper's optimization (4) in Section 3.2.4: from bounds on
    ``#phi`` and ``#phi[x := 0]`` one obtains Banzhaf bounds via
    ``Banzhaf(phi, x) = #phi - 2 * #phi[x := 0]``, which are often tighter
    than the direct Proposition 12 bounds.  Only called for nodes whose
    domain contains ``variable``.
    """
    key = ("cofactor_count_bounds", variable)
    cached = node.cache_get(key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    for current in _uncached_postorder(node, key, variable):
        _charge(meter, current)
        current.cache_set(key, _cofactor_count_bounds_node(
            current, variable, key, meter))
    return node.cache_get(key)  # type: ignore[return-value]


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


def _leaf_banzhaf_bounds(leaf: DNFLeaf, variable: int) -> tuple[int, int]:
    """Proposition 12 bounds for a variable in an undecomposed DNF leaf."""
    if not leaf.function.contains_variable(variable):
        return 0, 0
    (lower_negative, upper_negative), (lower_positive, upper_positive) = \
        _leaf_cofactor_counts(leaf, variable)
    # The function is positive, so the Banzhaf value is non-negative; clamping
    # the lower bound at zero keeps it valid and can only tighten it.
    lower = max(0, lower_positive - upper_negative)
    upper = upper_positive - lower_negative
    return lower, max(lower, upper)


def _bounds_node(node: DTreeNode, variable: int, key: object,
                 meter: Optional[WorkMeter]) -> BanzhafBounds:
    """Fig. 2 bounds of one node (descended children's bounds pre-cached)."""
    count_lower, count_upper = count_bounds(node, meter)

    if isinstance(node, (TrueLeaf, FalseLeaf)):
        result = BanzhafBounds(0, count_lower, 0, count_upper)
    elif isinstance(node, LiteralLeaf):
        if node.variable == variable:
            value = -1 if node.negated else 1
        else:
            value = 0
        result = BanzhafBounds(value, 1, value, 1)
    elif isinstance(node, DNFLeaf):
        lower, upper = _leaf_banzhaf_bounds(node, variable)
        result = BanzhafBounds(lower, count_lower, upper, count_upper)
    elif isinstance(node, (DecompAnd, DecompOr)):
        result = _decomposable_bounds(node, variable, key,
                                      count_lower, count_upper, meter)
    elif isinstance(node, ExclusiveOr):
        lower = 0
        upper = 0
        for child in node.children():
            child_bounds = child.cache_get(key)
            lower += child_bounds.banzhaf_lower
            upper += child_bounds.banzhaf_upper
        result = BanzhafBounds(lower, count_lower, upper, count_upper)
    else:
        raise TypeError(f"unknown d-tree node type {type(node).__name__}")

    if variable in node.domain and not isinstance(node, LiteralLeaf):
        # Optimization (4): intersect with the bounds derived from
        # Banzhaf(phi, x) = #phi - 2 * #phi[x := 0].
        cof_lower, cof_upper = cofactor_count_bounds(node, variable, meter)
        alt_lower = count_lower - 2 * cof_upper
        alt_upper = count_upper - 2 * cof_lower
        lower = max(result.banzhaf_lower, alt_lower)
        upper = min(result.banzhaf_upper, alt_upper)
        result = BanzhafBounds(lower, count_lower, upper, count_upper)

    return result


def bounds_for_variable(node: DTreeNode, variable: int,
                        meter: Optional[WorkMeter] = None) -> BanzhafBounds:
    """Fig. 2 ``bounds`` for one variable, node-cached, billed to ``meter``."""
    key = ("banzhaf_bounds", variable)
    cached = node.cache_get(key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    # Only subtrees containing the variable contribute Banzhaf bounds (a
    # decomposable node scales exactly one child's bounds; exclusive
    # children all share the parent domain).
    for current in _uncached_postorder(node, key, variable):
        _charge(meter, current)
        current.cache_set(key, _bounds_node(current, variable, key, meter))
    return node.cache_get(key)  # type: ignore[return-value]


def _decomposable_bounds(node: DTreeNode, variable: int, key: object,
                         count_lower: int, count_upper: int,
                         meter: Optional[WorkMeter]) -> BanzhafBounds:
    """Combine children bounds at an independent AND/OR node.

    The variable occurs in at most one child (disjoint domains); the bounds of
    that child are scaled by products over the siblings, taking lower bounds
    of terms that occur positively and upper bounds of terms that occur
    negatively (and vice versa for the upper bound).
    """
    children = node.children()
    target_index = None
    for index, child in enumerate(children):
        if variable in child.domain:
            target_index = index
            break
    if target_index is None:
        return BanzhafBounds(0, count_lower, 0, count_upper)

    target_bounds = children[target_index].cache_get(key)
    lower_factor = 1
    upper_factor = 1
    for index, child in enumerate(children):
        if index == target_index:
            continue
        child_lower, child_upper = count_bounds(child, meter)
        if isinstance(node, DecompAnd):
            lower_factor *= child_lower
            upper_factor *= child_upper
        else:  # DecompOr: the sibling term is the non-model count.
            space = 1 << len(child.domain)
            lower_factor *= space - child_upper
            upper_factor *= space - child_lower
    # Interval product of [Lb, Ub] (possibly spanning zero, e.g. for the
    # negated literal introduced by Shannon expansion) with the non-negative
    # sibling factor interval [lower_factor, upper_factor].
    candidates = (
        target_bounds.banzhaf_lower * lower_factor,
        target_bounds.banzhaf_lower * upper_factor,
        target_bounds.banzhaf_upper * lower_factor,
        target_bounds.banzhaf_upper * upper_factor,
    )
    return BanzhafBounds(min(candidates), count_lower,
                         max(candidates), count_upper)
