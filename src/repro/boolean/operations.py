"""Structural operations on positive DNF functions.

The d-tree compiler needs three structural primitives (Section 3.1):

* *independence partitioning*: split a DNF into connected components that
  share no variables (a disjunction of independent functions);
* *factoring out* variables common to all clauses (a conjunction of a literal
  product with the residual function);
* *Shannon expansion* on a chosen variable, yielding two mutually exclusive
  functions over the same variables.

All functions here are pure: they return new :class:`~repro.boolean.dnf.DNF`
objects and never mutate their inputs.

Each primitive runs on the bitset kernel: a support-merge scan for
components, a single AND-reduction for factoring, mask surgery for
conditioning.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple

from repro.boolean.bitset import (
    component_groups,
    project_mask,
    projection_table,
)
from repro.boolean.dnf import ConstantTrue, DNF


def cofactor(function: DNF, variable: int, value: bool) -> DNF:
    """Alias for :meth:`DNF.cofactor`; may raise :class:`ConstantTrue`."""
    return function.cofactor(variable, value)


def condition(function: DNF, trues: Sequence[int], falses: Sequence[int]) -> DNF:
    """Cofactor on several variables at once.

    Raises :class:`ConstantTrue` if the function collapses to the constant 1.
    """
    result = function
    for variable in falses:
        if variable in result.domain:
            result = result.cofactor(variable, False)
    for variable in trues:
        if variable in result.domain:
            result = result.cofactor(variable, True)
    return result


def is_independent(left: DNF, right: DNF) -> bool:
    """``True`` iff the two functions share no occurring variables."""
    return not (left.variables & right.variables)


def is_mutually_exclusive(left: DNF, right: DNF) -> bool:
    """``True`` iff the two functions have no common model (brute force).

    Exhaustive over the union of the domains; used in tests and assertions,
    never on large functions.
    """
    domain = left.domain | right.domain
    wide_left = left.with_domain(domain)
    wide_right = right.with_domain(domain)
    variables = sorted(domain)
    for mask in range(1 << len(variables)):
        assignment = frozenset(
            variables[i] for i in range(len(variables)) if mask >> i & 1
        )
        if wide_left.evaluate(assignment) and wide_right.evaluate(assignment):
            return False
    return True


def independent_components(function: DNF) -> List[DNF]:
    """Split a DNF into independent sub-functions (disjunction decomposition).

    The clauses are partitioned into connected components; each component
    becomes a DNF over exactly its own variables.  Domain variables that occur
    in no clause ("silent" variables) are returned as part of the *last*
    component's domain only if there is at least one component; if the
    function is constant false the single false component keeps the whole
    domain.  Callers that need precise bookkeeping of silent variables (the
    d-tree compiler) handle them explicitly before calling this function.
    """
    if function.is_false():
        return [function]
    kernel = function._bitset()
    groups = component_groups(kernel.masks)
    if len(groups) == 1:
        return [function.restricted_domain()]
    order = kernel.order
    width = len(order)
    result: List[DNF] = []
    for group in groups:
        support = 0
        for mask in group:
            support |= mask
        if len(group) == 1:
            # Single-clause component: its projection is the full mask
            # over its own variables -- no table needed.
            component_order = []
            remaining = support
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                component_order.append(order[low.bit_length() - 1])
            count = len(component_order)
            result.append(DNF._from_kernel(
                [(1 << count) - 1], tuple(component_order),
                normalized=True, support=(1 << count) - 1))
            continue
        table = projection_table(support, width)
        component_order = []
        remaining = support
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            component_order.append(order[low.bit_length() - 1])
        result.append(DNF._from_kernel(
            [project_mask(mask, table) for mask in group],
            tuple(component_order), normalized=True,
            support=(1 << len(component_order)) - 1))
    return result


def factor_common_variables(function: DNF) -> Tuple[FrozenSet[int], DNF]:
    """Factor out variables occurring in every clause.

    Returns ``(common, residual)`` such that the function equals the
    conjunction of all variables in ``common`` with ``residual``, and
    ``residual`` is over ``domain - common``.  If a clause consists solely of
    common variables the residual is the constant 1; this is signalled with
    :class:`ConstantTrue` carrying the residual domain.
    """
    kernel = function._bitset()
    common_mask = kernel.common_mask()
    if not common_mask:
        return frozenset(), function
    order = kernel.order
    keep_mask = ((1 << len(order)) - 1) ^ common_mask
    residual_order = []
    remaining = keep_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        residual_order.append(order[low.bit_length() - 1])
    residual_order = tuple(residual_order)
    table = projection_table(keep_mask, len(order))
    residual_masks = []
    for mask in kernel.masks:
        reduced = mask & keep_mask
        if not reduced:
            raise ConstantTrue(frozenset(residual_order))
        residual_masks.append(project_mask(reduced, table))
    common = kernel.variables_of_mask(common_mask)
    # Every mask carried the full common set, so projecting it away is
    # order- and distinctness-preserving.
    return common, DNF._from_kernel(
        residual_masks, residual_order, normalized=True,
        support=project_mask(kernel.support & keep_mask, table))


def shannon_expansion(function: DNF, variable: int) -> Tuple[DNF, DNF]:
    """Shannon expansion ``phi = (x & phi[x:=1]) | (~x & phi[x:=0])``.

    Returns the pair ``(phi[x:=1], phi[x:=0])``, both over the domain minus
    ``x``.  The positive cofactor may be the constant 1, in which case
    :class:`ConstantTrue` propagates to the caller (the d-tree compiler turns
    it into a constant leaf).
    """
    if variable not in function.domain:
        raise ValueError(f"variable {variable} not in the function's domain")
    negative = function.cofactor(variable, False)
    positive = function.cofactor(variable, True)
    return positive, negative
