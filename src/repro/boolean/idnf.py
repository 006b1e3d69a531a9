"""iDNF functions and the L/U bound synthesis (Section 3.2.1).

An *iDNF* (independent DNF, also called read-once DNF) is a positive DNF in
which every variable occurs in at most one clause.  iDNF functions admit
linear-time model counting because the clauses are pairwise independent:

    #phi = 2^n - prod_over_clauses (2^{n_c} ... ) -- more precisely, the
    probability that no clause is satisfied factorizes over clauses.

The paper's approximation machinery (Proposition 12) relies on two synthesis
procedures:

* ``L(phi)``: keep a maximal subset of clauses that pairwise share no
  variables (a greedy matching).  Every model of ``L(phi)`` extends to a model
  of ``phi``, so ``#L(phi) <= #phi``.
* ``U(phi)``: keep one occurrence of each variable and drop repeated
  occurrences from later clauses.  Every model of ``phi`` is a model of
  ``U(phi)``, so ``#phi <= #U(phi)``.

Both are computable in time linear in ``|phi|`` and both produce iDNFs over
the *same domain* as ``phi`` (crucial for comparable model counts).

The bounds of every undecomposed d-tree leaf come from these syntheses,
an AdaBan hot path.  One scan (:func:`synthesis_masks`) applies both
greedy rules to the clause masks in the shortest-first order that
:func:`clause_order` encodes as sortable integers, and one product
(:func:`disjoint_count`) counts either result; :func:`cofactor_counts`
counts a leaf's two cofactors off its order.  No DNF is built.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.boolean.bitset import BitsetKernel, popcount
from repro.boolean.dnf import DNF


class IDNF:
    """A positive DNF in which every variable occurs at most once.

    Wraps a :class:`DNF` and provides exact linear-time model counting.
    """

    __slots__ = ("_dnf",)

    def __init__(self, function: DNF) -> None:
        if not is_idnf(function):
            raise ValueError("function is not an iDNF (some variable repeats)")
        self._dnf = function

    @property
    def dnf(self) -> DNF:
        """The underlying DNF."""
        return self._dnf

    def model_count(self) -> int:
        """Exact model count over the function's domain, in linear time.

        An assignment fails to satisfy the function iff it fails every
        clause.  Clauses are variable-disjoint, so the number of
        non-satisfying assignments over the occurring variables factorizes as
        the product over clauses of ``2^{|c|} - 1``.  Silent domain variables
        contribute a free factor of 2 each.
        """
        return idnf_model_count(self._dnf)


def is_idnf(function: DNF) -> bool:
    """``True`` iff no variable occurs in more than one clause."""
    seen_mask = 0
    for mask in function._bitset().masks:
        if mask & seen_mask:
            return False
        seen_mask |= mask
    return True


def idnf_model_count(function: DNF) -> int:
    """Exact model count of an iDNF over its domain (linear time).

    Raises ``ValueError`` if the function is not an iDNF.
    """
    if not is_idnf(function):
        raise ValueError("idnf_model_count requires an iDNF")
    return disjoint_count(function._bitset().masks, function.num_variables())


def disjoint_count(masks: Iterable[int], total_vars: int) -> int:
    """Models over ``total_vars`` variables of pairwise-disjoint clause masks.

    Non-models fail every clause: ``2^|c| - 1`` ways per clause, times 2
    per variable in no clause.
    """
    occurring = 0
    non_models = 1
    for mask in masks:
        width = popcount(mask)
        occurring += width
        non_models *= (1 << width) - 1
    return (1 << total_vars) - (non_models << (total_vars - occurring))


def clause_order(kernel: BitsetKernel) -> List[int]:
    """The kernel's clauses as sorted entries, in shortest-first order.

    Clauses sort by width, then by their sorted variable tuples, that is
    by their lowest differing bit: the highest differing bit of the masks
    reversed.  So over ``n`` domain bits, ``width << 2n | (full ^ reversed
    mask) << n | mask`` sorts as its clause does, and ``entry & full`` is
    its mask.  Clearing a bit a clause holds changes each field without a
    carry: one subtraction, the same for every clause holding the bit.
    """
    n = len(kernel.order)
    full = (1 << n) - 1
    entries = []
    for mask in kernel.masks:
        reversed_mask = int(format(mask, f"0{n}b")[::-1], 2)
        key = (popcount(mask) << n) | (full ^ reversed_mask)
        entries.append((key << n) | mask)
    entries.sort()
    return entries


def synthesis_masks(entries: Iterable[int], full: int
                    ) -> Tuple[List[int], List[int]]:
    """The kept masks of ``L`` and ``U`` (each pairwise disjoint), in one
    scan of the sorted :func:`clause_order` entries of distinct clauses."""
    lower: List[int] = []
    upper: List[int] = []
    used = seen = 0
    for entry in entries:
        mask = entry & full
        if not mask & used:
            lower.append(mask)
            used |= mask
        fresh = mask & ~seen
        if fresh:
            upper.append(fresh)
            seen |= fresh
        else:
            shared_bit = mask & -mask
            for index, existing in enumerate(upper):
                if existing & shared_bit:
                    upper[index] = shared_bit
                    break
            else:
                # An earlier weakening dropped this variable from every
                # kept clause, so it can be kept on its own.
                upper.append(shared_bit)
    return lower, upper


def synthesis_counts(entries: Iterable[int], full: int,
                     total_vars: int) -> Tuple[int, int]:
    """``(#L, #U)`` over ``total_vars`` variables of sorted entries."""
    lower, upper = synthesis_masks(entries, full)
    return disjoint_count(lower, total_vars), disjoint_count(upper, total_vars)


def cofactor_counts(entries: List[int], n: int, position: int
                    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """``(#L, #U)`` of ``phi[x := 0]`` and ``phi[x := 1]`` over the other
    ``n - 1`` variables, ``x`` at bit ``position`` of ``phi``'s entries.

    ``phi[x := 0]`` keeps the clauses without ``x``; ``phi[x := 1]`` adds
    those with ``x`` cleared, and sorting their set restores the order
    without repeats.  A cleared ``{x}`` is the empty clause: its factor
    ``2^0 - 1 = 0`` makes both counts the constant ``2^(n-1)``.
    """
    full = (1 << n) - 1
    bit = 1 << position
    without = [entry for entry in entries if not entry & bit]
    negative = synthesis_counts(without, full, n - 1)
    if len(without) == len(entries):
        return negative, negative
    # Width -1, reversed-mask bit set, mask bit cleared.
    shift = (1 << 2 * n) - (1 << (2 * n - 1 - position)) + bit
    cleared = [entry - shift for entry in entries if entry & bit]
    return negative, synthesis_counts(sorted(set(without + cleared)),
                                      full, n - 1)


def _syntheses(function: DNF) -> Tuple[List[int], List[int]]:
    """The kept masks of ``L(function)`` and ``U(function)``."""
    kernel = function._bitset()
    return synthesis_masks(clause_order(kernel), (1 << len(kernel.order)) - 1)


def lower_idnf(function: DNF) -> DNF:
    """The ``L`` synthesis: a variable-disjoint subset of the clauses.

    Greedily keeps clauses (shortest first, deterministically ordered) whose
    variables are disjoint from all previously kept clauses.  Shorter clauses
    are preferred because they exclude fewer assignments, which empirically
    yields larger (tighter) lower bounds.  The result is over the same domain
    as ``function``.
    """
    return DNF._from_kernel(_syntheses(function)[0], function._bitset().order)


def upper_idnf(function: DNF) -> DNF:
    """The ``U`` synthesis: keep one occurrence of each variable.

    Clauses are visited in a deterministic shortest-first order; within each
    clause only the variables not yet seen in earlier kept clauses are
    retained.  The upper-bound property (Proposition 12) needs ``U(phi)`` to
    contain, for every clause ``C`` of ``phi``, some clause that is a subset
    of ``C``.  When a clause contributes no fresh variable at all, an
    already-kept clause sharing a variable with it is weakened to that single
    shared variable, which is a subset of both clauses and keeps the result
    an iDNF.  The result is over the same domain as ``function``.

    The kept clauses are non-empty and pairwise disjoint: a fresh part
    avoids every variable seen so far, a weakening replaces a kept clause
    by one of its own variables, and a variable kept on its own lies in no
    kept clause.  So none absorbs another, and the result needs no
    absorption pass.
    """
    return DNF._from_kernel(_syntheses(function)[1], function._bitset().order)
