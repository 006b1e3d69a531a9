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

These syntheses run once per bound evaluation per undecomposed d-tree leaf,
which makes them an AdaBan hot path: like the structural operations they
run on the bitset kernel (disjointness is one AND, the greedy scans work
on masks).  The deterministic shortest-first clause order is the order of
the sorted variable tuples: clause masks over the sorted domain order
compare exactly like the tuples they encode.
"""

from __future__ import annotations

from typing import List

from repro.boolean.bitset import popcount
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
    total_vars = function.num_variables()
    occurring = 0
    non_models_occurring = 1
    seen_mask = 0
    for mask in function._bitset().masks:
        if mask & seen_mask:
            raise ValueError("idnf_model_count requires an iDNF")
        seen_mask |= mask
        width = popcount(mask)
        occurring += width
        non_models_occurring *= (1 << width) - 1
    silent = total_vars - occurring
    # Non-models over the full domain: every clause unsatisfied, silent vars free.
    non_models = non_models_occurring << silent
    return (1 << total_vars) - non_models


def _masks_shortest_first(function: DNF) -> List[int]:
    """Clause masks in the syntheses' deterministic shortest-first order.

    Bit positions follow the sorted domain order, so comparing position
    tuples is exactly comparing the sorted variable tuples.
    """
    keyed = []
    for mask in function._bitset().masks:
        positions = []
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            positions.append(low.bit_length() - 1)
        keyed.append((len(positions), tuple(positions), mask))
    keyed.sort()
    return [mask for _, _, mask in keyed]


def lower_idnf(function: DNF) -> DNF:
    """The ``L`` synthesis: a variable-disjoint subset of the clauses.

    Greedily keeps clauses (shortest first, deterministically ordered) whose
    variables are disjoint from all previously kept clauses.  Shorter clauses
    are preferred because they exclude fewer assignments, which empirically
    yields larger (tighter) lower bounds.  The result is over the same domain
    as ``function``.
    """
    kept_masks: List[int] = []
    used_mask = 0
    for mask in _masks_shortest_first(function):
        if not mask & used_mask:
            kept_masks.append(mask)
            used_mask |= mask
    return DNF._from_kernel(kept_masks, function._bitset().order)


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
    """
    kept_masks: List[int] = []
    seen_mask = 0
    for mask in _masks_shortest_first(function):
        fresh = mask & ~seen_mask
        if fresh:
            kept_masks.append(fresh)
            seen_mask |= fresh
        else:
            shared_bit = mask & -mask
            for index, existing in enumerate(kept_masks):
                if existing & shared_bit:
                    kept_masks[index] = shared_bit
                    break
            else:
                # An earlier weakening dropped this variable from every
                # kept clause, so it can be kept on its own.
                kept_masks.append(shared_bit)
    return DNF._from_kernel(
        kept_masks, function._bitset().order).absorb()
