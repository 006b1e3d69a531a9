"""Shannon-expansion variable selection heuristics.

When a DNF can be neither factored nor split into independent components the
compiler must apply Shannon expansion on some variable.  The paper (Section
3.1, following [22]) picks the variable that appears most often; other
heuristics are possible, e.g. picking a variable whose conditioning enables
independence partitioning.  Both are provided here, plus a degenerate
first-variable heuristic used to demonstrate the effect in the ablation
benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.boolean.bitset import component_groups
from repro.boolean.dnf import DNF

#: A heuristic maps a DNF to the variable to expand on.
Heuristic = Callable[[DNF], int]


def select_most_frequent(function: DNF) -> int:
    """Pick the variable occurring in the largest number of clauses.

    Ties are broken by smallest variable id for determinism.  This is the
    paper's default heuristic.
    """
    frequencies = function.variable_frequencies()
    if not frequencies:
        raise ValueError("cannot select a variable from a constant function")
    return min(frequencies, key=lambda v: (-frequencies[v], v))


def select_first(function: DNF) -> int:
    """Pick the smallest variable id (intentionally naive; ablation only)."""
    variables = function.variables
    if not variables:
        raise ValueError("cannot select a variable from a constant function")
    return min(variables)


def select_max_depth_reduction(function: DNF, candidates: int = 8) -> int:
    """Pick the variable whose removal best disconnects the clause graph.

    Among the ``candidates`` most frequent variables, choose the one whose
    deletion from all clauses yields the largest number of connected
    components (ties broken by frequency, then id).  This approximates the
    "conditioning enables independence partitioning" heuristic mentioned in
    the paper.
    """
    frequencies = function.variable_frequencies()
    if not frequencies:
        raise ValueError("cannot select a variable from a constant function")
    ranked = sorted(frequencies, key=lambda v: (-frequencies[v], v))[:candidates]
    best_variable = ranked[0]
    best_key = (-1, 0, 0)
    kernel = function._bitset()
    for variable in ranked:
        # Delete the variable's bit from every clause mask and count the
        # remaining connected components -- no frozenset churn per
        # candidate.
        bit = 1 << kernel.index()[variable]
        reduced_masks = [mask & ~bit for mask in kernel.masks
                         if mask & ~bit]
        components = len(component_groups(reduced_masks))
        key = (components, frequencies[variable], -variable)
        if key > best_key:
            best_key = key
            best_variable = variable
    return best_variable


HEURISTICS: Dict[str, Heuristic] = {
    "most_frequent": select_most_frequent,
    "first": select_first,
    "max_split": select_max_depth_reduction,
}
