"""Exact Shapley values of variables in positive DNF functions.

The paper compares Banzhaf-based and Shapley-based attribution (Section 6 and
Appendix D).  Both values are determined by the *critical-set counts*
``#kC(x)``: the number of sets ``Y`` of size ``k`` (not containing ``x``)
with ``phi[Y] = 0`` and ``phi[Y + x] = 1``:

* ``Banzhaf(phi, x) = sum_k #kC(x)``
* ``Shapley(phi, x) = sum_k k! (n-k-1)! / n! * #kC(x)``

This module computes the critical-set counts exactly over a complete d-tree
by propagating *size-indexed* model-count vectors: for every node we track,
for each ``k``, how many models set exactly ``k`` variables of the node's
domain to true, for the function itself and for its two cofactors on the
target variable.  The combination rules mirror ExaBan's, lifted from scalars
to vectors (convolutions at decomposable nodes, sums at exclusive nodes).

The evaluation is split into two **iterative** passes over the **arena**
backend (:mod:`repro.dtree.arena`) -- deep Shannon chains never touch the
recursion limit:

1. a variable-independent *models* pass filling the arena's ``"models"``
   payload column with each subtree's size-indexed model vector --
   computed **once per tree** and shared across all variables
   (``shapley_all`` over one compiled artifact never recounts a subtree);
2. a per-variable *cofactor* pass confined to the rows whose domain
   contains the variable (at a decomposable node only one child does), with
   every untouched sibling read from the shared column.

:mod:`repro.core.reference` keeps the recursive seed passes as the oracle
the differential suites check against.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence

from repro.boolean.assignments import critical_set_counts
from repro.boolean.dnf import DNF
from repro.dtree.arena import arena_cofactor_vectors, arena_of
from repro.dtree.compile import CompilationBudget, compile_dnf
from repro.dtree.heuristics import Heuristic, select_most_frequent
from repro.dtree.nodes import DTreeNode


def critical_counts_exact(function: DNF, variable: int,
                          heuristic: Heuristic = select_most_frequent,
                          budget: CompilationBudget | None = None,
                          tree: DTreeNode | None = None) -> List[int]:
    """Exact critical-set counts ``#kC`` of ``variable`` via the d-tree.

    Entry ``k`` counts the critical sets of size ``k``; the list has
    ``n`` entries for a function over ``n`` variables (sizes 0..n-1).
    ``tree`` supplies an already compiled *complete* d-tree of the same
    function, skipping compilation entirely (the engine's shared-artifact
    path); otherwise one is compiled under ``budget``.  The tree's
    variable-independent size vectors are computed on first use and reused
    across variables of the same tree.
    """
    if variable not in function.domain:
        raise ValueError(f"variable {variable} not in the function's domain")
    if tree is None:
        tree = compile_dnf(function, heuristic=heuristic, budget=budget)
    # The variable-independent models pass behind the cofactor pass lives
    # in the arena's ``models`` payload column (computed once per tree,
    # shared across variables and across calls through the root cache).
    positive, negative = arena_cofactor_vectors(arena_of(tree), variable)
    n = function.num_variables()
    counts = []
    for k in range(n):
        pos = positive[k] if k < len(positive) else 0
        neg = negative[k] if k < len(negative) else 0
        counts.append(pos - neg)
    return counts


def shapley_exact(function: DNF, variable: int,
                  heuristic: Heuristic = select_most_frequent,
                  budget: CompilationBudget | None = None,
                  tree: DTreeNode | None = None) -> Fraction:
    """Exact Shapley value of ``variable`` in a positive DNF function."""
    counts = critical_counts_exact(function, variable, heuristic=heuristic,
                                   budget=budget, tree=tree)
    n = function.num_variables()
    total = Fraction(0)
    n_factorial = factorial(n)
    for k, count in enumerate(counts):
        if count:
            coefficient = Fraction(factorial(k) * factorial(n - k - 1),
                                   n_factorial)
            total += coefficient * count
    return total


def shapley_all(function: DNF,
                heuristic: Heuristic = select_most_frequent,
                budget: CompilationBudget | None = None,
                tree: DTreeNode | None = None) -> Dict[int, Fraction]:
    """Exact Shapley values of all variables occurring in the function.

    The d-tree is compiled **once** and shared across variables (it is a
    function of the lineage alone); pass ``tree`` to reuse a complete
    d-tree compiled by another method — the compiled-lineage artifact
    tier — and skip compilation here entirely.  The variable-independent
    models pass over the tree likewise runs once, shared by every
    variable's cofactor pass.
    """
    if tree is None:
        tree = compile_dnf(function, heuristic=heuristic, budget=budget)
    return {
        variable: shapley_exact(function, variable, heuristic=heuristic,
                                budget=budget, tree=tree)
        for variable in sorted(function.variables)
    }


def shapley_brute_force(function: DNF, variable: int) -> Fraction:
    """Definitional Shapley value by exhaustive enumeration (testing only)."""
    counts = critical_set_counts(function, variable)
    n = function.num_variables()
    n_factorial = factorial(n)
    total = Fraction(0)
    for k, count in enumerate(counts):
        if count:
            total += Fraction(factorial(k) * factorial(n - k - 1),
                              n_factorial) * count
    return total


def banzhaf_from_critical_counts(counts: Sequence[int]) -> int:
    """Banzhaf value as the plain sum of critical-set counts (Eq. 16)."""
    return sum(counts)


def shapley_from_critical_counts(counts: Sequence[int],
                                 num_variables: Optional[int] = None
                                 ) -> Fraction:
    """Shapley value from critical-set counts (Eq. 17)."""
    n = num_variables if num_variables is not None else len(counts)
    n_factorial = factorial(n)
    total = Fraction(0)
    for k, count in enumerate(counts):
        if count:
            total += Fraction(factorial(k) * factorial(n - k - 1),
                              n_factorial) * count
    return total
