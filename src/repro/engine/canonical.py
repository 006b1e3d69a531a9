"""Variable-order-independent canonical forms of lineage DNFs.

Two answer tuples -- often of the *same* query, sometimes of different
queries over the same schema -- frequently have lineages that are identical
up to a renaming of the fact variables: the same join shape instantiated
with different facts.  The d-tree compiled for one of them, and the Banzhaf
values computed on it, are therefore reusable for the other once the
variables are mapped across.  This module computes a canonical renaming so
that such isomorphic lineages hash to the same cache key.

The renaming is found by Weisfeiler-Leman-style color refinement on the
bipartite variable/clause incidence structure: every variable starts with a
signature built from its occurrence profile (how many clauses it appears
in, and their sizes), and signatures are iteratively refined with the
multiset of signatures of the clauses containing the variable.  Variables
are then ranked by their final signature.

Correctness does not depend on the refinement being a perfect graph
canonization: the cache key is the *full canonical clause set*, so two
lineages share a key only if the renamings exhibit an actual isomorphism
between them.  Imperfect tie-breaking (non-automorphic variables sharing a
signature) can at worst miss a cache hit, never produce a wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.boolean.dnf import DNF

#: A canonical cache key: the domain size plus the canonically renamed,
#: deterministically ordered clause set.
CanonicalKey = Tuple[int, Tuple[Tuple[int, ...], ...]]


@dataclass(frozen=True)
class CanonicalLineage:
    """A lineage DNF together with its canonical renaming.

    Attributes
    ----------
    key:
        Hashable canonical form: ``(domain size, sorted canonical clauses)``.
        Equal keys imply isomorphic lineages (and vice versa up to the
        refinement's tie-breaking precision).
    dnf:
        The lineage rewritten over the canonical variables ``0..n-1``.
    to_canonical:
        Mapping from original variable ids to canonical ids.
    from_canonical:
        The inverse mapping, used to translate cached results back to the
        facts of a concrete answer.
    """

    key: CanonicalKey
    dnf: DNF
    to_canonical: Dict[int, int]
    from_canonical: Dict[int, int]


def _dense_colors(signatures: Dict[int, tuple]) -> Dict[int, int]:
    """Re-index signature tuples as dense integer colors.

    Ids are assigned in sorted-signature order, so they are invariant under
    variable renaming (the sort compares signature *values*, which are
    themselves built from colors assigned the same way).
    """
    ranking = {signature: index
               for index, signature in enumerate(sorted(set(signatures.values())))}
    return {variable: ranking[signature]
            for variable, signature in signatures.items()}


def _initial_colors(function: DNF) -> Dict[int, int]:
    """Occurrence-profile colors: (#clauses containing v, their sizes)."""
    profile: Dict[int, list] = {v: [] for v in function.domain}
    for clause in function.clauses:
        size = len(clause)
        for variable in clause:
            profile[variable].append(size)
    return _dense_colors({
        variable: (len(sizes), tuple(sorted(sizes)))
        for variable, sizes in profile.items()
    })


def _refine(function: DNF, colors: Dict[int, int]) -> Dict[int, int]:
    """One Weisfeiler-Leman round over the variable/clause incidence graph."""
    incident: Dict[int, list] = {v: [] for v in function.domain}
    for clause in function.clauses:
        clause_color = tuple(sorted(colors[v] for v in clause))
        for variable in clause:
            incident[variable].append(clause_color)
    return _dense_colors({
        variable: (colors[variable], tuple(sorted(incident[variable])))
        for variable in function.domain
    })


def canonicalize(function: DNF, max_rounds: int = 4) -> CanonicalLineage:
    """Compute the canonical form of a lineage DNF.

    Parameters
    ----------
    function:
        Any positive DNF (typically an answer lineage).
    max_rounds:
        Cap on color-refinement rounds; refinement also stops early once the
        number of distinct colors stabilizes.  A handful of rounds
        distinguishes everything that matters for the join shapes produced
        by UCQ lineage.
    """
    colors = _initial_colors(function)
    distinct = len(set(colors.values()))
    for _ in range(max_rounds):
        if distinct == len(colors):
            break
        refined = _refine(function, colors)
        refined_distinct = len(set(refined.values()))
        if refined_distinct == distinct:
            break
        colors, distinct = refined, refined_distinct

    # Rank variables by color; ties broken by original id.  Tie-breaking by
    # id is only reached for variables the refinement could not separate,
    # where any assignment yields the same canonical clause set whenever the
    # variables are genuinely interchangeable.
    ordered = sorted(function.domain, key=lambda v: (colors[v], v))
    to_canonical = {variable: index for index, variable in enumerate(ordered)}
    from_canonical = {index: variable for variable, index in to_canonical.items()}

    canonical_clauses = tuple(sorted(
        tuple(sorted(to_canonical[v] for v in clause))
        for clause in function.clauses
    ))
    key: CanonicalKey = (function.num_variables(), canonical_clauses)
    # The canonical renaming *is* the kernel's dense remap: canonical
    # variable i is bit i of the sorted 0..n-1 order, so the clause masks
    # are built directly and the frozenset view stays lazy.
    masks = []
    for clause in canonical_clauses:
        mask = 0
        for variable in clause:
            mask |= 1 << variable
        masks.append(mask)
    canonical_dnf = DNF._from_kernel(
        masks, tuple(range(function.num_variables())))
    return CanonicalLineage(key=key, dnf=canonical_dnf,
                            to_canonical=to_canonical,
                            from_canonical=from_canonical)
