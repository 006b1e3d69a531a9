"""Canonical forms of lineage DNFs, computed once per encoding.

Answers of one query -- or of different queries over one schema -- often
have lineages equal up to a renaming of the fact variables: one join shape
over different facts.  Their d-tree and Banzhaf values are then shared once
the variables are mapped across, so this module gives such lineages one
cache key.

A lineage's *first-occurrence encoding* sorts its clauses (as sorted id
tuples) and renumbers the variables in order of first appearance; domain
variables in no clause follow in id order.  The encoding depends on the
lineage alone, and equal encodings mean equal lineages up to that
renumbering, so a ``memo`` keyed by encoding serves every lineage after the
first with one encoding pass.

The canonical renaming comes from Weisfeiler-Leman-style color refinement on
the encoding's variable/clause incidence structure: each variable starts
from its occurrence profile (how many clauses hold it, and their sizes) and
is refined with the multiset of colors of its clauses.  Variables are ranked
by final color, remaining ties by occurrence index.

Refinement cannot separate every structure (Cai, Fürer and Immerman,
Combinatorica 1992), but correctness does not depend on it: the key is the
*full canonical clause set*, so two lineages share a key only if the
renamings exhibit an actual isomorphism.  Imperfect tie-breaking can at
worst miss a cache hit, never produce a wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

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
        Equal keys imply isomorphic lineages.  Lineages with equal
        first-occurrence encodings always share a key; other isomorphic
        lineages share one up to the refinement's tie-breaking precision.
    dnf:
        The lineage rewritten over the canonical variables ``0..n-1``.
    renaming:
        Canonical variable id -> original variable id, as a tuple.
    """

    key: CanonicalKey
    dnf: DNF
    renaming: Tuple[int, ...]

    @property
    def to_canonical(self) -> Dict[int, int]:
        """Mapping from original variable ids to canonical ids."""
        return {variable: index for index, variable in enumerate(self.renaming)}

    @property
    def from_canonical(self) -> Dict[int, int]:
        """The inverse mapping, canonical ids to original ids."""
        return dict(enumerate(self.renaming))


def _dense_colors(signatures: List[tuple]) -> Tuple[List[int], int]:
    """Re-index signature tuples as dense integer colors (and count them).

    Ids are assigned in sorted-signature order, so they are invariant under
    variable renaming (the sort compares signature *values*, which are
    themselves built from colors assigned the same way).
    """
    ranking = {signature: index
               for index, signature in enumerate(sorted(set(signatures)))}
    return [ranking[signature] for signature in signatures], len(ranking)


def _canonical_form(size: int, rows: List[Tuple[int, ...]], max_rounds: int
                    ) -> Tuple[CanonicalKey, DNF, Tuple[int, ...]]:
    """``(key, canonical DNF, canonical id -> occurrence index)`` of an
    encoding with ``size`` variables and clauses ``rows``."""
    profile: List[list] = [[] for _ in range(size)]
    for row in rows:
        for variable in row:
            profile[variable].append(len(row))
    # Occurrence-profile colors: (#clauses containing v, their sizes).
    colors, distinct = _dense_colors(
        [(len(sizes), tuple(sorted(sizes))) for sizes in profile])
    for _ in range(max_rounds):
        if distinct == size:
            break
        # One Weisfeiler-Leman round over the variable/clause incidence.
        incident: List[list] = [[] for _ in range(size)]
        for row in rows:
            clause_color = tuple(sorted([colors[v] for v in row]))
            for variable in row:
                incident[variable].append(clause_color)
        refined, refined_distinct = _dense_colors(
            [(color, tuple(sorted(clauses)))
             for color, clauses in zip(colors, incident)])
        if refined_distinct == distinct:
            break
        colors, distinct = refined, refined_distinct

    # Rank variables by color, ties by occurrence index (the stable sort
    # keeps index order).  The index is a function of the lineage, so the
    # key is too; where the tied variables are interchangeable any order
    # yields the same canonical clause set.
    ranked = tuple(sorted(range(size), key=colors.__getitem__))
    position = [0] * size
    for index, variable in enumerate(ranked):
        position[variable] = index
    canonical_clauses = tuple(sorted(
        tuple(sorted([position[v] for v in row])) for row in rows))
    # The canonical renaming *is* the kernel's dense remap: canonical
    # variable i is bit i of the sorted 0..n-1 order, so the clause masks
    # are built directly (a clause's ids are distinct, so the sum is the
    # OR of its bits) and the frozenset view stays lazy.
    masks = [sum(1 << variable for variable in clause)
             for clause in canonical_clauses]
    return ((size, canonical_clauses),
            DNF._from_kernel(masks, tuple(range(size))), ranked)


def canonicalize(function: DNF, max_rounds: int = 4,
                 memo=None) -> CanonicalLineage:
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
    memo:
        Optional cache (any object with ``get``/``put``, such as
        :attr:`LineageCache.forms <repro.engine.cache.LineageCache>`)
        from first-occurrence encodings to canonical forms.  The result is
        the same with or without it.
    """
    occurrence: Dict[int, int] = {}
    rows = [tuple([occurrence.setdefault(v, len(occurrence)) for v in clause])
            for clause in sorted([tuple(sorted(clause))
                                  for clause in function.clauses])]
    order = list(occurrence)
    if len(order) < len(function.domain):
        order.extend(sorted(function.domain.difference(occurrence)))
    encoding = (len(order), tuple(rows))
    form = memo.get(encoding) if memo is not None else None
    if form is None:
        form = _canonical_form(len(order), rows, max_rounds)
        if memo is not None:
            memo.put(encoding, form)
    key, canonical_dnf, ranked = form
    return CanonicalLineage(key, canonical_dnf, tuple([order[i] for i in ranked]))
