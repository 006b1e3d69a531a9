"""The oracle every op's output is checked against, after the timed phase.

Exact Banzhaf values come from brute force on lineages of at most
``BRUTE_FORCE_MAX_VARS`` variables, and otherwise from the recursive seed
passes of ``repro.core.reference`` over ``compile_dnf``.  The checks:

* an exact value must equal the oracle value;
* an approximate value (AdaBan) must come with certified bounds that hold
  the oracle value, and must be within ``epsilon`` of it (relative);
* a top-k answer must be a valid top-k of the oracle values.  Ties are
  allowed; with an ``epsilon`` the run may stop once every undecided
  interval certifies that relative error, so a member may trail a
  non-member by at most the factor ``((1 + eps) / (1 - eps)) ** 2`` that
  two such intervals permit.  Every reported interval must hold its oracle
  value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import compile_dnf
from repro.boolean.dnf import DNF
from repro.core.reference import exaban_all_recursive

#: Largest lineage (domain size) the brute-force oracle enumerates.
BRUTE_FORCE_MAX_VARS = 16

#: The relative error every approximate method in the benchmark requests.
EPSILON = Fraction(1, 10)

Entry = Tuple[int, Fraction, Optional[int], Optional[int]]


def _column(index: int, size: int) -> int:
    """Bit set of the assignments (as integers < ``size``) with bit ``index``."""
    width = 1 << index
    pattern, period = ((1 << width) - 1) << width, 2 * width
    while period < size:
        pattern |= pattern << period
        period *= 2
    return pattern


def brute_force(clauses: Sequence[Tuple[int, ...]], n: int) -> List[int]:
    """Banzhaf value of each of the variables ``0..n-1`` by enumeration.

    Assignment sets are integers with one bit per assignment, so the
    ``2 ** n`` models are enumerated by a few big-integer operations per
    clause.  Banzhaf(x) = #models with x - #models without x.
    """
    size = 1 << n
    columns = [_column(index, size) for index in range(n)]
    full = (1 << size) - 1
    models = 0
    for clause in clauses:
        term = full
        for variable in clause:
            term &= columns[variable]
        models |= term
    total = models.bit_count()
    return [2 * (models & column).bit_count() - total for column in columns]


class Oracle:
    """Exact Banzhaf values of lineages, memoized by normalized structure.

    Variables are renamed ``0..n-1`` in increasing id order, so lineages
    that differ only by an order-preserving renaming share one computation.
    """

    def __init__(self) -> None:
        self._memo: Dict[tuple, List[int]] = {}

    def values(self, lineage: DNF) -> Dict[int, int]:
        domain = sorted(lineage.domain)
        index = {variable: position for position, variable in enumerate(domain)}
        clauses = tuple(sorted(tuple(sorted(index[v] for v in clause))
                               for clause in lineage.clauses))
        key = (len(domain), clauses)
        normalized = self._memo.get(key)
        if normalized is None:
            normalized = self._compute(clauses, len(domain))
            self._memo[key] = normalized
        return dict(zip(domain, normalized))

    @staticmethod
    def _compute(clauses: Tuple[Tuple[int, ...], ...], n: int) -> List[int]:
        if n <= BRUTE_FORCE_MAX_VARS:
            return brute_force(clauses, n)
        tree = compile_dnf(DNF(clauses, domain=range(n)))
        values = exaban_all_recursive(tree)
        return [values.get(variable, 0) for variable in range(n)]


def check_values(entries: Iterable[Entry], truth: Dict[int, int],
                 epsilon: Fraction = EPSILON) -> Optional[str]:
    """Check one answer's attributions; returns a reason, or ``None`` if ok.

    ``entries`` are ``(variable, value, lower, upper)``.  A point interval
    equal to the value marks an exact result; anything else is checked as
    an ``epsilon``-approximation inside certified bounds.
    """
    seen = set()
    for variable, value, lower, upper in entries:
        seen.add(variable)
        expected = truth.get(variable, 0)
        if lower is not None and lower == upper == value:
            if value != expected:
                return f"variable {variable}: {value} != exact {expected}"
            continue
        if lower is None or upper is None or not lower <= expected <= upper:
            return (f"variable {variable}: bounds [{lower}, {upper}] miss "
                    f"{expected}")
        if abs(value - expected) > epsilon * expected:
            return (f"variable {variable}: {value} not within {epsilon} of "
                    f"{expected}")
    missing = [v for v, value in truth.items() if value and v not in seen]
    if missing:
        return f"variables {sorted(missing)[:5]} with nonzero value missing"
    return None


def check_topk(chosen: Sequence[Tuple[int, int, int]], truth: Dict[int, int],
               k: int, epsilon: Optional[Fraction] = EPSILON
               ) -> Optional[str]:
    """Check a top-k answer ``[(variable, lower, upper), ...]`` in rank order."""
    if len(chosen) != min(k, len(truth)):
        return f"{len(chosen)} facts returned for k={k} over {len(truth)}"
    for variable, lower, upper in chosen:
        if variable not in truth:
            return f"variable {variable} is not in the lineage"
        if not lower <= truth[variable] <= upper:
            return (f"variable {variable}: bounds [{lower}, {upper}] miss "
                    f"{truth[variable]}")
    members = {variable for variable, _, _ in chosen}
    outside = [value for v, value in truth.items() if v not in members]
    if not outside:
        return None
    slack = Fraction(1) if epsilon is None else ((1 + epsilon)
                                                 / (1 - epsilon)) ** 2
    weakest = min(truth[v] for v in members)
    if max(outside) > weakest * slack:
        return f"a non-member scores {max(outside)} > member {weakest}"
    return None
