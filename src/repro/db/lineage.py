"""Lineage construction (the ProvSQL substitute).

The lineage of a Boolean UCQ over a database is a positive DNF over the
variables of the endogenous facts: each grounding of a disjunct contributes
one clause, namely the conjunction of the variables of the endogenous facts
it uses (exogenous facts contribute the constant 1 and simply disappear from
the clause); see Section 2 and Example 6 of the paper.

For a non-Boolean query the lineage is computed per answer tuple: each output
tuple defines a Boolean residual query whose lineage is built from exactly
the groundings that produced the tuple.  The clauses are taken straight from
the rows the join returns (:func:`repro.db.evaluation.joined_rows`), which
carry their facts' variable ids; no grounding objects are built.

The variable domain of each lineage is, by default, exactly the variables
occurring in it.  ``domain="database"`` widens the domain to all endogenous
facts of the database, which matches the definition of the Banzhaf value as a
count of subsets of ``D_n \\ {f}``; the two conventions give Banzhaf values
that differ by the factor ``2^(#unused facts)`` and identical rankings, and
the experiment harness consistently uses the per-lineage domain (as the
paper's prototype does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Literal, Optional, Sequence, Tuple

from repro.boolean.dnf import DNF
from repro.db.database import Database
from repro.db.evaluation import joined_rows
from repro.db.query import Query, as_union

Value = object
DomainPolicy = Literal["lineage", "database"]


@dataclass(frozen=True)
class AnswerLineage:
    """An answer tuple together with its lineage DNF."""

    values: Tuple[Value, ...]
    lineage: DNF

    def __repr__(self) -> str:
        return (f"AnswerLineage({self.values}, vars={len(self.lineage.variables)}, "
                f"clauses={self.lineage.num_clauses()})")


class EmptyLineageError(Exception):
    """Raised when a query answer has no endogenous support.

    This happens when every grounding of the answer uses only exogenous
    facts: the answer is unconditionally true and no fact attribution is
    meaningful for it.
    """


def _clauses_by_answer(query: Query, database: Database) -> Dict[tuple, list]:
    """Each answer's clauses, in order of the answers' first groundings.

    A grounding's clause is the set of variable ids of its endogenous rows;
    an answer with a purely exogenous grounding maps to ``None``.
    """
    answers: Dict[Tuple[Value, ...], Optional[List[FrozenSet[int]]]] = {}
    for values, entries in joined_rows(query, database):
        clause = frozenset(variable for _, variable in entries
                           if variable is not None)
        clauses = answers.setdefault(values, [])
        if clauses is None:
            continue
        if clause:
            clauses.append(clause)
        else:
            answers[values] = None
    return answers


def lineage_of_answers(query: Query, database: Database,
                       domain: DomainPolicy = "lineage"
                       ) -> List[AnswerLineage]:
    """Evaluate ``query`` and return each answer tuple with its lineage.

    Answers whose lineage would be trivially true (purely exogenous support)
    are skipped; Boolean queries that are not satisfied return an empty list.
    """
    variables = (database.endogenous_variables() if domain == "database"
                 else None)
    results = [AnswerLineage(values=values,
                             lineage=DNF(clauses, domain=variables))
               for values, clauses
               in _clauses_by_answer(query, database).items()
               if clauses is not None]
    results.sort(key=lambda entry: tuple(repr(v) for v in entry.values))
    return results


def lineage_of_boolean_query(query: Query, database: Database,
                             domain: DomainPolicy = "lineage") -> DNF:
    """The lineage of a Boolean query (Example 6 of the paper).

    Raises ``ValueError`` if the query is not Boolean and
    :class:`EmptyLineageError` if the query is unsatisfied or only
    exogenously supported.
    """
    union = as_union(query)
    if not union.is_boolean():
        raise ValueError("lineage_of_boolean_query expects a Boolean query")
    answers = _clauses_by_answer(union, database)
    if not answers:
        raise EmptyLineageError("the Boolean query is not satisfied")
    if answers[()] is None:
        raise EmptyLineageError("answer () is supported by exogenous facts only")
    return DNF(answers[()], domain=(database.endogenous_variables()
                                    if domain == "database" else None))


def lineage_statistics(lineages: Sequence[AnswerLineage]) -> Dict[str, float]:
    """Aggregate #variables / #clauses statistics (the shape of Table 1)."""
    if not lineages:
        return {"count": 0, "avg_vars": 0.0, "max_vars": 0,
                "avg_clauses": 0.0, "max_clauses": 0}
    var_counts = [len(entry.lineage.variables) for entry in lineages]
    clause_counts = [entry.lineage.num_clauses() for entry in lineages]
    return {
        "count": len(lineages),
        "avg_vars": sum(var_counts) / len(var_counts),
        "max_vars": max(var_counts),
        "avg_clauses": sum(clause_counts) / len(clause_counts),
        "max_clauses": max(clause_counts),
    }
