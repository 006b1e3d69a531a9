"""A nested-loop join: the reference the join and lineage tests compare against.

It scans whole relations for every partial binding, checks selections on
complete bindings, and derives each lineage clause from the matched facts by
definition (Example 6 of the paper).  Atoms are joined in the greedy order the
evaluator documents, so answers, groundings and facts come out in the order
``repro.db.evaluation`` promises.  Lives in its own module so that several
test modules can import it by name.
"""

from __future__ import annotations

import pytest

from repro.db.database import Fact
from repro.db.evaluation import boolean_query_holds, evaluate_query
from repro.db.lineage import (
    EmptyLineageError,
    lineage_of_answers,
    lineage_of_boolean_query,
)
from repro.db.query import QueryVariable, as_union


def join_order(query):
    """Fewest variables first, then most variables shared with those placed
    (fewest new ones on a tie, earliest atom on a full tie)."""
    remaining, ordered, bound = list(query.atoms), [], set()
    while remaining:
        if ordered:
            best = max(remaining, key=lambda a: (len(a.variables() & bound),
                                                 -len(a.variables() - bound)))
        else:
            best = min(remaining, key=lambda a: len(a.variables()))
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables()
    return ordered


def _match(atom, row, binding):
    if len(row) != len(atom.terms):
        return None
    extended = dict(binding)
    for term, value in zip(atom.terms, row):
        if not isinstance(term, QueryVariable):
            if term != value:
                return None
        elif term not in extended:
            extended[term] = value
        elif extended[term] != value:
            return None
    return extended


def reference_answers(query, database):
    """``{answer values: [(binding sorted by name, facts in join order)]}``,
    answers in order of their first grounding, disjunct by disjunct."""
    answers = {}
    for disjunct in as_union(query).disjuncts:
        atoms = join_order(disjunct)

        def extend(level, binding, facts):
            if level == len(atoms):
                if all(s.holds(binding[s.variable])
                       for s in disjunct.selections):
                    values = tuple(binding[v] for v in disjunct.head)
                    named = tuple(sorted((v.name, value)
                                         for v, value in binding.items()))
                    answers.setdefault(values, []).append(
                        (named, tuple(facts)))
                return
            atom = atoms[level]
            for row in database.rows(atom.relation):
                extended = _match(atom, row, binding)
                if extended is not None:
                    extend(level + 1, extended,
                           facts + [Fact(atom.relation, row)])

        extend(0, {}, [])
    return answers


def reference_clauses(query, database):
    """``{answer values: clauses}``; ``None`` for an answer that has a
    grounding using exogenous facts only."""
    result = {}
    for values, groundings in reference_answers(query, database).items():
        clauses = [frozenset(database.variable_of(fact) for fact in facts
                             if database.is_endogenous(fact))
                   for _, facts in groundings]
        result[values] = clauses if all(clauses) else None
    return result


def reference_lineages(query, database, domain="lineage"):
    """``[(answer values, clause set, domain)]`` sorted as
    ``lineage_of_answers`` sorts its answers."""
    everything = frozenset(database.endogenous_variables())
    result = []
    for values, clauses in reference_clauses(query, database).items():
        if clauses is not None:
            result.append((values, frozenset(clauses),
                           everything if domain == "database"
                           else frozenset().union(*clauses)))
    result.sort(key=lambda entry: tuple(repr(v) for v in entry[0]))
    return result


def assert_matches_reference(query, database):
    """Every output of the join equals the reference's, order included."""
    expected = reference_answers(query, database)
    assert [(answer.values, [(g.binding, g.facts) for g in answer.groundings])
            for answer in evaluate_query(query, database)] \
        == list(expected.items())
    for domain in ("lineage", "database"):
        assert [(entry.values, entry.lineage.clauses, entry.lineage.domain)
                for entry in lineage_of_answers(query, database, domain)] \
            == reference_lineages(query, database, domain)
    if as_union(query).is_boolean():
        assert boolean_query_holds(query, database) == bool(expected)
        clauses = reference_clauses(query, database).get(())
        for domain in ("lineage", "database"):
            if clauses is None:
                with pytest.raises(EmptyLineageError):
                    lineage_of_boolean_query(query, database, domain)
            else:
                lineage = lineage_of_boolean_query(query, database, domain)
                assert lineage.clauses == frozenset(clauses)
