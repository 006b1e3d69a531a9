"""Differential tests: the hash join against a nested-loop reference.

``join_reference`` scans whole relations for every partial binding, the
definition of a CQ's groundings.  These tests check that the indexed join
returns exactly what it returns -- answers and their order, groundings and
their order, bindings and facts -- and that the lineage built straight from
the joined rows has exactly the clauses derived from the reference's facts,
under both domain policies.  Inputs are Hypothesis-generated databases and
queries (self-joins, constants, repeated variables, every comparator, absent
relations, wrong arities) and the paper workloads' queries over their
generators.  The index-validity tests grow a database between evaluations.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from join_reference import assert_matches_reference
from repro.db.database import Database
from repro.db.datalog import parse_query
from repro.db.evaluation import evaluate_query
from repro.db.lineage import lineage_of_answers
from repro.db.query import (
    Atom,
    ConjunctiveQuery,
    QueryVariable,
    Selection,
    UnionQuery,
    var,
)
from repro.engine.serve import AttributionService
from repro.workloads import academic, imdb, tpch

#: Few values, so joins, constants and selections hit often.
VALUES = st.integers(min_value=0, max_value=2)
VARIABLES = tuple(var(name) for name in "XYZW")
COMPARATORS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")


@st.composite
def databases(draw):
    """2-4 relations of arity 1-3 with mixed endogenous/exogenous facts."""
    arities = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    database = Database()
    for name, arity in zip("RSTU", arities):
        rows = draw(st.dictionaries(st.tuples(*[VALUES] * arity),
                                    st.booleans(), max_size=6))
        for row, endogenous in rows.items():
            database.add_fact(name, row, endogenous=endogenous)
    return database, dict(zip("RSTU", arities))


@st.composite
def conjunctive_queries(draw, arities, head_arity):
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        # "Absent" has no facts; one atom in ten gets a wrong arity.
        relation = draw(st.sampled_from(sorted(arities) + ["Absent"]))
        arity = arities.get(relation, 1)
        if draw(st.integers(0, 9)) == 0:
            arity = draw(st.integers(1, 3).filter(lambda a: a != arity))
        terms = draw(st.lists(st.one_of(st.sampled_from(VARIABLES), VALUES),
                              min_size=arity, max_size=arity))
        atoms.append(Atom(relation, tuple(terms)))
    body = sorted({t for a in atoms for t in a.terms
                   if isinstance(t, QueryVariable)}, key=lambda v: v.name)
    assume(len(body) >= head_arity)
    head = tuple(draw(st.permutations(body))[:head_arity])
    selections = tuple(
        Selection(draw(st.sampled_from(body)), draw(st.sampled_from(COMPARATORS)),
                  draw(VALUES))
        for _ in range(draw(st.integers(0, 2)) if body else 0))
    return ConjunctiveQuery(tuple(atoms), head=head, selections=selections)


@st.composite
def queries(draw, arities):
    """CQs and UCQs with Boolean and non-Boolean heads."""
    head_arity = draw(st.integers(0, 2))
    disjuncts = [draw(conjunctive_queries(arities, head_arity))
                 for _ in range(draw(st.integers(1, 2)))]
    return disjuncts[0] if len(disjuncts) == 1 else UnionQuery(tuple(disjuncts))


class TestRandomQueries:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_join_matches_nested_loop(self, data):
        database, arities = data.draw(databases())
        assert_matches_reference(data.draw(queries(arities)), database)

    def test_repeated_variable_inside_an_atom(self):
        database = Database()
        database.add_facts("R", [(1, 1, 2), (1, 2, 2), (3, 3, 3)])
        database.add_fact("S", (2,), endogenous=False)
        for text in ("Q(X) :- R(X, X, Y)", "Q(Y) :- S(Y), R(X, Y, Y)",
                     "Q() :- R(X, X, X)", "Q(X, Y) :- R(X, Y, X)"):
            assert_matches_reference(parse_query(text), database)

    def test_selections_with_every_comparator(self):
        database = Database()
        database.add_facts("R", [(value, value % 3) for value in range(6)])
        for comparator in COMPARATORS:
            query = parse_query(f"Q(X) :- R(X, Y), Y {comparator} 1")
            assert evaluate_query(query, database)
            assert_matches_reference(query, database)


WORKLOADS = (academic, imdb, tpch)


@pytest.mark.parametrize("module", WORKLOADS,
                         ids=[m.DATASET_NAME for m in WORKLOADS])
@pytest.mark.parametrize("seed", (5, 6))
@pytest.mark.parametrize("scale", (0.3, 0.6))
def test_workload_queries_match_reference(module, seed, scale):
    database = module.generate_database(seed=seed, scale=scale)
    for _, query in module.queries():
        assert_matches_reference(query, database)


class TestIndexValidity:
    """Facts added after an evaluation are seen by the next one."""

    QUERY = "Q(A) :- R(A, B), S(B, 'c', Y), Y >= 5"
    #: (relation, row, endogenous, in a grounding): new facts at the joined
    #: position (B), the constant position ('c') and the selected position
    #: (Y), endogenous and exogenous.
    GROWTH = (
        ("S", ("b1", "c", 9), True, True),
        ("R", ("a2", "b2"), True, False),  # no S row for b2 yet
        ("S", ("b2", "c", 6), False, True),
        ("S", ("b2", "c", 8), True, True),
        ("S", ("b1", "d", 9), True, False),  # another constant
        ("S", ("b2", "e", 9), False, False),
        ("S", ("b1", "c", 2), True, False),  # fails the selection
        ("R", ("a3", "b1"), False, True),
    )

    @staticmethod
    def _database():
        database = Database()
        database.add_fact("R", ("a1", "b1"))
        database.add_fact("S", ("b1", "c", 7))
        return database

    def test_evaluation_sees_every_added_fact(self):
        database = self._database()
        query = parse_query(self.QUERY)
        assert_matches_reference(query, database)
        for relation, row, endogenous, grounded in self.GROWTH:
            fact = database.add_fact(relation, row, endogenous=endogenous)
            assert_matches_reference(query, database)
            if endogenous:
                variable = database.variable_of(fact)
                assert grounded == any(
                    variable in entry.lineage.variables
                    for entry in lineage_of_answers(query, database))

    def test_served_requests_see_added_facts(self):
        database = self._database()
        service = AttributionService(database)
        request = {"op": "attribute", "query": self.QUERY}
        before = service.submit(request)
        assert [a["answer"] for a in before["answers"]] == [["a1"]]
        database.add_fact("R", ("a2", "b2"))
        database.add_fact("S", ("b2", "c", 8))
        after = service.submit(request)
        assert after["ok"] is True
        assert [a["answer"] for a in after["answers"]] == [["a1"], ["a2"]]
        facts = {entry["fact"] for a in after["answers"]
                 for entry in a["attributions"]}
        assert "S('b2', 'c', 8)" in facts
