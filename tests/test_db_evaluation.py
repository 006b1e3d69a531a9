"""Tests for query evaluation, lineage construction, parsing and reductions."""

import pytest

from repro.baselines.brute_force import banzhaf_all_brute_force
from repro.boolean.assignments import count_non_models
from repro.db.database import Database
from repro.db.datalog import QueryParseError, parse_cq, parse_query
from repro.db.evaluation import boolean_query_holds, evaluate_query
from repro.db.lineage import (
    EmptyLineageError,
    lineage_of_answers,
    lineage_of_boolean_query,
    lineage_statistics,
)
from repro.db.query import (
    ConjunctiveQuery,
    Selection,
    UnionQuery,
    as_union,
    atom,
    var,
)
from repro.db.reductions import (
    appendix_d_database,
    appendix_d_query,
    basic_non_hierarchical_query,
    pp2dnf_to_database,
)
from repro.boolean.pp2dnf import PP2DNF
from repro.engine.serve import AttributionService


def _example6_database() -> Database:
    database = Database()
    database.add_fact("R", (1, 2, 3))
    database.add_fact("S", (1, 2, 4))
    database.add_fact("S", (1, 2, 5))
    database.add_fact("T", (1, 6))
    return database


def _example6_query() -> ConjunctiveQuery:
    x, y, z, v, u = (var(n) for n in "XYZVU")
    return ConjunctiveQuery(
        (atom("R", x, y, z), atom("S", x, y, v), atom("T", x, u)))


class TestEvaluation:
    def test_example6_groundings(self):
        answers = evaluate_query(_example6_query(), _example6_database())
        assert len(answers) == 1
        assert len(answers[0].groundings) == 2

    def test_boolean_query_holds(self):
        assert boolean_query_holds(_example6_query(), _example6_database())
        empty = Database()
        empty.add_fact("R", (9, 9, 9))
        assert not boolean_query_holds(_example6_query(), empty)

    def test_non_boolean_answers(self):
        database = Database()
        database.add_fact("R", ("a",))
        database.add_fact("R", ("b",))
        database.add_fact("S", ("a", 1))
        query = ConjunctiveQuery((atom("R", var("X")), atom("S", var("X"), var("Y"))),
                                 head=(var("X"),))
        answers = evaluate_query(query, database)
        assert {a.values for a in answers} == {("a",)}

    def test_selection_filtering(self):
        database = Database()
        database.add_fact("Paper", ("p1", 1990))
        database.add_fact("Paper", ("p2", 2020))
        query = ConjunctiveQuery(
            (atom("Paper", var("P"), var("Y")),), head=(var("P"),),
            selections=(Selection(var("Y"), ">=", 2000),))
        answers = evaluate_query(query, database)
        assert {a.values for a in answers} == {("p2",)}

    def test_constants_in_atoms(self):
        database = Database()
        database.add_fact("Genre", ("m1", "drama"))
        database.add_fact("Genre", ("m2", "comedy"))
        query = ConjunctiveQuery((atom("Genre", var("M"), "drama"),),
                                 head=(var("M"),))
        answers = evaluate_query(query, database)
        assert {a.values for a in answers} == {("m1",)}

    def test_union_merges_groundings(self):
        database = Database()
        database.add_fact("R", ("a",))
        database.add_fact("S", ("a",))
        q1 = ConjunctiveQuery((atom("R", var("X")),), head=(var("X"),))
        q2 = ConjunctiveQuery((atom("S", var("X")),), head=(var("X"),))
        answers = evaluate_query(UnionQuery((q1, q2)), database)
        assert len(answers) == 1
        assert len(answers[0].groundings) == 2

    def test_boolean_query_holds_requires_boolean(self):
        query = ConjunctiveQuery((atom("R", var("X")),), head=(var("X"),))
        with pytest.raises(ValueError):
            boolean_query_holds(query, Database())


class TestLineage:
    def test_example6_lineage(self):
        database = _example6_database()
        lineage = lineage_of_boolean_query(_example6_query(), database)
        # Two clauses, each with the R fact, one S fact, and the T fact.
        assert lineage.num_clauses() == 2
        values = banzhaf_all_brute_force(lineage)
        r_variable = database.variable_of(database.endogenous_facts()[0])
        assert values[r_variable] == max(values.values())

    def test_exogenous_facts_drop_out(self):
        database = Database()
        database.add_fact("R", ("a",))
        database.add_fact("S", ("a", "b"), endogenous=False)
        database.add_fact("T", ("b",))
        lineage = lineage_of_boolean_query(
            basic_non_hierarchical_query(), database)
        assert lineage.num_clauses() == 1
        assert len(lineage.variables) == 2

    def test_purely_exogenous_answer_raises(self):
        database = Database()
        database.add_fact("R", ("a",), endogenous=False)
        query = ConjunctiveQuery((atom("R", var("X")),))
        with pytest.raises(EmptyLineageError):
            lineage_of_boolean_query(query, database)

    def test_unsatisfied_boolean_query_raises(self):
        database = Database()
        database.add_fact("R", ("a",))
        query = ConjunctiveQuery((atom("Missing", var("X")),))
        with pytest.raises(EmptyLineageError):
            lineage_of_boolean_query(query, database)

    def test_lineage_per_answer(self):
        database = Database()
        database.add_fact("R", ("a",))
        database.add_fact("R", ("b",))
        database.add_fact("S", ("a", 1))
        database.add_fact("S", ("a", 2))
        database.add_fact("S", ("b", 1))
        query = ConjunctiveQuery((atom("R", var("X")), atom("S", var("X"), var("Y"))),
                                 head=(var("X"),))
        answers = lineage_of_answers(query, database)
        by_value = {a.values: a.lineage for a in answers}
        assert by_value[("a",)].num_clauses() == 2
        assert by_value[("b",)].num_clauses() == 1

    def test_database_domain_policy(self):
        database = _example6_database()
        narrow = lineage_of_boolean_query(_example6_query(), database)
        wide = lineage_of_boolean_query(_example6_query(), database,
                                        domain="database")
        assert narrow.variables == wide.variables
        assert wide.domain == frozenset(database.endogenous_variables())

    def test_lineage_statistics(self):
        database = _example6_database()
        answers = lineage_of_answers(_example6_query(), database)
        stats = lineage_statistics(answers)
        assert stats["count"] == 1
        assert stats["max_clauses"] == 2
        assert lineage_statistics([])["count"] == 0


class TestDatalogParser:
    def test_parse_simple_query(self):
        query = parse_cq("Q(X) :- R(X, Y), S(Y, 'abc'), Y >= 3")
        assert len(query.atoms) == 2
        assert query.head == (var("X"),)
        assert query.selections[0].comparator == ">="

    def test_parse_boolean_query(self):
        query = parse_cq("Q() :- R(X)")
        assert query.is_boolean()

    def test_parse_constants(self):
        query = parse_cq("Q() :- R(X, 'title', 42, 3.5, lowercase)")
        terms = query.atoms[0].terms
        assert terms[1] == "title"
        assert terms[2] == 42
        assert terms[3] == 3.5
        assert terms[4] == "lowercase"

    def test_parse_union(self):
        union = parse_query("Q(X) :- R(X) ; Q(X) :- S(X)")
        assert isinstance(union, UnionQuery)
        assert len(union.disjuncts) == 2

    def test_parse_errors(self):
        with pytest.raises(QueryParseError):
            parse_cq("no separator here")
        with pytest.raises(QueryParseError):
            parse_cq("Q(X) :- ")
        with pytest.raises(QueryParseError):
            parse_cq("Q(X) :- R(X), ???")
        with pytest.raises(QueryParseError):
            parse_cq("Q(X) :- R(X), X < Y")

    @pytest.mark.parametrize("constant", [
        "Hello, World", "a;b", "a)b", "a(b", "it's (x, y); z"])
    def test_quoted_constants_with_separators(self, constant):
        quoted = f'"{constant}"' if "'" in constant else f"'{constant}'"
        database = Database()
        database.add_fact("Movie", ("m1", constant, 2001))
        database.add_fact("Movie", ("m2", "other", 2002))
        for text in (f"Q(M) :- Movie(M, {quoted}, Y)",
                     f"Q(M) :- Movie(M, T, Y), T = {quoted}",
                     f"Q(M) :- Movie(M, {quoted}, Y) ; Q(M) :- Movie(M, T, Y), "
                     f"T = {quoted}, Y > 2001"):
            query = parse_query(text)
            first = as_union(query).disjuncts[0]
            assert constant in first.atoms[0].terms or \
                first.selections[0].constant == constant
            assert [a.values for a in evaluate_query(query, database)] \
                == [("m1",)]

    def test_quoted_constant_served(self):
        database = Database()
        database.add_fact("Movie", ("m1", "Hello, World", 2001))
        response = AttributionService(database).submit(
            {"op": "attribute", "query": "Q(M) :- Movie(M, 'Hello, World', Y)"})
        assert response["ok"] is True
        assert [a["answer"] for a in response["answers"]] == [["m1"]]

    def test_unterminated_quote_raises(self):
        for text in ("Q(M) :- Movie(M, 'Hello, World, Y)",
                     "Q(M) :- Movie(M, 'a;b, Y) ; Q(M) :- Movie(M, T, Y)",
                     "Q(M) :- Movie(M, T, Y), T = 'x, y",
                     "Q(M) :- Movie(M, \"a)b, Y)"):
            with pytest.raises(QueryParseError):
                parse_query(text)

    def test_parse_and_evaluate_roundtrip(self):
        database = Database()
        database.add_fact("Movie", ("m1", 2001))
        database.add_fact("Movie", ("m2", 1995))
        query = parse_query("Q(M) :- Movie(M, Y), Y >= 2000")
        answers = evaluate_query(query, database)
        assert {a.values for a in answers} == {("m1",)}


class TestReductions:
    def test_lemma23_lineage_matches_function(self):
        function = PP2DNF([1, 2], [10, 11], [(1, 10), (2, 10), (2, 11)])
        construction = pp2dnf_to_database(function)
        lineage = lineage_of_boolean_query(construction.query,
                                           construction.database,
                                           domain="database")
        # #NSat of the PP2DNF equals the number of non-models of the lineage.
        assert count_non_models(lineage) == function.count_non_satisfying()

    def test_lemma23_variable_mapping(self):
        function = PP2DNF([1], [10], [(1, 10)])
        construction = pp2dnf_to_database(function)
        assert set(construction.lineage_variable_of) == {1, 10}
        database = construction.database
        assert database.is_exogenous(database.exogenous_facts()[0])

    def test_appendix_d_database_shape(self):
        database, r_a1, r_a2 = appendix_d_database()
        assert database.num_facts() == 18
        assert database.is_endogenous(r_a1) and database.is_endogenous(r_a2)
        lineage = lineage_of_boolean_query(appendix_d_query(), database)
        assert lineage.num_clauses() == 3 * 3 + 2 * 8
