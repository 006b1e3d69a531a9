"""Tests for schemas, databases, queries and the hierarchy classification."""

import dataclasses

import pytest

from repro.db.database import Database, Fact
from repro.db.hierarchy import classify_query, is_hierarchical, is_self_join_free
from repro.db.query import (
    Atom,
    ConjunctiveQuery,
    QueryVariable,
    Selection,
    UnionQuery,
    as_union,
    atom,
    var,
)
from repro.db.schema import RelationSymbol, Schema


class TestSchema:
    def test_relation_symbol(self):
        symbol = RelationSymbol("R", 2)
        assert symbol.columns == ("col0", "col1")
        assert repr(symbol) == "R/2"

    def test_relation_symbol_validation(self):
        with pytest.raises(ValueError):
            RelationSymbol("R", -1)
        with pytest.raises(ValueError):
            RelationSymbol("R", 2, ("only_one",))

    def test_schema_declare_and_lookup(self):
        schema = Schema()
        schema.declare("R", 2)
        assert "R" in schema
        assert schema.relation("R").arity == 2
        assert len(schema) == 1

    def test_schema_redeclare_conflict(self):
        schema = Schema([RelationSymbol("R", 2)])
        schema.declare("R", 2)  # idempotent
        with pytest.raises(ValueError):
            schema.declare("R", 3)

    def test_unknown_relation(self):
        with pytest.raises(KeyError):
            Schema().relation("missing")


class TestFactRendering:
    """A fact renders once per object; the text is not a field."""

    @pytest.mark.parametrize("values, text", [
        ((1, -2, 10 ** 20), "R(1, -2, 100000000000000000000)"),
        ((2.5, 1e-07, float("inf")), "R(2.5, 1e-07, inf)"),
        ((None,), "R(None)"),
        (("it's", 'say "hi"', "a\\b"), """R("it's", 'say "hi"', 'a\\\\b')"""),
        (("Zürich", "東京", "\u00e9"), "R('Zürich', '東京', 'é')"),
        ((), "R()"),
    ])
    def test_repr_is_the_values_reprs(self, values, text):
        fact = Fact("R", values)
        assert repr(fact) == text
        assert repr(fact) == f"R({', '.join(repr(v) for v in values)})"
        assert str(fact) == text

    def test_second_call_returns_the_same_string(self):
        fact = Fact("S", ("a", 1))
        first = repr(fact)
        assert repr(fact) is first
        assert str(fact) is first

    def test_equality_hash_and_fields_are_unchanged(self):
        rendered, plain = Fact("R", (1, "a")), Fact("R", (1, "a"))
        repr(rendered)
        assert rendered == plain
        assert hash(rendered) == hash(plain) == hash(("R", (1, "a")))
        assert rendered != Fact("R", (1, "b"))
        assert [field.name for field in dataclasses.fields(Fact)] \
            == ["relation", "values"]
        assert dataclasses.astuple(rendered) == ("R", (1, "a"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rendered.relation = "S"


class TestDatabase:
    def test_add_and_lookup_facts(self):
        database = Database()
        fact = database.add_fact("R", ("a", 1))
        assert database.contains_fact("R", ("a", 1))
        assert database.is_endogenous(fact)
        assert database.rows("R") == (("a", 1),)
        assert database.num_facts() == 1

    def test_variable_registry_roundtrip(self):
        database = Database()
        facts = database.add_facts("R", [("a",), ("b",), ("c",)])
        for fact in facts:
            variable = database.variable_of(fact)
            assert database.fact_of(variable) == fact
        assert database.endogenous_variables() == [0, 1, 2]

    def test_exogenous_facts_have_no_variable(self):
        database = Database()
        fact = database.add_fact("S", ("a", "b"), endogenous=False)
        assert database.is_exogenous(fact)
        with pytest.raises(KeyError):
            database.variable_of(fact)
        assert database.exogenous_facts() == [fact]

    def test_duplicate_insertion_is_idempotent(self):
        database = Database()
        database.add_fact("R", ("a",))
        database.add_fact("R", ("a",))
        assert database.num_facts() == 1

    def test_status_conflict_rejected(self):
        database = Database()
        database.add_fact("R", ("a",))
        with pytest.raises(ValueError):
            database.add_fact("R", ("a",), endogenous=False)

    def test_arity_mismatch_rejected(self):
        database = Database()
        database.add_fact("R", ("a",))
        with pytest.raises(ValueError):
            database.add_fact("R", ("a", "b"))

    def test_unknown_variable_lookup(self):
        with pytest.raises(KeyError):
            Database().fact_of(0)

    def test_iteration_and_len(self):
        database = Database()
        database.add_fact("R", ("a",))
        database.add_fact("S", ("b",), endogenous=False)
        assert len(database) == 2
        assert len(list(database)) == 2


class TestQueries:
    def test_atom_variables(self):
        a = atom("R", var("X"), "const", var("Y"))
        assert a.variables() == frozenset({var("X"), var("Y")})

    def test_query_requires_atoms(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery((), head=())

    def test_head_variable_must_occur(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery((atom("R", var("X")),), head=(var("Z"),))

    def test_selection_validation(self):
        with pytest.raises(ValueError):
            Selection(var("X"), "~", 3)
        query_atom = atom("R", var("X"))
        with pytest.raises(ValueError):
            ConjunctiveQuery((query_atom,), selections=(Selection(var("Z"), "<", 1),))

    def test_selection_holds(self):
        assert Selection(var("X"), ">=", 3).holds(4)
        assert not Selection(var("X"), "=", 3).holds(4)
        assert Selection(var("X"), "!=", 3).holds(4)

    def test_free_and_bound_variables(self):
        query = ConjunctiveQuery(
            (atom("R", var("X"), var("Y")),), head=(var("X"),))
        assert query.free_variables() == frozenset({var("X")})
        assert query.bound_variables() == frozenset({var("Y")})
        assert not query.is_boolean()

    def test_atoms_with(self):
        query = ConjunctiveQuery(
            (atom("R", var("X")), atom("S", var("X"), var("Y"))))
        assert len(query.atoms_with(var("X"))) == 2
        assert len(query.atoms_with(var("Y"))) == 1

    def test_residual_query(self):
        query = ConjunctiveQuery(
            (atom("R", var("X"), var("Y")),), head=(var("X"),),
            selections=(Selection(var("X"), "=", "a"),))
        residual = query.residual(("a",))
        assert residual.is_boolean()
        assert residual.atoms[0].terms == ("a", var("Y"))
        assert residual.selections == ()

    def test_residual_rejects_violating_values(self):
        query = ConjunctiveQuery(
            (atom("R", var("X")),), head=(var("X"),),
            selections=(Selection(var("X"), "=", "a"),))
        with pytest.raises(ValueError):
            query.residual(("b",))

    def test_union_query_arity_check(self):
        q1 = ConjunctiveQuery((atom("R", var("X")),), head=(var("X"),))
        q2 = ConjunctiveQuery((atom("S", var("Y")),), head=())
        with pytest.raises(ValueError):
            UnionQuery((q1, q2))
        union = as_union(q1)
        assert union.head_arity() == 1
        assert as_union(union) is union


class TestHierarchy:
    def _query(self, *atoms_):
        return ConjunctiveQuery(tuple(atoms_))

    def test_hierarchical_example5(self):
        x, y, z, v, u = (var(n) for n in "XYZVU")
        query = self._query(atom("R", x, y, z), atom("S", x, y, v),
                            atom("T", x, u))
        assert is_hierarchical(query)
        assert classify_query(query) == "hierarchical"

    def test_non_hierarchical_example5(self):
        x, y = var("X"), var("Y")
        query = self._query(atom("R", x), atom("S", x, y), atom("T", y))
        assert not is_hierarchical(query)
        assert classify_query(query) == "non-hierarchical"

    def test_self_join_detection(self):
        x, y = var("X"), var("Y")
        query = self._query(atom("R", x), atom("R", y))
        assert not is_self_join_free(query)
        assert classify_query(query) == "has-self-joins"

    def test_existential_only_hierarchy(self):
        # Free variables are fixed per answer; only bound variables matter.
        x, y = var("X"), var("Y")
        query = ConjunctiveQuery(
            (atom("R", x), atom("S", x, y), atom("T", y)), head=(x,))
        assert not is_hierarchical(query)
        assert is_hierarchical(query, existential_only=True)
