"""Fact storage with an endogenous/exogenous partition and variable registry.

A database is a set of facts over a schema.  Following the paper (and the
standard setup for fact attribution), the facts are partitioned into
*endogenous* facts -- whose contribution we want to quantify, and which carry
a propositional variable ``v(f)`` -- and *exogenous* facts, which are taken
for granted and contribute the constant 1 to the lineage.

The :class:`Database` also acts as the registry mapping endogenous facts to
consecutive integer variable ids (the variables of the lineage DNF) and back.

Each stored row carries its fact's variable id, and the database caches the
hash indexes the query evaluator joins through, one per (relation, key
positions).  Relations are append-only, so an index records how many rows
it covers; the first lookup after its relation has grown rebuilds it, and
:meth:`Database.add_fact` does no index work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.db.schema import RelationSymbol, Schema

Value = object
Row = Tuple[Value, ...]
#: A row with its fact's lineage variable id (``None`` if exogenous).
Entry = Tuple[Row, Optional[int]]


@dataclass(frozen=True)
class Fact:
    """A fact ``R(c1, ..., ck)``: a relation name plus a tuple of constants."""

    relation: str
    values: Tuple[Value, ...]

    def __repr__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:  # rendered once per object; not a field
        return f"{self.relation}({', '.join(repr(v) for v in self.values)})"

    def arity(self) -> int:
        """Number of values in the fact."""
        return len(self.values)


def key_getter(positions: Sequence[int]) -> Callable[[Sequence[Value]], object]:
    """The index key of a row: its value at one position, the tuple of its
    values at several, ``()`` at none."""
    return itemgetter(*positions) if positions else lambda row: ()


class Database:
    """An in-memory database with endogenous/exogenous facts.

    It supports one writer alongside concurrent readers, without locks:
    an index lookup sees every fact added before it began.  :attr:`version`
    counts effective inserts and is bumped after the row is appended, so a
    reader that sees version ``v`` sees every row of the first ``v`` inserts.

    Parameters
    ----------
    schema:
        Optional schema; relations are declared on the fly when facts are
        added if no schema is given or the relation is missing.
    """

    def __init__(self, schema: Optional[Schema] = None) -> None:
        self.schema = schema if schema is not None else Schema()
        self._rows: Dict[str, List[Entry]] = {}
        self._endogenous: Dict[Fact, int] = {}
        self._exogenous: set[Fact] = set()
        self._by_variable: Dict[int, Fact] = {}
        self._next_variable = 0
        self._indexes: Dict[Tuple[str, Tuple[int, ...]],
                            Tuple[int, Dict[object, List[Entry]]]] = {}
        self.version = 0

    # ------------------------------------------------------------------ #
    # Fact insertion
    # ------------------------------------------------------------------ #

    def add_fact(self, relation: str, values: Sequence[Value],
                 endogenous: bool = True) -> Fact:
        """Insert a fact; returns the (possibly pre-existing) fact object.

        Inserting the same fact twice is idempotent; a fact cannot be both
        endogenous and exogenous.
        """
        fact = Fact(relation, tuple(values))
        if relation not in self.schema:
            self.schema.declare(relation, len(fact.values))
        else:
            expected = self.schema.relation(relation).arity
            if expected != fact.arity():
                raise ValueError(
                    f"fact {fact} has arity {fact.arity()}, relation declared "
                    f"with arity {expected}"
                )
        already_endogenous = fact in self._endogenous
        already_exogenous = fact in self._exogenous
        if already_endogenous or already_exogenous:
            if endogenous != already_endogenous:
                raise ValueError(
                    f"fact {fact} already present with a different "
                    "endogenous/exogenous status"
                )
            return fact
        variable = None
        if endogenous:
            variable = self._next_variable
            self._next_variable += 1
            self._endogenous[fact] = variable
            self._by_variable[variable] = fact
        else:
            self._exogenous.add(fact)
        self._rows.setdefault(relation, []).append((fact.values, variable))
        self.version += 1
        return fact

    def add_facts(self, relation: str, rows: Iterable[Sequence[Value]],
                  endogenous: bool = True) -> List[Fact]:
        """Insert several facts of the same relation."""
        return [self.add_fact(relation, row, endogenous=endogenous)
                for row in rows]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def rows(self, relation: str) -> Sequence[Row]:
        """All rows of a relation (empty if the relation has no facts)."""
        return tuple(row for row, _ in self._rows.get(relation, ()))

    def index(self, relation: str, positions: Tuple[int, ...]
              ) -> Dict[object, List[Entry]]:
        """The cached hash index of ``relation`` on ``positions`` (within its
        arity): each :func:`key_getter` key to its rows' entries in relation
        order.  Read-only.  The row count it covers is read before the build
        and the index published with one assignment, so concurrent readers at
        worst build it twice and never get one missing an earlier row."""
        rows = self._rows.get(relation, ())
        count = len(rows)
        cached = self._indexes.get((relation, positions))
        if cached is not None and cached[0] == count:
            return cached[1]
        key = key_getter(positions)
        index: Dict[object, List[Entry]] = {}
        for entry in islice(rows, count):
            index.setdefault(key(entry[0]), []).append(entry)
        self._indexes[(relation, positions)] = (count, index)
        return index

    def relations(self) -> List[str]:
        """Names of relations with at least one fact."""
        return sorted(self._rows)

    def contains_fact(self, relation: str, values: Sequence[Value]) -> bool:
        """``True`` iff the database contains the fact."""
        fact = Fact(relation, tuple(values))
        return fact in self._endogenous or fact in self._exogenous

    def is_endogenous(self, fact: Fact) -> bool:
        """``True`` iff the fact is endogenous."""
        return fact in self._endogenous

    def is_exogenous(self, fact: Fact) -> bool:
        """``True`` iff the fact is exogenous."""
        return fact in self._exogenous

    def variable_of(self, fact: Fact) -> int:
        """The lineage variable id ``v(f)`` of an endogenous fact."""
        try:
            return self._endogenous[fact]
        except KeyError:
            raise KeyError(f"{fact} is not an endogenous fact") from None

    def fact_of(self, variable: int) -> Fact:
        """The endogenous fact associated with a lineage variable id."""
        try:
            return self._by_variable[variable]
        except KeyError:
            raise KeyError(f"no endogenous fact with variable id {variable}") from None

    def endogenous_facts(self) -> List[Fact]:
        """All endogenous facts, in insertion order of their variable ids."""
        return [self._by_variable[v] for v in sorted(self._by_variable)]

    def exogenous_facts(self) -> List[Fact]:
        """All exogenous facts."""
        return sorted(self._exogenous, key=repr)

    def endogenous_variables(self) -> List[int]:
        """All lineage variable ids."""
        return sorted(self._by_variable)

    def num_facts(self) -> int:
        """Total number of facts."""
        return len(self._endogenous) + len(self._exogenous)

    def __iter__(self) -> Iterator[Fact]:
        yield from self._endogenous
        yield from self._exogenous

    def __len__(self) -> int:
        return self.num_facts()

    def __repr__(self) -> str:
        return (f"Database({len(self._endogenous)} endogenous, "
                f"{len(self._exogenous)} exogenous facts, "
                f"{len(self._rows)} relations)")
