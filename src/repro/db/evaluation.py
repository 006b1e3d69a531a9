"""Query evaluation producing answer tuples and their groundings.

Each conjunctive query is planned once per call: its atoms are joined in the
greedy order of :func:`_orderly_atoms`, each looked up in a hash index on its
constants and the variables bound by earlier atoms.  A variable repeated
inside one atom becomes an equality check on the row, and a selection is
checked as soon as its variable is bound.  The indexes are cached on the
:class:`Database` and their buckets keep relation order, so groundings come
out in nested-loop order (atom by atom in plan order, each atom's rows in
relation order) and answers in the order of their first grounding.

A grounding -- a total assignment of the query variables under which every
atom matches a fact, endogenous or exogenous -- is one clause of the
answer's lineage (Example 6 of the paper).  :func:`evaluate_query` returns
groundings as objects; :mod:`repro.db.lineage` takes the clauses straight
from :func:`joined_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.db.database import Database, Entry, Fact, key_getter
from repro.db.query import Atom, ConjunctiveQuery, Query, QueryVariable, as_union

Value = object
#: A partial grounding: its binding -- the query's key constants, then the
#: rows joined so far, concatenated -- and those rows' entries.
Partial = Tuple[Tuple[Value, ...], Tuple[Entry, ...]]


@dataclass(frozen=True)
class Grounding:
    """One way of satisfying a CQ: a variable binding plus the matched facts."""

    binding: Tuple[Tuple[str, Value], ...]
    facts: Tuple[Fact, ...]

    def as_dict(self) -> Dict[str, Value]:
        """The binding as a plain dict keyed by variable name."""
        return dict(self.binding)


@dataclass
class AnswerTuple:
    """An output tuple together with all groundings that produce it."""

    values: Tuple[Value, ...]
    groundings: List[Grounding]

    def __repr__(self) -> str:
        return f"AnswerTuple({self.values}, {len(self.groundings)} groundings)"


def _orderly_atoms(query: ConjunctiveQuery) -> List[Atom]:
    """Order atoms to bind variables early (simple greedy join order).

    Starts from the atom with the fewest variables and repeatedly picks the
    atom sharing the most variables with those already placed.
    """
    remaining = list(query.atoms)
    ordered: List[Atom] = []
    bound: set[QueryVariable] = set()
    while remaining:
        def score(candidate: Atom) -> Tuple[int, int]:
            variables = candidate.variables()
            return (len(variables & bound), -len(variables - bound))

        best = max(remaining, key=score) if ordered else min(
            remaining, key=lambda a: len(a.variables()))
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables()
    return ordered


def _tuple_getter(indices: Sequence[int]) -> Callable[[Sequence[Value]], tuple]:
    """The values at ``indices`` of a sequence, always as a tuple."""
    if len(indices) == 1:
        (index,) = indices
        return lambda values: (values[index],)
    return itemgetter(*indices) if indices else lambda values: ()


class _Plan:
    """The join of one conjunctive query: its atoms in join order, each
    looked up by the values of its key positions."""

    def __init__(self, query: ConjunctiveQuery) -> None:
        atoms = _orderly_atoms(query)
        self.relations = tuple(a.relation for a in atoms)
        self.constants = tuple(term for a in atoms for term in a.terms
                               if not isinstance(term, QueryVariable))
        slots: Dict[QueryVariable, int] = {}  # first binding slot of each
        constant_slot, offset = 0, len(self.constants)
        self.steps = []
        for current in atoms:
            keyed: List[Tuple[int, int]] = []  # (position, binding slot)
            equal: List[Tuple[int, int]] = []  # (first position, position)
            for position, term in enumerate(current.terms):
                if not isinstance(term, QueryVariable):  # constant: a key
                    keyed.append((position, constant_slot))
                    constant_slot += 1
                elif slots.get(term, offset) < offset:  # bound earlier: a key
                    keyed.append((position, slots[term]))
                elif term in slots:  # repeated in this atom: an equality
                    equal.append((slots[term] - offset, position))
                else:  # first occurrence: bound by this atom's row
                    slots[term] = offset + position
            tests = [(slots[s.variable] - offset, s.holds)
                     for s in query.selections
                     if slots.get(s.variable, -1) >= offset]
            self.steps.append((
                current.relation, len(current.terms),
                tuple(position for position, _ in keyed),
                key_getter([slot for _, slot in keyed]), equal, tests))
            offset += len(current.terms)
        self.head = _tuple_getter([slots[v] for v in query.head])
        self.names = sorted((v.name, slot) for v, slot in slots.items())

    def groundings(self, database: Database) -> Iterator[Partial]:
        """Every grounding as its binding and its rows in plan order."""
        schema = database.schema
        partials: Iterable[Partial] = ((self.constants, ()),)
        for relation, arity, positions, key, equal, tests in self.steps:
            if (relation not in schema
                    or schema.relation(relation).arity != arity):
                return iter(())
            bucket = database.index(relation, positions).get
            partials = _extend(partials, bucket, key, equal, tests)
        return iter(partials)


def _extend(partials: Iterable[Partial], bucket: Callable, key: Callable,
            equal: List[Tuple[int, int]], tests: list) -> Iterator[Partial]:
    """Join one more atom onto each partial grounding, lazily and in order:
    its rows with the partial's key, then its repeated-variable equalities,
    then its selections."""
    for binding, entries in partials:
        for entry in bucket(key(binding), ()):
            row = entry[0]
            if equal and any(row[first] != row[at] for first, at in equal):
                continue
            if tests and not all(holds(row[at]) for at, holds in tests):
                continue
            yield binding + row, entries + (entry,)


def joined_rows(query: Query, database: Database
                ) -> Iterator[Tuple[Tuple[Value, ...], Tuple[Entry, ...]]]:
    """Every grounding of a CQ or UCQ as its answer values and its rows.

    Each row comes with its fact's lineage variable id (``None`` for an
    exogenous fact).  Disjuncts are joined in order.
    """
    for disjunct in as_union(query).disjuncts:
        plan = _Plan(disjunct)
        for binding, entries in plan.groundings(database):
            yield plan.head(binding), entries


def evaluate_query(query: Query, database: Database) -> List[AnswerTuple]:
    """Evaluate a CQ or UCQ, returning answers with their groundings.

    Groundings of all disjuncts are merged per tuple.  A grounding's
    binding is sorted by variable name and its facts are in plan order.
    For a Boolean query the single possible answer is the empty tuple; it
    is returned iff the query is satisfied, with all its groundings.
    """
    answers: Dict[Tuple[Value, ...], AnswerTuple] = {}
    for disjunct in as_union(query).disjuncts:
        plan = _Plan(disjunct)
        for binding, entries in plan.groundings(database):
            values = plan.head(binding)
            answer = answers.get(values)
            if answer is None:
                answer = answers[values] = AnswerTuple(values, [])
            answer.groundings.append(Grounding(
                tuple((name, binding[slot]) for name, slot in plan.names),
                tuple(Fact(relation, row) for relation, (row, _)
                      in zip(plan.relations, entries))))
    return list(answers.values())


def boolean_query_holds(query: Query, database: Database) -> bool:
    """``True`` iff a Boolean query is satisfied; stops at the first grounding."""
    union = as_union(query)
    if not union.is_boolean():
        raise ValueError("boolean_query_holds expects a Boolean query")
    return next(joined_rows(union, database), None) is not None
