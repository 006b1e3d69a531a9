"""A small textual (Datalog-style) query syntax.

Queries in the examples and workload definitions can be written as strings
such as::

    Answer(X) :- Movie(M, X, Y), Directed(D, M), Person(D, 'Lynch'), Y >= 1990

The grammar is intentionally tiny:

* the head is ``Name(V1, ..., Vk)`` with distinct variables (or ``Name()``
  for a Boolean query);
* the body is a comma-separated list of atoms ``Rel(t1, ..., tk)`` and
  selections ``Var op const``;
* terms starting with an upper-case letter are variables, quoted strings and
  numbers are constants;
* a quoted constant may contain ``,``, ``;``, ``(`` and ``)``;
* ``;`` separates disjuncts of a union query (all with the same head).
"""

from __future__ import annotations

import re
from typing import List, Tuple, Union

from repro.db.query import (
    Atom,
    ConjunctiveQuery,
    QueryVariable,
    Selection,
    UnionQuery,
)

_ATOM_RE = re.compile(
    r"""\s*([A-Za-z_][A-Za-z_0-9]*)\s*\(((?:[^()'"]|'[^']*'|"[^"]*")*)\)\s*""")
_SELECTION_RE = re.compile(
    r"\s*([A-Z][A-Za-z_0-9]*)\s*(<=|>=|!=|<>|==|=|<|>)\s*(.+?)\s*$"
)


class QueryParseError(ValueError):
    """Raised when a query string cannot be parsed."""


def _parse_term(text: str) -> Union[QueryVariable, object]:
    token = text.strip()
    if not token:
        raise QueryParseError("empty term")
    if token[0] in "'\"":
        if len(token) < 2 or token[-1] != token[0]:
            raise QueryParseError(f"unterminated string constant {token!r}")
        return token[1:-1]
    if re.fullmatch(r"-?\d+", token):
        return int(token)
    if re.fullmatch(r"-?\d+\.\d+", token):
        return float(token)
    if token[0].isupper():
        return QueryVariable(token)
    # Bare lower-case identifiers are treated as string constants.
    return token


def _parse_constant(text: str) -> object:
    value = _parse_term(text)
    if isinstance(value, QueryVariable):
        raise QueryParseError(
            f"expected a constant on the right-hand side of a selection, got "
            f"variable {value}"
        )
    return value


def _split(text: str, separator: str) -> List[str]:
    """Split ``text`` on each ``separator`` outside quotes and parentheses."""
    parts: List[str] = []
    depth, quote, start = 0, "", 0
    for at, char in enumerate(text):
        if quote:
            quote = "" if char == quote else quote
        elif char in "'\"":
            quote = char
        elif char in "()":
            depth += 1 if char == "(" else -1
            if depth < 0:
                raise QueryParseError("unbalanced parentheses in query")
        elif char == separator and depth == 0:
            parts.append(text[start:at])
            start = at + 1
    if quote:
        raise QueryParseError(f"unterminated string constant in {text!r}")
    if depth:
        raise QueryParseError("unbalanced parentheses in query")
    parts.append(text[start:])
    return parts


def _parse_head(head: str) -> Tuple[str, Tuple[QueryVariable, ...]]:
    match = _ATOM_RE.fullmatch(head)
    if not match:
        raise QueryParseError(f"cannot parse query head {head!r}")
    name, inner = match.group(1), match.group(2).strip()
    if not inner:
        return name, ()
    variables = []
    for part in _split(inner, ","):
        term = _parse_term(part)
        if not isinstance(term, QueryVariable):
            raise QueryParseError("head terms must be variables")
        variables.append(term)
    return name, tuple(variables)


def parse_cq(text: str) -> ConjunctiveQuery:
    """Parse a single conjunctive query (one rule)."""
    if ":-" not in text:
        raise QueryParseError("a query needs a ':-' separating head and body")
    head_text, body_text = text.split(":-", 1)
    name, head = _parse_head(head_text)
    atoms: List[Atom] = []
    selections: List[Selection] = []
    for part in filter(str.strip, _split(body_text, ",")):
        atom_match = _ATOM_RE.fullmatch(part)
        if atom_match:
            relation, inner = atom_match.group(1), atom_match.group(2)
            terms = tuple(_parse_term(t) for t in _split(inner, ",")) if inner.strip() else ()
            atoms.append(Atom(relation, terms))
            continue
        selection_match = _SELECTION_RE.fullmatch(part)
        if selection_match:
            variable, comparator, constant = selection_match.groups()
            comparator = "!=" if comparator == "<>" else comparator
            selections.append(Selection(QueryVariable(variable), comparator,
                                        _parse_constant(constant)))
            continue
        raise QueryParseError(f"cannot parse body element {part.strip()!r}")
    if not atoms:
        raise QueryParseError("the query body contains no atoms")
    return ConjunctiveQuery(tuple(atoms), head=head,
                            selections=tuple(selections), name=name)


def parse_query(text: str) -> Union[ConjunctiveQuery, UnionQuery]:
    """Parse a query; ``;`` separates the disjuncts of a union."""
    rules = list(filter(str.strip, _split(text, ";")))
    if not rules:
        raise QueryParseError("empty query string")
    queries = [parse_cq(rule) for rule in rules]
    if len(queries) == 1:
        return queries[0]
    return UnionQuery(tuple(queries), name=queries[0].name)
