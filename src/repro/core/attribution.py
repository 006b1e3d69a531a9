"""End-to-end fact attribution: query + database -> Banzhaf values per fact.

This is the public entry point a downstream user calls.  Since the engine
refactor it is a thin compatibility wrapper over
:class:`repro.engine.Engine`, which evaluates the query, canonicalizes and
memoizes each answer's lineage, runs the requested algorithm (exact ExaBan,
anytime AdaBan, or Shapley; ``"auto"`` picks ExaBan with an AdaBan fallback)
and maps the lineage variables back to database facts.  Ranking and top-k
(IchiBan) run through the same pipeline via the engine's ``rank``/``topk``
methods, so repeat ranking traffic is served from the lineage cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Literal, NamedTuple, Optional, Tuple

from repro.core.ichiban import RankedVariable
from repro.db.database import Database, Fact
from repro.db.query import Query
from repro.dtree.compile import CompilationBudget

Method = Literal["auto", "exact", "approximate", "shapley"]


class FactAttribution(NamedTuple):
    """The attribution score of one fact for one answer tuple."""

    fact: Fact
    variable: int
    value: Fraction
    lower: Optional[int] = None
    upper: Optional[int] = None

    def __repr__(self) -> str:
        bounds = ""
        if self.lower is not None and self.upper is not None:
            bounds = f" in [{self.lower}, {self.upper}]"
        return f"{self.fact}: {float(self.value):.6g}{bounds}"


@dataclass(frozen=True)
class AttributionResult:
    """All fact attributions for one answer tuple, best first."""

    answer: Tuple[object, ...]
    attributions: Tuple[FactAttribution, ...]

    def top(self, k: int) -> Tuple[FactAttribution, ...]:
        """The ``k`` facts with the highest scores."""
        return self.attributions[:k]

    def score_of(self, fact: Fact) -> Fraction:
        """The score of a specific fact (0 if the fact does not occur)."""
        for attribution in self.attributions:
            if attribution.fact == fact:
                return attribution.value
        return Fraction(0)


#: Shared serial engines, one per (method, epsilon) configuration.  Sharing
#: keeps the lineage cache warm across ``attribute_facts`` calls -- repeat
#: queries and isomorphic answers skip compilation entirely.  Bounded: the
#: least recently created engines are dropped past ``_MAX_SHARED_ENGINES``
#: so data-derived epsilon values cannot accumulate caches forever.
_SHARED_ENGINES: Dict[Tuple[str, float], object] = {}
_MAX_SHARED_ENGINES = 8

_VALID_METHODS = ("auto", "exact", "approximate", "shapley")


def clear_shared_engines() -> None:
    """Drop the shared engines (and their lineage caches).

    ``attribute_facts`` rebuilds them lazily; use this to release memory in
    long-running processes or to force cold-cache measurements.
    """
    _SHARED_ENGINES.clear()


def _shared_engine(method: str, epsilon: Optional[float],
                   k: Optional[int] = None):
    """The shared engine for one (method, epsilon, k) configuration."""
    from repro.engine.engine import engine_for

    key = (method, epsilon, k)
    engine = _SHARED_ENGINES.get(key)
    if engine is None:
        while len(_SHARED_ENGINES) >= _MAX_SHARED_ENGINES:
            _SHARED_ENGINES.pop(next(iter(_SHARED_ENGINES)))
        engine = engine_for(method, epsilon=epsilon, k=k)
        _SHARED_ENGINES[key] = engine
    return engine


def _engine_for_call(method: Method, epsilon: float,
                     compilation_budget: Optional[CompilationBudget]):
    from repro.engine.engine import engine_for

    if method not in _VALID_METHODS:
        raise ValueError(f"unknown attribution method {method!r}")
    if method == "approximate":
        # The budget governs the *exact* methods only (seed semantics);
        # AdaBan runs unbounded here, converging deterministically.
        compilation_budget = None
    if compilation_budget is not None:
        # A caller-supplied budget gets a private engine: its results are
        # budget-dependent (they may raise) and must not pollute the shared
        # cache of unlimited-budget runs.
        return engine_for(method, epsilon=epsilon, budget=compilation_budget)
    return _shared_engine(method, epsilon)


def attribute_facts(query: Query, database: Database,
                    method: Method = "exact",
                    epsilon: float = 0.1,
                    compilation_budget: Optional[CompilationBudget] = None
                    ) -> List[AttributionResult]:
    """Attribute every answer of ``query`` to the endogenous facts.

    A thin wrapper over :class:`repro.engine.Engine` (kept for backward
    compatibility); use the engine directly for batching, caching and
    statistics.

    Parameters
    ----------
    query:
        A conjunctive query or union of conjunctive queries.
    database:
        The database with its endogenous/exogenous fact partition.
    method:
        ``"exact"`` for ExaBan Banzhaf values, ``"approximate"`` for AdaBan
        with relative error ``epsilon``, ``"shapley"`` for exact Shapley
        values (provided for comparison), ``"auto"`` for ExaBan with an
        AdaBan fallback when the compilation budget is exhausted.
    epsilon:
        Relative error for the approximate method (and the auto fallback).
    compilation_budget:
        Optional resource budget for the exact methods, applied per lineage.

    Returns one :class:`AttributionResult` per answer tuple.
    """
    engine = _engine_for_call(method, epsilon, compilation_budget)
    return engine.attribute(query, database)


def rank_facts(query: Query, database: Database,
               epsilon: Optional[float] = 0.1
               ) -> List[Tuple[Tuple[object, ...], List[Tuple[Fact, RankedVariable]]]]:
    """Rank the facts of every answer by Banzhaf value using IchiBan.

    A thin wrapper over the engine's ``rank`` method: lineages are
    canonicalized and deduplicated, so isomorphic answers share one anytime
    run and repeat ranking traffic is served from the shared lineage cache.
    ``epsilon=None`` demands a certain ranking (pairwise-separated
    intervals); otherwise the run may also stop at relative error
    ``epsilon``.
    """
    return _shared_engine("rank", epsilon).rank(query, database)


def topk_facts(query: Query, database: Database, k: int,
               epsilon: float = 0.1
               ) -> List[Tuple[Tuple[object, ...], List[Tuple[Fact, RankedVariable]]]]:
    """The top-``k`` facts of every answer by Banzhaf value using IchiBan.

    A thin wrapper over the engine's ``topk`` method.  One shared engine
    per epsilon serves every ``k`` (results are cached per canonical
    lineage, epsilon *and* k; completed d-trees are shared across k).
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _shared_engine("topk", epsilon).rank(query, database, k=k)
