"""repro: Banzhaf values for facts in query answering.

A Python library reproducing "Banzhaf Values for Facts in Query Answering"
(SIGMOD 2024): exact (ExaBan), anytime deterministic approximate (AdaBan) and
ranking/top-k (IchiBan) computation of the Banzhaf values of database facts
in the answers of select-project-join-union queries, together with the
substrates the algorithms need (positive DNF lineage, decomposition trees, a
provenance-aware relational engine) and the baselines they are compared
against (knowledge-compilation exact computation, Monte Carlo sampling, the
CNF proxy ranking heuristic).

Typical use::

    from repro import Database, attribute_facts, parse_query

    db = Database()
    db.add_fact("R", ("a",))
    db.add_fact("S", ("a", "b"))
    db.add_fact("T", ("b",))
    query = parse_query("Q() :- R(X), S(X, Y), T(Y)")
    for result in attribute_facts(query, db):
        for attribution in result.attributions:
            print(attribution)
"""

from repro.boolean.dnf import DNF
from repro.core.adaban import AdaBanResult, adaban, adaban_all
from repro.core.attribution import (
    AttributionResult,
    FactAttribution,
    attribute_facts,
    rank_facts,
    topk_facts,
)
from repro.core.banzhaf import banzhaf_exact
from repro.core.exaban import exaban, exaban_all
from repro.core.ichiban import (
    IchiBanTimeout,
    RankedVariable,
    ichiban_rank,
    ichiban_topk,
    ichiban_topk_certain,
    ranked_from_bounds,
    ranked_from_intervals,
)
from repro.core.shapley import shapley_all, shapley_exact
from repro.db.database import Database, Fact
from repro.db.datalog import parse_query
from repro.db.lineage import lineage_of_answers, lineage_of_boolean_query
from repro.db.query import Atom, ConjunctiveQuery, QueryVariable, Selection, UnionQuery
from repro.dtree.compile import CompilationBudget, compile_dnf
from repro.engine import (
    AttributionService,
    CacheStore,
    CircuitBreaker,
    CompiledLineage,
    DiskStore,
    Engine,
    EngineConfig,
    EngineStats,
    FaultPlan,
    LogStore,
    MemoryStore,
    ResilientStore,
    RetryPolicy,
    ShardedStore,
    migrate_store,
    open_store,
    wrap_store,
)

__version__ = "1.0.0"

__all__ = [
    "AdaBanResult",
    "Atom",
    "AttributionResult",
    "AttributionService",
    "CacheStore",
    "CircuitBreaker",
    "CompilationBudget",
    "CompiledLineage",
    "ConjunctiveQuery",
    "DNF",
    "Database",
    "DiskStore",
    "Engine",
    "EngineConfig",
    "EngineStats",
    "Fact",
    "FaultPlan",
    "MemoryStore",
    "FactAttribution",
    "IchiBanTimeout",
    "LogStore",
    "QueryVariable",
    "RankedVariable",
    "ResilientStore",
    "RetryPolicy",
    "Selection",
    "ShardedStore",
    "UnionQuery",
    "adaban",
    "adaban_all",
    "attribute_facts",
    "banzhaf_exact",
    "compile_dnf",
    "exaban",
    "exaban_all",
    "ichiban_rank",
    "ichiban_topk",
    "ichiban_topk_certain",
    "lineage_of_answers",
    "lineage_of_boolean_query",
    "migrate_store",
    "open_store",
    "parse_query",
    "rank_facts",
    "ranked_from_bounds",
    "ranked_from_intervals",
    "shapley_all",
    "shapley_exact",
    "topk_facts",
    "wrap_store",
    "__version__",
]
