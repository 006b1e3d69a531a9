"""The three workloads: seeded inputs, the ops one client sends, and checks.

Every workload is cut into *rounds* of identical-shaped, deterministic work
(see README.md).  A round's inputs come from ``(seed, round index)`` only;
each round starts from fresh program state, so a round's per-layer counts
repeat exactly and any number of rounds measures the same mix.

Only the program's public API is used: ``repro`` and its workload
generators build the inputs, ``Engine``/``AttributionService`` run them.
No workload sets ``timeout_seconds`` or ``deadline_ms``: wall-clock budgets
would make the amount of work depend on host speed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import (
    AttributionService,
    Database,
    Engine,
    EngineConfig,
    lineage_of_answers,
    open_store,
    parse_query,
    ranked_from_bounds,
)
from repro.workloads import academic, imdb, tpch
from repro.workloads.generators import (
    bipartite_lineage,
    chain_lineage,
    random_positive_dnf,
)

from oracle import EPSILON, Oracle, check_topk, check_values

DATASETS = {"academic": academic, "imdb": imdb, "tpch": tpch}


def _years(first: int, last: int, paper: int) -> List[tuple]:
    return [(year,) for year in range(first, last + 1) if year != paper]


#: The 24 paper queries: (dataset, name, template, paper constants, other
#: constants).  Filled with the paper constants they are the queries of
#: ``repro.workloads``; the other constants make the fresh variants of
#: ``serve-warm``.  Other constants select no more than the paper's do
#: (a boolean query over every movie is a lineage of hundreds of
#: variables, whose top-k alone takes most of a second), so every variant
#: op stays short.  Kept here so the workloads cannot change with the
#: program.
QUERIES: List[Tuple[str, str, str, tuple, List[tuple]]] = [
    ("academic", "authors_of_venue",
     "Q(A) :- Author(A, N), Writes(A, P), Paper(P, V, Y), Venue(V, T)",
     (), []),
    ("academic", "recent_authors",
     "Q(A) :- Author(A, N), Writes(A, P), Paper(P, V, Y), Y >= {0}",
     (2015,), _years(2015, 2023, 2015)),
    ("academic", "venue_activity",
     "Q(V) :- Paper(P, V, Y), Writes(A, P), Author(A, N)", (), []),
    ("academic", "cited_papers",
     "Q(P2) :- Cites(P1, P2), Paper(P1, V, Y), Paper(P2, V2, Y2)", (), []),
    ("academic", "coauthor_pairs",
     "Q(A1, A2) :- Writes(A1, P), Writes(A2, P), Author(A1, N1), "
     "Author(A2, N2)", (), []),
    ("academic", "influential_authors",
     "Q(A) :- Author(A, N), Writes(A, P), Cites(P2, P)", (), []),
    ("academic", "boolean_recent_citation",
     "Q() :- Cites(P1, P2), Paper(P1, V, Y), Y >= {0}",
     (2018,), _years(2018, 2023, 2018)),
    ("academic", "venue_or_citation_union",
     "Q(P) :- Paper(P, V, Y), Cites(P, P2) ; "
     "Q(P) :- Paper(P, V, Y), Cites(P2, P)", (), []),
    ("imdb", "movies_of_genre",
     "Q(M) :- Movie(M, T, Y), Genre(M, G), Cast(P, M)", (), []),
    ("imdb", "actors_in_recent_movies",
     "Q(P) :- Cast(P, M), Movie(M, T, Y), Y >= {0}", (2010,),
     _years(2010, 2023, 2010)),
    ("imdb", "actor_director_pairs",
     "Q(P1, P2) :- Cast(P1, M), Directs(P2, M), Movie(M, T, Y)", (), []),
    ("imdb", "directors_of_dramas",
     "Q(P) :- Directs(P, M), Movie(M, T, Y), Genre(M, '{0}')",
     ("drama",), [("comedy",), ("thriller",), ("documentary",),
                  ("animation",)]),
    ("imdb", "people_working_together",
     "Q(P1, P2) :- Cast(P1, M), Cast(P2, M), Movie(M, T, Y)", (), []),
    ("imdb", "prolific_people_union",
     "Q(P) :- Cast(P, M), Movie(M, T, Y) ; "
     "Q(P) :- Directs(P, M), Movie(M, T, Y)", (), []),
    ("imdb", "boolean_old_movie_cast",
     "Q() :- Cast(P, M), Movie(M, T, Y), Y <= {0}", (1995,),
     _years(1981, 1995, 1995)),
    ("imdb", "movie_with_director_and_cast",
     "Q(M) :- Movie(M, T, Y), Cast(P1, M), Directs(P2, M)", (), []),
    ("tpch", "customer_orders_by_segment",
     "Q(C) :- Customer(C, N, '{0}'), Orders(O, C, Y)",
     ("building",), [("machinery",), ("household",)]),
    ("tpch", "parts_shipped_to_nation",
     "Q(P) :- Lineitem(O, P, S), Orders(O, C, Y), Customer(C, '{0}', Seg)",
     ("fr",), [("de",), ("jp",), ("cn",), ("us",), ("br",)]),
    ("tpch", "supplier_customer_same_nation",
     "Q(S, C) :- Supplier(S, N), Customer(C, N, Seg), Orders(O, C, Y), "
     "Lineitem(O, P, S)", (), []),
    ("tpch", "recent_order_parts",
     "Q(P) :- Lineitem(O, P, S), Orders(O, C, Y), Y >= {0}",
     (1996,), [(1997,), (1998,)]),
    ("tpch", "brass_part_suppliers",
     "Q(S) :- Supplier(S, N), Lineitem(O, P, S), Part(P, '{0}')",
     ("brass",), [("steel",), ("tin",)]),
    ("tpch", "customers_with_any_order_union",
     "Q(C) :- Customer(C, N, Seg), Orders(O, C, Y), Y <= {0} ; "
     "Q(C) :- Customer(C, N, Seg), Orders(O, C, Y), Y >= {1}",
     (1994, 1997), [(low, high) for low in (1992, 1993, 1994)
                    for high in (1997, 1998) if (low, high) != (1994, 1997)]),
    ("tpch", "boolean_european_supply_chain",
     "Q() :- Supplier(S, N), Nation(N, '{0}'), Lineitem(O, P, S), "
     "Orders(O, C, Y)", ("europe",), [("asia",), ("america",)]),
    ("tpch", "order_part_supplier_triples",
     "Q(O) :- Orders(O, C, Y), Lineitem(O, P, S), Supplier(S, N), Part(P, T)",
     (), []),
]

#: queries-cold: one pass per scale per round, so every round spans small
#: to large databases and the latency distribution has no gaps that a
#: seed could move the median across.  At 1.5 the slowest op stays
#: well under 0.25 s.
COLD_SCALES = (0.5, 0.7, 0.9, 1.1, 1.3, 1.5)

#: serve-warm: one deployed database holding all three datasets (their
#: relation names do not overlap), fixed across runs; the run seed drives
#: the traffic.  With one database per seed, per-query costs, and so every
#: metric, moved by up to a third from seed to seed.
SERVE_SCALE = 2.0
SERVE_DB_SEED = 2024
SERVE_REPEATS = 2
TOPK = 3

#: lineages-hard: (generator, size) ladder of 11-18 variable lineages, so
#: every round has the same size profile.  IchiBan's cost roughly doubles
#: per two variables and varies threefold between lineages of one size;
#: stopping at 17-18 variables keeps its ops under 0.25 s and the slowest
#: five percent of ops from resting on a handful of extreme lineages.
HARD_LADDER = (
    ("bipartite", 7), ("bipartite", 8), ("bipartite", 9), ("bipartite", 10),
    ("random", 14), ("random", 15), ("random", 16), ("random", 17),
    ("chain", 5), ("chain", 6), ("chain", 7), ("chain", 8),
)
HARD_CONFIGS = {
    "auto": EngineConfig(),
    "approximate": EngineConfig(method="approximate", epsilon=float(EPSILON)),
    "topk": EngineConfig(method="topk", k=TOPK),
}

#: Engine counters summed into each round's per-layer counts.
ENGINE_COUNTERS = ("cache_hits", "store_hits", "cache_misses",
                   "artifact_hits", "kernel_sweeps", "kernel_fallbacks",
                   "fallbacks", "refinement_rounds", "partial_results",
                   "store_retries")

#: One op: (context naming its input for the check, the call to time).
Op = Tuple[str, Callable[[], object]]


def round_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def query_text(template: str, constants: tuple) -> str:
    return template.format(*constants)


def _sum_counters(stats_objects) -> Dict[str, int]:
    totals = dict.fromkeys(ENGINE_COUNTERS, 0)
    for stats in stats_objects:
        for name in ENGINE_COUNTERS:
            totals[name] += getattr(stats, name)
    return totals


def _entries(rows) -> List[tuple]:
    return [(variable, Fraction(value), lower, upper)
            for variable, value, lower, upper in rows]


class Round:
    """One round: untimed ``start``, timed ``ops``, then ``counters``."""

    def start(self) -> None:
        pass

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- #
# queries-cold
# --------------------------------------------------------------------- #


class QueriesCold:
    """The library's batch path, cold: fresh default engine per pass."""

    name = "queries-cold"

    def __init__(self, seed: int, work_dir: str, primed_dir: str) -> None:
        self.seed = seed
        self.oracle = Oracle()
        self._queries = None
        self._dbs: Dict[tuple, Database] = {}

    def queries(self):
        if self._queries is None:
            self._queries = [(dataset, name,
                              parse_query(query_text(template, constants)))
                             for dataset, name, template, constants, _
                             in QUERIES]
        return self._queries

    def passes(self, index: int) -> List[Tuple[float, Dict[str, int]]]:
        """Per pass of round ``index``: its scale and each dataset's seed."""
        rng = random.Random(round_seed(self.seed, index))
        return [(scale, {dataset: rng.randrange(2 ** 31)
                         for dataset in DATASETS})
                for scale in COLD_SCALES]

    def inputs(self, index: int) -> Dict[str, Database]:
        """The parsed queries and the databases of round ``index``'s first
        pass: what a user builds before the first op."""
        self.queries()
        scale, seeds = self.passes(index)[0]
        return databases(scale, seeds)

    def construct(self, inputs, store_dir: Optional[str] = None) -> Engine:
        return Engine(EngineConfig())

    def round(self, index: int) -> Round:
        return _ColdRound(self, self.passes(index))

    @staticmethod
    def encode(context: str, results) -> str:
        return json.dumps([[list(result.answer),
                            [[a.variable, str(a.value), a.lower, a.upper]
                             for a in result.attributions]]
                           for result in results])

    def verify(self, context: str, encoded: str) -> Optional[str]:
        dataset, db_seed, scale, name = json.loads(context)
        key = (dataset, db_seed, scale)
        database = self._dbs.get(key)
        if database is None:
            self._dbs.clear()
            database = DATASETS[dataset].generate_database(seed=db_seed,
                                                           scale=scale)
            self._dbs[key] = database
        query = next(q for d, n, q in self.queries()
                     if d == dataset and n == name)
        return check_answers(self.oracle, lineage_of_answers(query, database),
                             [(tuple(answer), _entries(rows))
                              for answer, rows in json.loads(encoded)])


def databases(scale: float, seeds: Dict[str, int]) -> Dict[str, Database]:
    return {dataset: module.generate_database(seed=seeds[dataset],
                                              scale=scale)
            for dataset, module in DATASETS.items()}


class _ColdRound(Round):
    """Six passes; each builds its databases and a fresh default engine
    between ops, and drops both before the next pass."""

    def __init__(self, workload: QueriesCold, passes) -> None:
        self.workload = workload
        self.passes = passes
        self.totals = _sum_counters([])

    def ops(self) -> Iterator[Op]:
        for scale, seeds in self.passes:
            pass_databases = databases(scale, seeds)
            engine = Engine(EngineConfig())
            for dataset, name, query in self.workload.queries():
                context = json.dumps([dataset, seeds[dataset], scale, name])
                yield context, partial(_attribute_one, engine, query,
                                       pass_databases[dataset])
            for name, value in _sum_counters([engine.stats]).items():
                self.totals[name] += value

    def counters(self) -> Dict[str, int]:
        return self.totals


def _attribute_one(engine: Engine, query, database: Database):
    ((_, results),) = engine.attribute_many([query], database)
    return results


def check_answers(oracle: Oracle, lineages, answers) -> Optional[str]:
    """Check ``[(answer tuple, entries)]`` against the answers' lineages."""
    expected = {tuple(lineage.values): lineage.lineage for lineage in lineages}
    got = {answer for answer, _ in answers}
    if got != set(expected) or len(answers) != len(expected):
        return (f"answers differ: {len(got ^ set(expected))} of "
                f"{len(expected)} expected")
    for answer, entries in answers:
        reason = check_values(entries, oracle.values(expected[answer]))
        if reason is not None:
            return f"answer {answer}: {reason}"
    return None


# --------------------------------------------------------------------- #
# serve-warm
# --------------------------------------------------------------------- #


def base_pool() -> List[dict]:
    pool = []
    for _, _, template, constants, _ in QUERIES:
        text = query_text(template, constants)
        pool.append({"op": "attribute", "query": text})
        pool.append({"op": "topk", "query": text, "k": TOPK})
    return pool


def fresh_variants(rng: random.Random) -> List[dict]:
    """One variant per parameterized query: ``attribute`` then ``topk``.

    Every epoch gets the same mix, only the constants differ; ``topk``
    follows its ``attribute`` (an analyst asking for the top facts of a
    fresh attribution), so it ranks off the compiled artifact.
    """
    variants = []
    for _, _, template, _, others in QUERIES:
        if others:
            text = query_text(template, rng.choice(others))
            variants.append([{"op": "attribute", "query": text},
                             {"op": "topk", "query": text, "k": TOPK}])
    return variants


def serve_database() -> Database:
    """All three datasets in one database, each from its own seed."""
    rng = random.Random(SERVE_DB_SEED)
    database = Database()
    for module in DATASETS.values():
        source = module.generate_database(seed=rng.randrange(2 ** 31),
                                          scale=SERVE_SCALE)
        for fact in source.endogenous_facts():
            database.add_fact(fact.relation, fact.values, endogenous=True)
        for fact in source.exogenous_facts():
            database.add_fact(fact.relation, fact.values, endogenous=False)
    return database


def open_service(database: Database, store_dir: str, warm_start: bool):
    """The service ``repro serve --store DIR [--warm-start]`` builds.

    ``open_store`` with its defaults is what the CLI's default flags ask
    for (backend, one shard, 65536 entries), so a change of default
    backend shows up here.  Returns ``(service, store)``.
    """
    store = open_store(store_dir)
    service = AttributionService(database, EngineConfig(), store=store,
                                 warm_start=warm_start)
    return service, store


def close_store(store) -> None:
    """Release the store the way ``repro serve`` does on exit."""
    close = getattr(store, "close", None)
    if close is not None:
        close()


def prime(store_dir: str) -> None:
    """Write the base pool's results and artifacts into a fresh store."""
    service, store = open_service(serve_database(), store_dir,
                                  warm_start=False)
    try:
        for request in base_pool():
            response = service.submit(dict(request))
            if not response.get("ok"):
                raise RuntimeError(f"priming failed: {response}")
        service.flush()
    finally:
        close_store(store)


class ServeWarm:
    """The operator's restart-then-serve path over a primed store."""

    name = "serve-warm"

    def __init__(self, seed: int, work_dir: str, primed_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.primed_dir = primed_dir
        self.oracle = Oracle()
        self.database: Optional[Database] = None
        self._truth: Dict[str, list] = {}
        self._fact_ids: Dict[str, int] = {}

    def inputs(self, index: int) -> Database:
        if self.database is None:
            self.database = serve_database()
        return self.database

    def construct(self, inputs, store_dir: str):
        return open_service(inputs, store_dir, warm_start=True)

    def stream(self, index: int) -> List[dict]:
        rng = random.Random(round_seed(self.seed, index))
        requests = base_pool() * SERVE_REPEATS
        rng.shuffle(requests)
        for attribute, topk in fresh_variants(rng):
            first = rng.randrange(len(requests) + 1)
            requests.insert(first, attribute)
            requests.insert(rng.randrange(first + 1, len(requests) + 1), topk)
        return requests

    def round(self, index: int) -> Round:
        return _ServeRound(self, index)

    @staticmethod
    def encode(context: str, response) -> str:
        return json.dumps(response, sort_keys=True)

    def verify(self, context: str, encoded: str) -> Optional[str]:
        request, response = json.loads(context), json.loads(encoded)
        if not response.get("ok"):
            return f"error response: {response.get('error')}"
        database = self.inputs(0)
        if not self._fact_ids:
            self._fact_ids = {str(database.fact_of(v)): v
                              for v in database.endogenous_variables()}
        text = request["query"]
        if text not in self._truth:
            self._truth[text] = lineage_of_answers(parse_query(text),
                                                   database)
        lineages = self._truth[text]
        ids = self._fact_ids
        if request["op"] == "attribute":
            return check_answers(self.oracle, lineages, [
                (tuple(answer["answer"]),
                 [(ids[a["fact"]], Fraction(a["value"]), a["lower"],
                   a["upper"]) for a in answer["attributions"]])
                for answer in response["answers"]])
        expected = {tuple(l.values): l.lineage for l in lineages}
        answers = {tuple(a["answer"]): a["ranking"]
                   for a in response["answers"]}
        if set(answers) != set(expected):
            return "top-k answers differ from the query's answers"
        for answer, ranking in answers.items():
            reason = check_topk(
                [(ids[e["fact"]], e["lower"], e["upper"]) for e in ranking],
                self.oracle.values(expected[answer]), request["k"])
            if reason is not None:
                return f"answer {answer}: {reason}"
        return None


class _ServeRound(Round):
    """One epoch: restart from the primed bytes, then serve the stream."""

    def __init__(self, workload: ServeWarm, index: int) -> None:
        self.workload = workload
        self.index = index
        self.path = os.path.join(workload.work_dir, f"epoch-{index}")
        self.service = self.store = None
        self.bytes_before = 0

    def start(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        shutil.copytree(self.workload.primed_dir, self.path)
        self.service, self.store = self.workload.construct(
            self.workload.inputs(0), self.path)
        self.bytes_before = self.store.stats().get("bytes_flushed", 0)

    def ops(self) -> Iterator[Op]:
        for request in self.workload.stream(self.index):
            context = json.dumps(request, sort_keys=True)
            yield context, partial(self.service.submit, request)

    def counters(self) -> Dict[str, int]:
        counters = _sum_counters([self.service.stats_counters])
        counters["request_errors"] = self.service.request_errors
        counters["bytes_flushed"] = (self.store.stats().get("bytes_flushed", 0)
                                     - self.bytes_before)
        return counters

    def close(self) -> None:
        if self.store is not None:
            close_store(self.store)
        shutil.rmtree(self.path, ignore_errors=True)


# --------------------------------------------------------------------- #
# lineages-hard
# --------------------------------------------------------------------- #


def hard_lineage(rng: random.Random, kind: str, size: int):
    if kind == "bipartite":
        return bipartite_lineage(rng, left=8, right=size, density=0.35)
    if kind == "random":
        return random_positive_dnf(rng, num_variables=size,
                                   num_clauses=size * 3 // 2,
                                   clause_width=(2, 3))
    return chain_lineage(rng, length=size, width=3)


class LineagesHard:
    """The paper's three algorithms on hard lineages, no database."""

    name = "lineages-hard"

    def __init__(self, seed: int, work_dir: str, primed_dir: str) -> None:
        self.seed = seed
        self.oracle = Oracle()
        self._lineages: Dict[int, list] = {}

    def inputs(self, index: int) -> list:
        rng = random.Random(round_seed(self.seed, index))
        return [hard_lineage(rng, kind, size) for kind, size in HARD_LADDER]

    def construct(self, inputs, store_dir: Optional[str] = None
                  ) -> Dict[str, Engine]:
        return {method: Engine(config)
                for method, config in HARD_CONFIGS.items()}

    def round(self, index: int) -> Round:
        return _HardRound(self, index)

    @staticmethod
    def encode(context: str, attributions) -> str:
        (result,) = attributions
        return json.dumps([
            result.method_used,
            [[v, str(value), *result.bounds.get(v, (None, None))]
             for v, value in sorted(result.values.items())]])

    def verify(self, context: str, encoded: str) -> Optional[str]:
        index, position, method = json.loads(context)
        if index not in self._lineages:
            self._lineages = {index: self.inputs(index)}
        truth = self.oracle.values(self._lineages[index][position])
        _, rows = json.loads(encoded)
        entries = _entries(rows)
        if method != "topk":
            return check_values(entries, truth)
        for variable, _, lower, upper in entries:
            if not lower <= truth.get(variable, 0) <= upper:
                return f"variable {variable}: bounds [{lower}, {upper}] miss"
        ranked = ranked_from_bounds(
            {variable: (lower, upper) for variable, _, lower, upper in entries},
            TOPK)
        return check_topk([(entry.variable, entry.lower, entry.upper)
                           for entry in ranked], truth, TOPK)


class _HardRound(Round):
    def __init__(self, workload: LineagesHard, index: int) -> None:
        self.workload = workload
        self.index = index
        self.lineages = workload.inputs(index)
        self.engines: Dict[str, Engine] = {}

    def start(self) -> None:
        self.engines = self.workload.construct(self.lineages)

    def ops(self) -> Iterator[Op]:
        for position, lineage in enumerate(self.lineages):
            for method, engine in self.engines.items():
                context = json.dumps([self.index, position, method])
                yield context, partial(engine.attribute_lineages, [lineage])

    def counters(self) -> Dict[str, int]:
        return _sum_counters(engine.stats for engine in self.engines.values())


WORKLOADS = {workload.name: workload
             for workload in (QueriesCold, ServeWarm, LineagesHard)}
