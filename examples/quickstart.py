"""Quickstart: attribute the answer of a small join query to its facts.

Builds the tiny database of the paper's running example (Example 6), asks the
Boolean query ``Q() :- R(X,Y,Z), S(X,Y,V), T(X,U)``, and prints the Banzhaf
value of every endogenous fact -- exactly, with the anytime approximation,
and with Shapley values for comparison.  Then demonstrates the warm-start
flow: persist the result cache with one engine, start a "new process"
(a fresh engine over the same store directory), and serve the same query
without recomputing anything.

Run with::

    python examples/quickstart.py
"""

import tempfile

from repro import (
    Database,
    Engine,
    EngineConfig,
    LogStore,
    attribute_facts,
    parse_query,
)


def build_database() -> Database:
    database = Database()
    database.add_fact("R", (1, 2, 3))
    database.add_fact("S", (1, 2, 4))
    database.add_fact("S", (1, 2, 5))
    database.add_fact("T", (1, 6))
    return database


def main() -> None:
    database = build_database()
    query = parse_query("Q() :- R(X, Y, Z), S(X, Y, V), T(X, U)")

    print("Query:", query)
    print("Database facts:", ", ".join(str(f) for f in database.endogenous_facts()))
    print()

    for method in ("exact", "approximate", "shapley"):
        print(f"--- {method} attribution ---")
        for result in attribute_facts(query, database, method=method,
                                      epsilon=0.1):
            for attribution in result.attributions:
                print(f"  {attribution}")
        print()

    print("The R and T facts participate in every explanation of the answer,")
    print("so their Banzhaf values dominate those of the two alternative S facts.")
    print()
    warm_start_flow(database, query)


def warm_start_flow(database: Database, query) -> None:
    """Persist the cache in one engine, warm-start a fresh one from disk.

    The CLI equivalent is ``repro cache save --store DIR ...`` followed by
    ``repro serve --store DIR --warm-start ...``.
    """
    print("--- warm-start flow (persistent cache tier) ---")
    store_dir = tempfile.mkdtemp(prefix="repro-cache-")

    with LogStore(store_dir) as store:
        cold = Engine(EngineConfig(method="exact", store=store))
        cold_results = cold.attribute(query, database)
    print(f"cold engine: computed {cold.stats.compilations} lineage(s), "
          f"persisted to {store_dir}")

    # A brand new engine (think: the next process after a restart) with a
    # fresh handle on the same store directory.  Closing the first handle
    # released the directory's writer lock.
    with LogStore(store_dir) as store:
        warm = Engine(EngineConfig(method="exact", store=store))
        warm_results = warm.attribute(query, database)
    assert warm_results == cold_results, "warm values must be bit-identical"
    print(f"warm engine: computed {warm.stats.compilations} lineage(s), "
          f"served {warm.stats.store_hits} from the disk store -- "
          "identical Fractions, no recomputation")


if __name__ == "__main__":
    main()
