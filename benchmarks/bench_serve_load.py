"""Load/concurrency benchmark for the serving front-end.

Simulates the deployment story of :class:`~repro.engine.frontend.
ServingFrontend`: several clients hammer one service with *repeat
traffic* (the same pool of non-read-once query classes, so concurrent
duplicates are the norm, as in any dashboard- or API-driven
deployment).  Two runs over identical traffic:

* **serial** -- one thread calling :meth:`AttributionService.submit`
  for every client's requests in turn: the ground truth for values and
  compilations, and the live alternative to the front-end;
* **frontend** -- the threaded front-end, one request per worker at a
  time, whose engines share each in-flight computation (single-flight).

Gates only the deterministic properties:

* **exactly once** -- every front-end round compiles exactly as many
  lineages as the serial run (one per query class), however the
  concurrent duplicates interleave;
* **exactness** -- every front-end response is bit-identical (exact
  ``Fraction`` equality) to the serial run;
* **delivery** -- zero failed or dropped responses: every request
  produces exactly one ``ok`` response.

Throughput (``throughput_rps``), p50/p95 latency of both runs and the
front-end/serial throughput ratio are reported, not gated: they depend
on the scheduler and the host's core count.

A second, **head-of-line** scenario measures what the front-end is for.
Three clients send short warm requests (memory-tier hits) while a
fourth sends long cold lineages (larger bipartite joins that compile
for about 0.5 s each at full size, 0.2 s in smoke); every client thinks
between requests.  It runs once through one ``AttributionService`` whose
``submit`` calls are serialized by a lock -- short requests queue behind
a long one -- and once through a 4-worker front-end.  Short-request
p50/p95 and wall time of both are reported, not gated; every response
must be ``ok``.

Emits ``BENCH_serve_load.json`` (the head-of-line figures under
``metrics.head_of_line``) plus a per-run table of the repeat-traffic runs
(``serve_load_run_table.csv``).  Environment knobs:
``REPRO_BENCH_CLIENTS`` (default 4), ``REPRO_BENCH_CLASSES`` (query
classes, default 6), ``REPRO_BENCH_REPEATS`` (passes over the pool per
client, default 2), ``REPRO_BENCH_ROUNDS`` (best-of timing rounds,
default 2), and ``REPRO_BENCH_SMOKE=1`` for the CI smoke configuration
(4 clients, 3 small classes, 1 repeat, 1 round, 4 smaller long
lineages).  Runs
standalone (``python benchmarks/bench_serve_load.py``) or under pytest
with the benchmark harness.
"""

from __future__ import annotations

import csv
import os
import threading
import time
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from conftest import emit_bench_json, register_report

from repro import Database
from repro.engine.frontend import FrontendConfig, ServingFrontend
from repro.engine.serve import AttributionService

_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "results")

#: Non-read-once clause: compilation must Shannon-expand, so every class
#: costs real compute (about 10-40x a warm cache hit) -- the regime
#: where sharing computation matters.
_CLASS_QUERY = "Q() :- {p}R{i}(X), {p}S{i}(X, Y), {p}T{i}(Y)"

#: Head-of-line scenario, per configuration (full, smoke): requests per
#: short client, think time after every request (it spreads the short
#: traffic over the long work), and the long client's lineage count and
#: bipartite size.  Each long lineage blocks about one request per short
#: client, so ``long / short`` (over 10%) is the share of short requests
#: that can queue behind one: above 5%, so p95 sees them.
_HOL_SHORT_CLIENTS = 3
_HOL = {False: {"short": 70, "think": 0.06, "long": 8, "size": 8},
        True: {"short": 25, "think": 0.025, "long": 4, "size": 7}}


def _add_classes(db: Database, prefix: str, num_classes: int,
                 size: int) -> List[str]:
    """Add ``num_classes`` disjoint bipartite joins; return their queries.

    Class ``i`` drops ``i`` edges from its complete bipartite graph:
    distinct clause counts guarantee the classes are *not* WL-isomorphic
    (renaming relations alone would give one canonical lineage and the
    whole pool would compile exactly once)."""
    for i in range(num_classes):
        drop = {((j * 2 + i) % size, (j + i) % size) for j in range(i)}
        for x in range(size):
            db.add_fact(f"{prefix}R{i}", (x,))
            db.add_fact(f"{prefix}T{i}", (x,))
            for y in range(size):
                if (x, y) not in drop:
                    db.add_fact(f"{prefix}S{i}", (x, y))
    return [_CLASS_QUERY.format(p=prefix, i=i) for i in range(num_classes)]


def _workload(num_classes: int, size: int,
              ) -> Tuple[Database, List[str]]:
    """One database carrying ``num_classes`` disjoint bipartite joins."""
    db = Database()
    return db, _add_classes(db, "", num_classes, size)


def _fractions(response) -> List[List[Tuple[str, Fraction]]]:
    return [
        [(entry["fact"], Fraction(entry["value"]))
         for entry in answer["attributions"]]
        for answer in response["answers"]
    ]


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _run_serial(database: Database, traffic: List[str]) -> Dict[str, object]:
    service = AttributionService(database)
    latencies: List[float] = []
    responses = []
    started = time.perf_counter()
    for query in traffic:
        t0 = time.perf_counter()
        responses.append(service.submit({"op": "attribute",
                                         "query": query}))
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - started
    return {"responses": responses, "latencies": latencies,
            "elapsed": elapsed, "service": service}


def _run_frontend(database: Database, per_client: List[str],
                  clients: int) -> Dict[str, object]:
    """Each client thread submits the same repeat-traffic sequence."""
    service = AttributionService(database)
    config = FrontendConfig(workers=clients, max_queue=max(16, clients * 4))
    frontend = ServingFrontend(service, config)
    barrier = threading.Barrier(clients)
    per_client_out: List[List] = [[] for _ in range(clients)]
    latencies: List[List[float]] = [[] for _ in range(clients)]

    def client(index: int) -> None:
        barrier.wait()
        for query in per_client:
            t0 = time.perf_counter()
            response = frontend.submit({"op": "attribute", "query": query,
                                        "client": f"client-{index}"})
            latencies[index].append(time.perf_counter() - t0)
            per_client_out[index].append(response)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    report = frontend.stats()
    frontend.close()

    responses = [response for out in per_client_out for response in out]
    assert len(responses) == clients * len(per_client), (
        "dropped responses: "
        f"{len(responses)} != {clients * len(per_client)}")
    return {"responses": responses,
            "latencies": [l for ls in latencies for l in ls],
            "elapsed": elapsed, "service": service, "frontend": report}


def _hol_clients(send: Callable[[Dict[str, object]], Dict[str, object]],
                 short: List[str], long: List[str], per_client: int,
                 think: float) -> Dict[str, object]:
    """Drive the head-of-line traffic through ``send``; time the short side.

    Every client is a closed loop with a think time after each request.
    Wall time runs from the common start until the last client
    finishes."""
    clients = _HOL_SHORT_CLIENTS + 1
    barrier = threading.Barrier(clients)
    latencies: List[List[float]] = [[] for _ in range(_HOL_SHORT_CLIENTS)]
    responses: List[List] = [[] for _ in range(clients)]

    def short_client(index: int) -> None:
        barrier.wait()
        for n in range(per_client):
            query = short[(index + n) % len(short)]
            t0 = time.perf_counter()
            responses[index].append(send({"op": "attribute", "query": query,
                                          "client": f"short-{index}"}))
            latencies[index].append(time.perf_counter() - t0)
            time.sleep(think)

    def long_client() -> None:
        barrier.wait()
        for query in long:
            responses[-1].append(send({"op": "attribute", "query": query,
                                       "client": "long"}))
            time.sleep(think)

    threads = [threading.Thread(target=short_client, args=(i,))
               for i in range(_HOL_SHORT_CLIENTS)]
    threads.append(threading.Thread(target=long_client))
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    flat = [response for out in responses for response in out]
    assert len(flat) == _HOL_SHORT_CLIENTS * per_client + len(long)
    for response in flat:
        assert response["ok"], response
    samples = [latency for ls in latencies for latency in ls]
    return {"short_requests": len(samples),
            "long_requests": len(long),
            "short_p50_ms": round(_percentile(samples, 0.50) * 1000, 2),
            "short_p95_ms": round(_percentile(samples, 0.95) * 1000, 2),
            "wall_s": round(elapsed, 3)}


def _run_head_of_line(smoke: bool) -> Dict[str, object]:
    """The head-of-line scenario through both serving shapes."""
    config = _HOL[smoke]
    database = Database()
    short = _add_classes(database, "", 3, 4)
    long = _add_classes(database, "L", config["long"], config["size"])
    per_client, think = config["short"], config["think"]

    def warm_service() -> AttributionService:
        # Fresh tiers per run: the short queries are memory hits, the
        # long lineages compile cold on both sides.
        service = AttributionService(database)
        for query in short:
            assert service.submit({"op": "attribute", "query": query})["ok"]
        return service

    service = warm_service()
    lock = threading.Lock()

    def serialized(request: Dict[str, object]) -> Dict[str, object]:
        with lock:
            return service.submit(request)

    serial = _hol_clients(serialized, short, long, per_client, think)
    frontend = ServingFrontend(warm_service(), FrontendConfig(workers=4))
    try:
        concurrent = _hol_clients(frontend.submit, short, long,
                                  per_client, think)
    finally:
        frontend.close()
    return {"serial": serial, "frontend": concurrent,
            "long_bipartite_size": config["size"],
            "think_ms": think * 1000}


def _row(name: str, run: Dict[str, object],
         clients: int) -> Dict[str, object]:
    responses = run["responses"]
    latencies = run["latencies"]
    counters = run["service"].stats_counters
    failures = sum(1 for response in responses if not response.get("ok"))
    return {
        "run": name,
        "clients": clients,
        "requests": len(responses),
        "throughput_rps": round(len(responses) / run["elapsed"], 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 2),
        "p95_ms": round(_percentile(latencies, 0.95) * 1000, 2),
        "failure_rate": round(failures / len(responses), 4),
        "compilations": counters.compilations,
        "coalesced_answers": counters.coalesced_requests,
    }


def _write_run_table(rows: List[Dict[str, object]]) -> str:
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    path = os.path.join(_RESULTS_DIR, "serve_load_run_table.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


def run_benchmark(clients: int = None, num_classes: int = None,
                  repeats: int = None) -> str:
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    clients = clients or int(os.environ.get(
        "REPRO_BENCH_CLIENTS", "4"))
    num_classes = num_classes or int(os.environ.get(
        "REPRO_BENCH_CLASSES", "3" if smoke else "6"))
    repeats = repeats or int(os.environ.get(
        "REPRO_BENCH_REPEATS", "1" if smoke else "2"))
    rounds = max(1, int(os.environ.get("REPRO_BENCH_ROUNDS",
                                       "1" if smoke else "2")))
    size = 4 if smoke else 5
    assert clients >= 4, "the load story is told at >= 4 clients"

    database, queries = _workload(num_classes, size)
    per_client = queries * repeats
    traffic = per_client * clients

    # Best-of-rounds timing (each round gets a fresh service and
    # caches); every round of both runs is checked below.
    serial_rounds = [_run_serial(database, traffic) for _ in range(rounds)]
    frontend_rounds = [_run_frontend(database, per_client, clients)
                       for _ in range(rounds)]

    expected = {}
    for query, response in zip(traffic, serial_rounds[0]["responses"]):
        assert response["ok"], response
        expected[query] = _fractions(response)
    required = serial_rounds[0]["service"].stats_counters.compilations
    assert required == num_classes, (
        f"serial run compiled {required} lineages for {num_classes} "
        "classes")

    for run in serial_rounds + frontend_rounds:
        for query, response in zip(traffic, run["responses"]):
            assert response["ok"], response
            assert _fractions(response) == expected[query], (
                f"values diverged from the serial run for {query!r}")
    for run in frontend_rounds:
        compilations = run["service"].stats_counters.compilations
        assert compilations == required, (
            f"the front-end compiled {compilations} lineages, the serial "
            f"run {required}: concurrent duplicates computed twice")

    serial = min(serial_rounds, key=lambda run: run["elapsed"])
    frontend = min(frontend_rounds, key=lambda run: run["elapsed"])
    rows = [_row("serial", serial, 1), _row("frontend", frontend, clients)]
    table_path = _write_run_table(rows)
    ratio = rows[1]["throughput_rps"] / rows[0]["throughput_rps"]
    head_of_line = _run_head_of_line(smoke)
    hol = _HOL[smoke]

    emit_bench_json(
        "serve_load",
        workload=f"{clients} clients x {len(per_client)} requests of "
                 f"repeat traffic over {num_classes} non-read-once "
                 f"query classes (bipartite size {size})",
        ops_per_sec={
            "serve.requests_per_sec.frontend": rows[1]["throughput_rps"],
            "serve.requests_per_sec.serial": rows[0]["throughput_rps"],
        },
        metrics={
            "runs": rows,
            "clients": clients,
            "rounds": rounds,
            "requests_per_run": len(traffic),
            "frontend_over_serial": round(ratio, 3),
            "compilations_required": required,
            "frontend_compilations": [
                run["service"].stats_counters.compilations
                for run in frontend_rounds],
            "frontend_stats": frontend["frontend"],
            "exactness": "all responses Fraction-identical to serial",
            "run_table_csv": os.path.basename(table_path),
            "head_of_line": head_of_line,
        },
    )

    header = (f"{'run':<10} {'clients':>7} {'req':>5} {'rps':>8} "
              f"{'p50 ms':>8} {'p95 ms':>8} {'fail':>6} {'compiles':>9}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['run']:<10} {row['clients']:>7} {row['requests']:>5} "
            f"{row['throughput_rps']:>8.1f} {row['p50_ms']:>8.2f} "
            f"{row['p95_ms']:>8.2f} {row['failure_rate']:>6.2%} "
            f"{row['compilations']:>9}")
    lines += [
        "",
        f"exactly once:        every front-end round ({rounds}) compiled "
        f"{required} lineages, as the serial run",
        f"exactness:           all {rounds * len(traffic)} front-end "
        "responses Fraction-identical to serial",
        "delivery:            zero dropped responses, zero failures",
        f"front-end / serial:  {ratio:.2f}x throughput (best round of "
        f"{rounds} each; reported, not gated)",
        "",
        f"head-of-line: {_HOL_SHORT_CLIENTS} clients x {hol['short']} "
        f"short warm requests beside 1 client x {hol['long']} long cold "
        f"lineages (bipartite size {hol['size']}), "
        f"{head_of_line['think_ms']:.0f} ms think; reported, not gated",
        f"{'serving':<22} {'short p50 ms':>12} {'short p95 ms':>12} "
        f"{'wall s':>8}",
    ]
    for name, key in (("lock-serialized", "serial"),
                      ("front-end", "frontend")):
        run = head_of_line[key]
        lines.append(f"{name:<22} {run['short_p50_ms']:>12.2f} "
                     f"{run['short_p95_ms']:>12.2f} {run['wall_s']:>8.3f}")
    return "\n".join(lines)


def test_serve_load():
    report = run_benchmark()
    register_report("serve_load", report)


if __name__ == "__main__":
    print(run_benchmark())
