"""Command-line interface: fact attribution for a query over CSV relations.

Lets a user run the library without writing Python::

    python -m repro --facts R=r.csv --facts S=s.csv --exogenous S \\
        --query "Q(X) :- R(X, Y), S(Y, Z)" --method auto --top 5

The default method is ``exact`` (ExaBan); ``--method auto`` as above adds
the AdaBan fallback.  Each ``--facts NAME=PATH`` loads one relation from a
headerless CSV file (one fact per row; every value is kept as a string
unless it parses as an integer).  Relations listed with ``--exogenous`` are
loaded as exogenous facts; all others are endogenous and receive
attribution scores.

Ranking instead of scoring (IchiBan): ``--rank`` prints every answer's
facts in Banzhaf order with certified intervals, ``--top-k K`` only the
top K.

The CLI runs on the batched attribution engine: repeatable ``--query``
attributes several queries in one process (sharing the lineage cache),
and ``--stats`` prints the engine's cache/timing counters afterwards.

Two subcommands expose the persistent cache tier and the serving loop
(both leave the flag-style attribution interface above untouched)::

    python -m repro serve --facts R=r.csv --requests requests.jsonl \\
        --store /var/cache/repro --stats
    python -m repro cache save --store DIR --facts ... --query ...
    python -m repro cache load --store DIR
    python -m repro cache warm --store DIR
    python -m repro cache compact --store DIR
    python -m repro cache migrate --store SRC --dest DST
    python -m repro cache stats --store DIR

``serve`` drives an :class:`repro.engine.serve.AttributionService` from a
JSON Lines request file (one ``{"op": "attribute"|"rank"|"topk", "query":
...}`` object per line; ``-`` reads stdin), printing one JSON response
per line; ``--store DIR`` adds the on-disk cache tier and ``--warm-start``
preloads it into memory.  ``--workers N`` (N >= 2) serves through the
concurrent front-end (:mod:`repro.engine.frontend`) -- worker threads, a
bounded admission queue (``--max-queue``), and a default per-request
deadline (``--deadline-ms``) under which late requests degrade to
best-effort partials -- while keeping responses in input order;
concurrent requests that need the same result share one computation in
the engine.  Every store is one append-only record log
(:class:`~repro.engine.logstore.LogStore`: point reads, single-writer
locking, compaction) per directory, and every command closes the store
it opened before it exits.
``cache save`` computes the given queries and persists the resulting
cache entries -- results *and* compiled-lineage artifacts, so a later
process skips recompilation too -- for warm starts; ``cache load``
verifies a store by loading it into a fresh engine; ``cache warm``
times that load (the restart cost a serving process will pay); ``cache
compact`` reclaims superseded records; ``cache migrate`` copies one
store into another -- a directory of legacy JSON shards is read through
:class:`~repro.engine.store.DiskStore`, anything else as a log store,
so the same command moves old stores over and, run once per ``root-NN``
directory, merges a store that older versions sharded into one;
``cache stats`` prints the store's per-kind (results vs compiled trees)
entry/size summary.  Only ``serve``, ``cache save`` and the migration
destination create a store; every other action needs an existing store
directory.

A store that cannot be opened -- another process holds the writer lock
(:class:`StoreLockedError`), or the directory is missing where a store
must exist, or unreadable -- makes
``serve`` and every ``cache`` action print one structured
``{"ok": false, "error": ..., "store": ...}`` JSON line instead of a
traceback and exit with code 2, so supervisors can branch on the
failure.  ``serve`` additionally takes ``--store-retries`` and
``--breaker-threshold``, the retry/circuit-breaker knobs of the store
resilience wrapper (:mod:`repro.reliability`).
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
import time
from typing import Iterable, List, Sequence, Tuple

from repro.db.database import Database
from repro.db.datalog import parse_query
from repro.engine import Engine, EngineConfig
from repro.engine.frontend import FrontendConfig, serve_jsonl_concurrent
from repro.engine.logstore import StoreLockedError, migrate_store, open_store
from repro.engine.serve import AttributionService, serve_jsonl
from repro.engine.store import DiskStore, holds_legacy_shards


def _coerce(value: str) -> object:
    text = value.strip()
    try:
        return int(text)
    except ValueError:
        return text


def _load_relation(database: Database, name: str, path: str,
                   endogenous: bool) -> int:
    count = 0
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if not row or all(not cell.strip() for cell in row):
                continue
            database.add_fact(name, [_coerce(cell) for cell in row],
                              endogenous=endogenous)
            count += 1
    return count


def _parse_facts_argument(argument: str) -> Tuple[str, str]:
    if "=" not in argument:
        raise argparse.ArgumentTypeError(
            f"--facts expects NAME=PATH, got {argument!r}"
        )
    name, path = argument.split("=", 1)
    if not name or not path:
        raise argparse.ArgumentTypeError(
            f"--facts expects NAME=PATH, got {argument!r}"
        )
    return name, path


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Banzhaf-value attribution of database facts to query answers.",
        epilog="Subcommands (each has its own --help): 'repro serve "
               "--requests FILE' answers a JSONL request stream from warm "
               "cache tiers; 'repro cache save|load|stats --store DIR' "
               "manages the persistent warm-start cache.",
    )
    _add_database_arguments(parser)
    parser.add_argument("--query", action="append", required=True,
                        metavar="QUERY",
                        help="Datalog-style query, e.g. \"Q(X) :- R(X, Y)\" "
                             "(repeatable; queries share the lineage cache)")
    parser.add_argument("--method",
                        choices=("auto", "exact", "approximate", "shapley"),
                        default=None,
                        help="attribution method (default: exact; auto = "
                             "exact with approximate fallback)")
    parser.add_argument("--epsilon", type=float, default=None,
                        metavar="EPS",
                        help="relative error for the approximate method, "
                             "the auto fallback and ranking (default: 0.1; "
                             "ignored, with a warning, for exact/shapley)")
    parser.add_argument("--rank", action="store_true",
                        help="rank every answer's facts by Banzhaf value "
                             "with certified intervals (IchiBan) instead "
                             "of printing attribution scores")
    parser.add_argument("--top-k", dest="top_k", type=int, default=None,
                        metavar="K",
                        help="print only the top-K facts per answer, "
                             "decided by IchiBan's top-k-aware refinement")
    parser.add_argument("--top", type=int, default=0,
                        help="print only the top-K facts per answer "
                             "(0 = all; trims the output, unlike --top-k "
                             "which changes the algorithm)")
    parser.add_argument("--stats", action="store_true",
                        help="print engine statistics (cache hits, "
                             "compilations, stage timings) after the results")
    return parser


def _validate(parser: argparse.ArgumentParser, arguments) -> None:
    """Reject inconsistent flag combinations instead of silently ignoring."""
    if not arguments.facts:
        parser.error("at least one --facts NAME=PATH is required")
    if arguments.top < 0:
        parser.error("--top must be non-negative (0 prints all facts)")
    if arguments.top_k is not None and arguments.top_k < 1:
        parser.error("--top-k must be at least 1")
    if arguments.rank and arguments.top_k is not None:
        parser.error("--rank and --top-k are mutually exclusive")
    if (arguments.rank or arguments.top_k is not None) \
            and arguments.method is not None:
        parser.error("--method cannot be combined with --rank/--top-k "
                     "(they select the IchiBan ranking method)")
    if (arguments.rank or arguments.top_k is not None) and arguments.top:
        parser.error("--top cannot be combined with --rank/--top-k "
                     "(use --top-k to bound a ranking)")


def run(argv: Sequence[str], output=None) -> int:
    """Run the CLI; returns a process exit code.

    ``argv[0] == "serve"`` / ``"cache"`` dispatch to the subcommands;
    anything else is the flag-style attribution interface.
    """
    stream = output if output is not None else sys.stdout
    argv = list(argv)
    if argv and argv[0] == "serve":
        return _serve_command(argv[1:], stream)
    if argv and argv[0] == "cache":
        return _cache_command(argv[1:], stream)
    parser = build_parser()
    arguments = parser.parse_args(list(argv))
    _validate(parser, arguments)
    ranking = arguments.rank or arguments.top_k is not None
    method = arguments.method if arguments.method is not None else "exact"
    epsilon = arguments.epsilon if arguments.epsilon is not None else 0.1
    if (arguments.epsilon is not None and not ranking
            and method in ("exact", "shapley")):
        print(f"warning: --epsilon is ignored for method {method!r} "
              "(it only affects approximate, the auto fallback, and "
              "ranking)", file=stream)

    database = _build_database(arguments.facts, arguments.exogenous, stream)

    queries = [parse_query(text) for text in arguments.query]
    if ranking:
        engine = Engine(EngineConfig(
            method="topk" if arguments.top_k is not None else "rank",
            epsilon=epsilon, k=arguments.top_k))
        all_answered = _run_ranking(engine, queries, database, stream)
    else:
        engine = Engine(EngineConfig(method=method, epsilon=epsilon))
        all_answered = _run_attribution(engine, queries, database,
                                        arguments.top, stream)

    if arguments.stats:
        print("\nengine stats:", file=stream)
        print(json.dumps(engine.stats.as_dict(), indent=2), file=stream)
    # Exit 0 only when every query produced answers, extending the
    # single-query contract (exit 1 on an unanswered query) to batches.
    return 0 if all_answered else 1


def _run_attribution(engine: Engine, queries, database, top: int,
                     stream) -> bool:
    all_answered = True
    for query, results in engine.attribute_many(queries, database):
        if len(queries) > 1:
            print(f"\n== query {query} ==", file=stream)
        if not results:
            print("the query has no answers with endogenous support",
                  file=stream)
            all_answered = False
            continue
        for result in results:
            answer = result.answer if result.answer else "(true)"
            print(f"\nanswer {answer}:", file=stream)
            attributions: Iterable = result.attributions
            if top > 0:
                attributions = result.top(top)
            for attribution in attributions:
                print(f"  {attribution}", file=stream)
    return all_answered


def _run_ranking(engine: Engine, queries, database, stream) -> bool:
    all_answered = True
    for query, rankings in engine.rank_many(queries, database):
        if len(queries) > 1:
            print(f"\n== query {query} ==", file=stream)
        if not rankings:
            print("the query has no answers with endogenous support",
                  file=stream)
            all_answered = False
            continue
        for answer_values, entries in rankings:
            answer = answer_values if answer_values else "(true)"
            print(f"\nanswer {answer}:", file=stream)
            for position, (fact, entry) in enumerate(entries, 1):
                print(f"  {position}. {fact}: "
                      f"{float(entry.estimate):.6g} "
                      f"in [{entry.lower}, {entry.upper}]", file=stream)
    return all_answered


def _build_database(facts: Sequence[Tuple[str, str]],
                    exogenous_names: Sequence[str], stream) -> Database:
    """Load every ``--facts`` relation into a fresh database."""
    exogenous = set(exogenous_names)
    database = Database()
    for name, path in facts:
        loaded = _load_relation(database, name, path,
                                endogenous=name not in exogenous)
        print(f"loaded {loaded} facts into {name}"
              f"{' (exogenous)' if name in exogenous else ''}", file=stream)
    return database


# --------------------------------------------------------------------- #
# The serve and cache subcommands
# --------------------------------------------------------------------- #


def _add_database_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--facts", action="append", default=[],
                        type=_parse_facts_argument, metavar="NAME=PATH",
                        help="load a relation from a headerless CSV file "
                             "(repeatable)")
    parser.add_argument("--exogenous", action="append", default=[],
                        metavar="NAME",
                        help="treat this relation's facts as exogenous "
                             "(repeatable)")


def _add_store_argument(parser: argparse.ArgumentParser,
                        required: bool, prefix: str = "store") -> None:
    """Add one store's flag group (``--store``/``--dest`` + knobs)."""
    flag = f"--{prefix}"
    parser.add_argument(flag, required=required, default=None,
                        metavar="DIR",
                        help="directory of the persistent (append-only "
                             "log) result store")
    parser.add_argument(f"{flag}-entries", type=int, default=65_536,
                        metavar="N",
                        help="store capacity in entries; oldest entries "
                             "are evicted past it (default: 65536)")


# A store that cannot be opened (held writer lock, missing/unreadable
# directory) is an operational condition, not a bug: the commands report
# it as one structured JSON line and exit with code 2 instead of a
# traceback, so wrappers and supervisors can branch on it.
_STORE_OPEN_ERRORS = (StoreLockedError, OSError)


def _open_store_checked(arguments, error_stream, prefix: str = "store",
                        read_only: bool = False, existing: bool = False,
                        legacy_reader: bool = False):
    """Open one flag group's store, degrading failures to a status line.

    ``read_only`` opens it in ``ro`` mode: read-only commands (stats,
    warm, the migration source) work beside a running ``serve`` and
    never write, not even to cut a torn tail.  ``existing`` refuses a
    missing directory instead of creating an empty store at a mistyped
    path.
    ``legacy_reader`` reads a directory that holds legacy shard files
    through the read-only :class:`~repro.engine.store.DiskStore`.
    Returns the opened store, or ``None`` after printing one
    machine-readable ``{"ok": false, ...}`` line to ``error_stream``
    (callers translate ``None`` into exit code 2).
    """
    path = getattr(arguments, prefix)
    try:
        if existing and not os.path.isdir(path):
            raise FileNotFoundError(errno.ENOENT, "no store directory", path)
        if legacy_reader and holds_legacy_shards(path):
            return DiskStore(path)
        return open_store(path,
                          max_entries=getattr(arguments, f"{prefix}_entries"),
                          mode="ro" if read_only else "rw")
    except _STORE_OPEN_ERRORS as error:
        print(json.dumps({"ok": False,
                          "error": f"{type(error).__name__}: {error}",
                          "store": path}),
              file=error_stream)
        return None


def _serve_command(argv: Sequence[str], stream, log=None) -> int:
    """``repro serve``: drive an AttributionService from a JSONL file.

    Responses go to ``stream`` (stdout) -- strictly one JSON object per
    line, so the output pipes into JSONL consumers; every diagnostic
    (facts loaded, warm-start report, ``--stats``) goes to ``log``
    (stderr by default).
    """
    log = log if log is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-lived serving loop: answer a stream of "
                    "attribute/rank/topk requests from warm cache tiers.",
    )
    _add_database_arguments(parser)
    parser.add_argument("--requests", required=True, metavar="FILE",
                        help="JSON Lines request file, one "
                             "{\"op\": ..., \"query\": ...} object per "
                             "line ('-' reads stdin)")
    _add_store_argument(parser, required=False)
    parser.add_argument("--store-retries", type=int, default=2, metavar="N",
                        help="retry a failing store read/flush up to N "
                             "extra times with exponential backoff before "
                             "degrading to a cache miss (default: 2; "
                             "0 disables the resilience wrapper)")
    parser.add_argument("--breaker-threshold", type=int, default=5,
                        metavar="N",
                        help="consecutive store failures that trip the "
                             "circuit breaker into memory-only serving "
                             "until a half-open probe succeeds "
                             "(default: 5; 0 disables the breaker)")
    parser.add_argument("--method",
                        choices=("auto", "exact", "approximate", "shapley"),
                        default="auto",
                        help="default method for 'attribute' requests "
                             "(default: auto)")
    parser.add_argument("--epsilon", type=float, default=0.1, metavar="EPS",
                        help="relative error for approximate/auto-fallback/"
                             "ranking requests (default: 0.1)")
    parser.add_argument("--warm-start", action="store_true",
                        help="preload the store into the in-memory tier "
                             "before serving (needs --store)")
    parser.add_argument("--stats", action="store_true",
                        help="print the service's tier hit rates and "
                             "engine counters after the stream")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker threads; 2 or more serve through the "
                             "concurrent front-end, one request per worker "
                             "at a time (default: 1, the plain serial loop)")
    parser.add_argument("--max-queue", type=int, default=64, metavar="N",
                        help="admission-queue bound of the concurrent "
                             "front-end (default: 64; needs --workers >= 2)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        metavar="MS",
                        help="default per-request deadline: requests "
                             "missing it degrade to best-effort partial "
                             "answers (needs --workers >= 2; a request's "
                             "own deadline_ms field overrides it)")
    arguments = parser.parse_args(list(argv))
    if not arguments.facts:
        parser.error("at least one --facts NAME=PATH is required")
    if arguments.warm_start and arguments.store is None:
        parser.error("--warm-start needs --store")
    if arguments.workers < 1:
        parser.error("--workers must be at least 1")
    if arguments.workers == 1 and arguments.deadline_ms is not None:
        parser.error("--deadline-ms needs the concurrent front-end: "
                     "pass --workers 2 or more")
    if arguments.store_retries < 0:
        parser.error("--store-retries must be non-negative")
    if arguments.breaker_threshold < 0:
        parser.error("--breaker-threshold must be non-negative")

    database = _build_database(arguments.facts, arguments.exogenous, log)
    if arguments.store is None:
        return _serve_stream(arguments, database, None, stream, log)
    store = _open_store_checked(arguments, log)
    if store is None:
        return 2
    try:
        return _serve_stream(arguments, database, store, stream, log)
    finally:
        store.close()  # flush, stop the compactor, release the writer lock


def _serve_stream(arguments, database, store, stream, log) -> int:
    """Serve ``--requests`` through one service over ``store``."""
    service = AttributionService(
        database,
        EngineConfig(method=arguments.method, epsilon=arguments.epsilon,
                     store_retries=arguments.store_retries,
                     breaker_threshold=arguments.breaker_threshold),
        store=store,
        warm_start=arguments.warm_start,
    )
    if arguments.warm_start:
        print(f"warm start: {service.warm_loaded} entries loaded into "
              "memory", file=log)

    if arguments.workers > 1:
        frontend_config = FrontendConfig(
            workers=arguments.workers,
            max_queue=arguments.max_queue,
            deadline_ms=arguments.deadline_ms,
        )

        def _serve(lines):
            return serve_jsonl_concurrent(service, lines, stream,
                                          frontend_config)
    else:
        def _serve(lines):
            return serve_jsonl(service, lines, stream)

    if arguments.requests == "-":
        all_ok = _serve(sys.stdin)
    else:
        with open(arguments.requests, "r", encoding="utf-8") as handle:
            all_ok = _serve(handle)

    if arguments.stats:
        print("\nservice stats:", file=log)
        print(json.dumps(service.stats(), indent=2), file=log)
    return 0 if all_ok else 1


def _cache_command(argv: Sequence[str], stream) -> int:
    """``repro cache ACTION``: explicit warm-start management."""
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Manage the persistent result store used for "
                    "warm-starting engines and services.",
    )
    actions = parser.add_subparsers(dest="action")

    save = actions.add_parser(
        "save", help="compute the given queries and persist the resulting "
                     "cache entries")
    _add_database_arguments(save)
    save.add_argument("--query", action="append", required=True,
                      metavar="QUERY",
                      help="Datalog-style query to precompute (repeatable)")
    _add_store_argument(save, required=True)
    save.add_argument("--method",
                      choices=("auto", "exact", "approximate", "shapley",
                               "rank", "topk"),
                      default="exact",
                      help="method whose results to precompute "
                           "(default: exact)")
    save.add_argument("--epsilon", type=float, default=0.1, metavar="EPS",
                      help="epsilon for approximate/auto/ranking entries")
    save.add_argument("--k", type=int, default=None,
                      help="top-k size (required for --method topk)")

    load = actions.add_parser(
        "load", help="verify a store by loading it into a fresh engine")
    _add_store_argument(load, required=True)

    warm = actions.add_parser(
        "warm", help="time a full warm-start load of the store (results "
                     "and artifacts into fresh memory tiers) -- the "
                     "restart cost a serving process will pay")
    _add_store_argument(warm, required=True)

    compact = actions.add_parser(
        "compact", help="rewrite the store's live records and drop "
                        "tombstoned/superseded ones, reclaiming disk "
                        "space")
    _add_store_argument(compact, required=True)

    migrate = actions.add_parser(
        "migrate", help="copy every result and artifact from one store "
                        "into another: a directory of legacy JSON shards "
                        "moves to the log store, and a log store merges "
                        "into the destination; the source is left "
                        "untouched")
    _add_store_argument(migrate, required=True)
    _add_store_argument(migrate, required=True, prefix="dest")

    stats = actions.add_parser(
        "stats", help="print the store's per-kind (results vs compiled "
                      "trees) entry/size summary")
    _add_store_argument(stats, required=True)

    arguments = parser.parse_args(list(argv))
    if arguments.action is None:
        parser.error("an action is required: save, load, warm, compact, "
                     "migrate or stats")

    # Validate and compute before opening the store: a usage error must
    # not leave a store directory behind.
    engine = (_save_engine(parser, arguments, stream)
              if arguments.action == "save" else None)
    if arguments.action == "migrate":
        if (os.path.realpath(arguments.store)
                == os.path.realpath(arguments.dest)):
            parser.error("--store and --dest must name different directories")
        return _migrate(arguments, stream)
    store = _open_store_checked(
        arguments, stream,
        read_only=arguments.action in ("stats", "warm"),
        existing=arguments.action != "save")
    if store is None:
        return 2
    try:
        if arguments.action == "save":
            _save(engine, store, arguments, stream)
        elif arguments.action == "stats":
            print(json.dumps(store.stats(), indent=2), file=stream)
        elif arguments.action == "compact":
            before = store.stats().get("disk_bytes", 0)
            reclaimed = store.compact()
            after = store.stats().get("disk_bytes", 0)
            print(f"compacted {arguments.store}: reclaimed {reclaimed} "
                  f"bytes ({before} -> {after} on disk)", file=stream)
        else:  # load, warm
            started = time.perf_counter()
            loaded = Engine(EngineConfig()).load_cache(store)
            elapsed = time.perf_counter() - started
            # Report the store's true artifact count, not the (LRU-capped)
            # number that fit in the fresh engine's memory tier.
            artifacts = store.artifact_count()
            if arguments.action == "load":
                print(f"loaded {loaded} cache entries and {artifacts} "
                      f"compiled artifacts from {arguments.store}",
                      file=stream)
            else:
                print(f"warmed {loaded} cache entries and {artifacts} "
                      f"compiled artifacts from {arguments.store} in "
                      f"{elapsed:.3f}s", file=stream)
    finally:
        store.close()  # flush, stop the compactor, release the writer lock
    return 0


def _migrate(arguments, stream) -> int:
    """``repro cache migrate``: copy SRC into DST, closing both."""
    source = _open_store_checked(arguments, stream, read_only=True,
                                 existing=True, legacy_reader=True)
    if source is None:
        return 2
    destination = None
    try:
        destination = _open_store_checked(arguments, stream, prefix="dest")
        if destination is None:
            return 2
        results, artifacts = migrate_store(source, destination)
    finally:
        for store in (source, destination):
            if hasattr(store, "close"):
                store.close()
    report = (f"migrated {results} cache entries and {artifacts} compiled "
              f"artifacts from {arguments.store} to {arguments.dest}")
    if isinstance(source, DiskStore):
        report += (f" (legacy shards; corrupt_shards: "
                   f"{source.corrupt_shards})")
    print(report, file=stream)
    return 0


def _save_engine(parser, arguments, stream) -> Engine:
    """Validate ``cache save`` and compute its queries in memory."""
    if arguments.method == "topk" and (arguments.k is None
                                       or arguments.k < 1):
        parser.error("--method topk needs --k >= 1")
    if arguments.method != "topk" and arguments.k is not None:
        parser.error("--k is only meaningful with --method topk")
    if not arguments.facts:
        parser.error("at least one --facts NAME=PATH is required")
    database = _build_database(arguments.facts, arguments.exogenous, stream)
    queries = [parse_query(text) for text in arguments.query]
    engine = Engine(EngineConfig(method=arguments.method,
                                 epsilon=arguments.epsilon,
                                 k=arguments.k))
    if arguments.method in ("rank", "topk"):
        for _query, _rankings in engine.rank_many(queries, database):
            pass
    else:
        for _query, _results in engine.attribute_many(queries, database):
            pass
    return engine


def _save(engine: Engine, store, arguments, stream) -> None:
    """Persist a computed engine's cache into the opened store."""
    written = engine.save_cache(store)
    artifacts = store.stats()["kinds"]["compiled_trees"]["entries"]
    print(f"saved {written} cache entries and {artifacts} compiled "
          f"artifacts to {arguments.store} "
          f"({engine.stats.compilations} computed, "
          f"{engine.stats.cache_hits} served from memory)", file=stream)


def main(argv: List[str] | None = None) -> int:
    """Console entry point."""
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
