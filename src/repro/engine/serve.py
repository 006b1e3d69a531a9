"""The warm-start serving loop: a long-lived attribution service.

:class:`AttributionService` is the deployment shape the engine exists
for: one process that stays up, owns warm cache tiers, and answers a
stream of attribute / rank / top-k requests against a fixed database.
Internally it keeps one :class:`~repro.engine.engine.Engine` per method
actually requested, but all of them share a single in-memory
:class:`~repro.engine.cache.LineageCache`, a single optional persistent
:class:`~repro.engine.store.CacheStore`, and a single
:class:`~repro.engine.stats.EngineStats` -- sharing is sound because
result-cache keys embed the method, epsilon and k, so entries of
different methods never collide.  The shared cache includes the
compiled-lineage artifact tier (keyed by canonical lineage alone), which
is where the service earns its keep on mixed traffic: an ``attribute``
request that compiles a d-tree makes the later ``rank``/``topk``
requests over isomorphic lineages *exact* and compilation-free, in this
process and -- through the store's artifact records -- in every
warm-started successor.

Requests and responses are plain dicts (JSON-serializable end to end;
the ``repro serve --requests FILE`` CLI feeds them from JSON Lines)::

    {"op": "attribute", "query": "Q(X) :- R(X, Y)"}
    {"op": "attribute", "query": "...", "method": "approximate"}
    {"op": "rank",      "query": "..."}
    {"op": "topk",      "query": "...", "k": 3}
    {"op": "attribute", "query": "...", "id": 7, "client": "tenant-a",
     "deadline_ms": 250}

Every response reports ``ok`` plus either the per-answer payload (exact
values as ``"n/d"`` strings -- fact-space, mapped back from canonical
space -- alongside floats for convenience) or an ``error`` string, and
always echoes the request's ``id`` when one was given; a malformed
request never takes the loop down.  A request carrying ``deadline_ms``
gets a wall-clock compute budget: when exact compilation blows through
it the service **degrades** to a best-effort answer (one IchiBan bounds
pass over whatever partial d-tree the failed attempt left behind)
instead of erroring, flagging the response with ``degraded``/``partial``
-- see :meth:`AttributionService.submit`.  Only a resumed compilation or
an anytime run leaves a partial tree; a fresh exact compilation leaves
none, so that pass may read its bounds off the undecomposed lineage
(every lower bound 0).  ``id``/``client`` are the hooks the concurrent
front-end (:mod:`repro.engine.frontend`) builds its response routing
and per-client admission control on; the service
itself is also directly thread-safe, so the front-end's workers drive
one shared instance.  Its engines share one cache and so one
single-flight table: identical concurrent work, from any thread, is
computed once.  :meth:`AttributionService.stats` reports the
shared engine counters including the per-tier hit rates (memory / store
/ compute), the answer to "is the warm start working?".
"""

from __future__ import annotations

import json
import threading
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Tuple

from repro.core.adaban import ApproximationTimeout
from repro.db.database import Database
from repro.db.datalog import parse_query
from repro.db.query import Query
from repro.dtree.compile import CompilationLimitReached
from repro.engine.cache import LineageCache
from repro.engine.engine import Engine, EngineConfig
from repro.engine.logstore import StoreLockedError, resolve_store
from repro.engine.stats import EngineStats
from repro.engine.store import CacheStore
from repro.reliability import faults
from repro.reliability.errors import CircuitOpenError, TransientStoreError
from repro.reliability.resilient import wrap_store

# Not called here: perfbench/tracing.py wraps these two module bindings.
from repro.db.lineage import lineage_of_answers  # noqa: F401
from repro.engine.canonical import canonicalize  # noqa: F401

#: Ops a request may carry.
OPS = ("attribute", "rank", "topk")

#: Attribution methods a request may select per call.
ATTRIBUTE_METHODS = ("auto", "exact", "approximate", "shapley")

#: Exceptions that mean "the compute budget ran out mid-request" -- the
#: triggers for deadline degradation.
_BUDGET_EXHAUSTED = (ApproximationTimeout, CompilationLimitReached)

#: Exceptions that mean "the persistent tier is unavailable" -- surfaced
#: as structured ``{"ok": false, "degraded": true}`` responses (the
#: request may well be answerable once the store recovers or memory-only
#: caching warms up), never as tracebacks.
_STORE_UNAVAILABLE = (StoreLockedError, CircuitOpenError,
                      TransientStoreError)


class RequestError(ValueError):
    """A malformed service request (reported in the response, not raised
    out of the serving loop)."""


@dataclass(frozen=True)
class ParsedRequest:
    """A validated request, ready to execute.

    Produced by :meth:`AttributionService.validate_request`; the
    concurrent front-end validates at admission time (rejections must
    not wait in the queue) and executes later, so validation and
    execution are separate steps with this as the hand-off.
    """

    op: str
    query_text: str
    query: Query
    #: Attribution method for ``op="attribute"``; ``None`` for the
    #: ranking ops (they always run IchiBan).
    method: Optional[str]
    #: Top-k size for ``op="topk"``; ``None`` otherwise.
    k: Optional[int]
    #: Echoed verbatim into the response (``None`` = no id given).
    request_id: Optional[object]
    #: Client tag for per-client admission budgets (``None`` = anonymous).
    client: Optional[str]
    #: Per-request wall-clock compute budget (``None`` = unbounded).
    deadline_seconds: Optional[float]


class AttributionService:
    """A long-lived serving loop over one database and shared cache tiers.

    The service is thread-safe: request counters are lock-protected,
    engine creation is serialized, and the shared tiers
    (:class:`~repro.engine.cache.LRUCache`, the store, the
    :class:`~repro.engine.stats.EngineStats` counters) lock internally,
    so any number of threads may call :meth:`submit` concurrently --
    that is exactly what the workers of
    :class:`~repro.engine.frontend.ServingFrontend` do.  Concurrent
    requests without a deadline that need one result compute it once.

    Parameters
    ----------
    database:
        The database every request is evaluated against (fact-space).
    config:
        Base :class:`EngineConfig`.  Its ``method`` is the default for
        ``attribute`` requests (must not be a ranking method); epsilon,
        budgets, and cache sizes apply to every request.  The config's
        ``store`` is honored if ``store`` is not passed explicitly.
    store:
        Optional persistent tier shared by every method engine.
    warm_start:
        When true (and a store is present), preload the store's entries
        -- results and compilation artifacts -- into the shared
        in-memory tiers at construction, so even the very first batch
        hits memory and partial compilations resume instead of
        restarting.  The number of result entries loaded is reported by
        :meth:`stats` as ``warm_loaded``.  A store that fails to load
        (corrupt records, permissions) degrades to a cold start with a
        ``RuntimeWarning`` instead of aborting: a serving process must
        come up even when its warm state is damaged.

    Examples
    --------
    >>> from repro import Database
    >>> db = Database()
    >>> _ = [db.add_fact("R", (i,)) for i in range(3)]
    >>> service = AttributionService(db)
    >>> response = service.submit({"op": "attribute",
    ...                            "query": "Q(X) :- R(X)"})
    >>> response["ok"]
    True
    """

    def __init__(self, database: Database,
                 config: Optional[EngineConfig] = None,
                 store: Optional[CacheStore] = None,
                 warm_start: bool = False) -> None:
        base = config or EngineConfig()
        if base.method in ("rank", "topk"):
            raise ValueError(
                "the service config's method is the default for "
                "'attribute' requests and cannot be a ranking method; "
                "rank/topk engines are created per request op"
            )
        self.database = database
        self._base = replace(base, store=None, k=None)
        self.cache = LineageCache(base.cache_size, base.dtree_cache_size)
        self.stats_counters = EngineStats()
        # One plan for every engine this service creates, installed before
        # the first request (engines are created lazily, on first use).
        faults.install(base.fault_plan)
        # A path-valued config store opens its backend exactly once,
        # here, and is then shared by every method engine (per-engine
        # resolution would trip LogStore's single-writer lock).  The
        # shared handle is wrapped with the service's retry + breaker
        # policy (a no-op when both knobs are 0 or the caller passed an
        # already-wrapped store), counting into the shared stats.
        self.store = wrap_store(
            store if store is not None else resolve_store(base.store),
            retries=base.store_retries,
            breaker_threshold=base.breaker_threshold,
            on_counter=self.stats_counters.bump)
        self._engines: Dict[str, Engine] = {}
        self._engines_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.requests_served = 0
        self.request_errors = 0
        self.requests_degraded = 0
        self.warm_loaded = 0
        self.warm_start_failed = False
        if warm_start and self.store is not None:
            try:
                self.warm_loaded = self._engine(
                    self._base.method).load_cache(self.store)
            except Exception as error:
                # A damaged store must not keep the service down; it
                # simply starts cold and recomputes (writing fresh
                # entries back as it goes).
                self.warm_start_failed = True
                warnings.warn(
                    f"warm start failed ({type(error).__name__}: {error}); "
                    "serving cold", RuntimeWarning, stacklevel=2)

    # ----------------------------------------------------------------- #
    # Engines
    # ----------------------------------------------------------------- #

    def _engine_epsilon(self, method: str) -> Optional[float]:
        epsilon = self._base.epsilon
        if method in ("auto", "approximate") and epsilon is None:
            return 0.1
        return epsilon

    def _attach_tiers(self, engine: Engine,
                      private_stats: bool = False) -> Engine:
        """Point an engine at the service's shared cache/store tiers."""
        engine.cache = self.cache
        if not private_stats:
            engine.stats = self.stats_counters
        engine.store = self.store
        return engine

    def _engine(self, method: str) -> Engine:
        """The shared-tier engine for one method (created on first use)."""
        with self._engines_lock:
            engine = self._engines.get(method)
            if engine is None:
                engine = Engine(replace(
                    self._base, method=method,
                    epsilon=self._engine_epsilon(method)))
                # Share the tiers and the counters: keys embed (method,
                # epsilon, k), so one cache safely serves every engine.
                self._attach_tiers(engine)
                self._engines[method] = engine
        return engine

    def _scoped_engine(self, method: str,
                       deadline_seconds: float) -> Engine:
        """A throw-away engine whose compute budget is one request's deadline.

        Shares the cache/store tiers (so its work benefits everyone) but
        accumulates into a *private* stats object: the caller inspects
        what this one request did (did it degrade? was it partial?) and
        merges the counters into the shared ones afterwards.
        """
        timeout = deadline_seconds
        if self._base.timeout_seconds is not None:
            timeout = min(timeout, self._base.timeout_seconds)
        engine = Engine(replace(self._base, method=method,
                                epsilon=self._engine_epsilon(method),
                                timeout_seconds=timeout))
        return self._attach_tiers(engine, private_stats=True)

    def _best_effort_engine(self, op: str) -> Engine:
        """The degraded path: one IchiBan bounds pass, then best-so-far.

        ``max_shannon_steps=0`` lets the anytime run do exactly one
        bound evaluation over the (possibly partial) d-tree the failed
        attempt left in the shared artifact tier, if it left one (see
        the module docstring), then surface the resulting intervals as
        an uncertified partial -- unless the artifact happens to be
        complete, in which case the pass is an exact read.  Either way
        it is cheap: no Shannon expansion at all.
        """
        method = "topk" if op == "topk" else "rank"
        engine = Engine(replace(self._base, method=method,
                                epsilon=self._base.epsilon,
                                max_shannon_steps=0, timeout_seconds=None))
        return self._attach_tiers(engine, private_stats=True)

    # ----------------------------------------------------------------- #
    # The serving loop
    # ----------------------------------------------------------------- #

    def serve(self, requests: Iterable[Dict[str, object]]
              ) -> Iterator[Dict[str, object]]:
        """Serve a request stream lazily; yields one response per request."""
        for request in requests:
            yield self.submit(request)

    def submit(self, request: Dict[str, object],
               deadline_seconds: Optional[float] = None
               ) -> Dict[str, object]:
        """Serve one request dict; never raises on a malformed request.

        ``deadline_seconds`` overrides the request's own ``deadline_ms``
        (the front-end passes the *remaining* budget after queueing).
        When a deadline is in force the request runs on a deadline-scoped
        engine; blowing the budget degrades to a best-effort partial
        response (``degraded: true``) rather than an error.
        """
        with self._counter_lock:
            self.requests_served += 1
        try:
            parsed = self.validate_request(request)
        except RequestError as error:
            with self._counter_lock:
                self.request_errors += 1
            return self._attach_id({"ok": False, "error": str(error)},
                                   request)
        if deadline_seconds is None:
            deadline_seconds = parsed.deadline_seconds
        return self._submit_parsed(parsed, deadline_seconds)

    def submit_batch(self, requests: List[Dict[str, object]]
                     ) -> List[Dict[str, object]]:
        """Serve several ``attribute`` requests as one engine batch.

        The micro-batching hook of the concurrent front-end: all valid
        requests run through a single
        :meth:`~repro.engine.engine.Engine.attribute_many` pass, so
        isomorphic lineages *across requests* are deduplicated by the
        batch pipeline itself and the store is flushed once, not once
        per request.  All requests must be ``op="attribute"`` with one
        shared method and no deadlines (the front-end only groups such
        requests); anything else is a caller bug and raises.  Per-request
        validation errors still yield per-request error responses, and a
        computation that dies mid-batch falls back to serving the
        not-yet-answered requests individually -- one poisoned lineage
        cannot take down its batchmates.  Responses come back in request
        order, one per request, always.
        """
        responses: List[Optional[Dict[str, object]]] = [None] * len(requests)
        valid: List[Tuple[int, ParsedRequest]] = []
        method: Optional[str] = None
        for index, request in enumerate(requests):
            with self._counter_lock:
                self.requests_served += 1
            try:
                parsed = self.validate_request(request)
            except RequestError as error:
                with self._counter_lock:
                    self.request_errors += 1
                responses[index] = self._attach_id(
                    {"ok": False, "error": str(error)}, request)
                continue
            if parsed.op != "attribute":
                raise ValueError(
                    "submit_batch serves 'attribute' requests only; got "
                    f"op {parsed.op!r}")
            if parsed.deadline_seconds is not None:
                raise ValueError(
                    "submit_batch requests must not carry deadlines")
            if method is None:
                method = parsed.method
            elif parsed.method != method:
                raise ValueError(
                    "submit_batch requests must share one method; got "
                    f"{method!r} and {parsed.method!r}")
            valid.append((index, parsed))
        if valid:
            engine = self._engine(method or self._base.method)
            queries = [parsed.query for _, parsed in valid]
            try:
                # Inside the try on purpose: an injected mid-batch fault
                # takes the same recovery path as a real one -- the
                # not-yet-answered requests are served individually below.
                faults.check("serve.batch")
                for (index, parsed), (_, results) in zip(
                        valid, engine.attribute_many(queries,
                                                     self.database)):
                    responses[index] = self._attach_response_id(
                        self._attribute_response(parsed, results), parsed)
            except Exception:
                for index, parsed in valid:
                    if responses[index] is None:
                        responses[index] = self._submit_parsed(parsed, None)
        return responses  # type: ignore[return-value]

    def _submit_parsed(self, parsed: ParsedRequest,
                       deadline_seconds: Optional[float]
                       ) -> Dict[str, object]:
        """Execute an already-validated request; never raises."""
        try:
            response = self._execute(parsed, deadline_seconds)
        except RequestError as error:
            with self._counter_lock:
                self.request_errors += 1
            response = {"ok": False, "error": str(error)}
        except _STORE_UNAVAILABLE as error:
            # The persistent tier is locked, tripped, or mid-outage; the
            # request failed for infrastructure reasons, not because it
            # was bad.  Tell the client so, structurally.
            with self._counter_lock:
                self.request_errors += 1
                self.requests_degraded += 1
            response = {"ok": False, "degraded": True,
                        "error": f"store unavailable "
                                 f"({type(error).__name__}: {error})"}
        except Exception as error:  # serving loop must survive anything
            with self._counter_lock:
                self.request_errors += 1
            response = {"ok": False,
                        "error": f"{type(error).__name__}: {error}"}
        return self._attach_response_id(response, parsed)

    @staticmethod
    def _attach_id(response: Dict[str, object],
                   request: object) -> Dict[str, object]:
        """Echo the request's ``id`` into the response (even on errors --
        a client multiplexing over one connection must always be able to
        route the response back to its request)."""
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        return response

    @staticmethod
    def _attach_response_id(response: Dict[str, object],
                            parsed: ParsedRequest) -> Dict[str, object]:
        if parsed.request_id is not None:
            response["id"] = parsed.request_id
        return response

    # ----------------------------------------------------------------- #
    # Validation
    # ----------------------------------------------------------------- #

    def validate_request(self, request: object) -> ParsedRequest:
        """Validate one request dict into a :class:`ParsedRequest`.

        Raises :class:`RequestError` (with a client-presentable message)
        on any malformation.  Public because the concurrent front-end
        validates at admission time: a request that can never succeed is
        rejected before it occupies a queue slot.
        """
        if not isinstance(request, dict):
            raise RequestError(f"request must be an object, got "
                               f"{type(request).__name__}")
        op = request.get("op")
        if op not in OPS:
            raise RequestError(f"unknown op {op!r}; expected one of {OPS}")
        query_text = request.get("query")
        if not isinstance(query_text, str) or not query_text.strip():
            raise RequestError("request needs a non-empty 'query' string")
        try:
            query = parse_query(query_text)
        except Exception as error:
            raise RequestError(f"unparseable query: {error}") from error

        client = request.get("client")
        if client is not None and not isinstance(client, str):
            raise RequestError("'client' must be a string")
        deadline_seconds = self._validate_deadline(request)

        if op == "attribute":
            if "k" in request:
                raise RequestError(
                    "op 'attribute' takes no k; use op 'topk' for a "
                    "bounded ranking")
            method = request.get("method", self._base.method)
            if method not in ATTRIBUTE_METHODS:
                raise RequestError(
                    f"unknown method {method!r}; expected one of "
                    f"{ATTRIBUTE_METHODS}")
            return ParsedRequest(op=op, query_text=query_text, query=query,
                                 method=str(method), k=None,
                                 request_id=request.get("id"),
                                 client=client,
                                 deadline_seconds=deadline_seconds)
        if "method" in request:
            raise RequestError(
                f"op {op!r} always runs IchiBan and takes no method; "
                "the method field only applies to op 'attribute'")
        if op == "topk":
            k = request.get("k")
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise RequestError("op 'topk' needs an integer k >= 1")
        else:
            if "k" in request:
                raise RequestError(
                    "op 'rank' returns the full ranking and takes no k; "
                    "use op 'topk' to bound it")
            k = None
        return ParsedRequest(op=op, query_text=query_text, query=query,
                             method=None, k=k,
                             request_id=request.get("id"), client=client,
                             deadline_seconds=deadline_seconds)

    @staticmethod
    def _validate_deadline(request: Dict[str, object]) -> Optional[float]:
        if "deadline_ms" not in request:
            return None
        deadline_ms = request["deadline_ms"]
        if (not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool) or deadline_ms <= 0):
            raise RequestError("'deadline_ms' must be a positive number")
        return float(deadline_ms) / 1000.0

    # ----------------------------------------------------------------- #
    # Execution
    # ----------------------------------------------------------------- #

    def _execute(self, parsed: ParsedRequest,
                 deadline_seconds: Optional[float]) -> Dict[str, object]:
        faults.check("serve.request")
        if deadline_seconds is None:
            if parsed.op == "attribute":
                engine = self._engine(parsed.method or self._base.method)
            else:
                engine = self._engine("topk" if parsed.op == "topk"
                                      else "rank")
            return self._run_op(parsed, engine)
        return self._execute_with_deadline(parsed, deadline_seconds)

    def _execute_with_deadline(self, parsed: ParsedRequest,
                               deadline_seconds: float
                               ) -> Dict[str, object]:
        """Run under a wall-clock budget; degrade instead of erroring.

        The scoped engine shares the cache/store tiers, so a failed
        resumed or anytime attempt leaves its partial d-tree behind --
        which is precisely what the best-effort pass then reads its
        bounds off.
        """
        if parsed.op == "attribute":
            method = parsed.method or self._base.method
        else:
            method = "topk" if parsed.op == "topk" else "rank"
        engine = self._scoped_engine(method, deadline_seconds)
        try:
            response = self._run_op(parsed, engine)
        except _BUDGET_EXHAUSTED:
            self.stats_counters.merge_from(engine.stats)
            return self._degrade(parsed)
        self.stats_counters.merge_from(engine.stats)
        if engine.stats.partial_results:
            # The ranking methods degrade internally (best-so-far
            # intervals instead of raising); surface that the same way.
            response["degraded"] = True
            response["partial"] = True
            with self._counter_lock:
                self.requests_degraded += 1
        return response

    def _degrade(self, parsed: ParsedRequest) -> Dict[str, object]:
        """Best-effort answer after the deadline budget was exhausted."""
        engine = self._best_effort_engine(parsed.op)
        try:
            if parsed.op == "attribute":
                results = engine.attribute(parsed.query, self.database)
                response = self._attribute_response(parsed, results)
            else:
                response = self._rank_response(
                    parsed, engine.rank(parsed.query, self.database,
                                        k=parsed.k))
        finally:
            self.stats_counters.merge_from(engine.stats)
        response["degraded"] = True
        response["partial"] = engine.stats.partial_results > 0
        with self._counter_lock:
            self.requests_degraded += 1
        return response

    def _run_op(self, parsed: ParsedRequest,
                engine: Engine) -> Dict[str, object]:
        if parsed.op == "attribute":
            return self._attribute_response(
                parsed, engine.attribute(parsed.query, self.database))
        return self._rank_response(
            parsed, engine.rank(parsed.query, self.database, k=parsed.k))

    def _attribute_response(self, parsed: ParsedRequest,
                            results) -> Dict[str, object]:
        answers: List[Dict[str, object]] = []
        for result in results:
            answers.append({
                "answer": list(result.answer),
                "attributions": [
                    {
                        "fact": str(attribution.fact),
                        "value": str(attribution.value),
                        "float": float(attribution.value),
                        "lower": attribution.lower,
                        "upper": attribution.upper,
                    }
                    for attribution in result.attributions
                ],
            })
        return {"ok": True, "op": parsed.op, "query": parsed.query_text,
                "method": parsed.method, "answers": answers}

    def _rank_response(self, parsed: ParsedRequest,
                       rankings) -> Dict[str, object]:
        answers: List[Dict[str, object]] = []
        for answer_values, entries in rankings:
            answers.append({
                "answer": list(answer_values),
                "ranking": [
                    {
                        "fact": str(fact),
                        "estimate": float(entry.estimate),
                        "lower": entry.lower,
                        "upper": entry.upper,
                    }
                    for fact, entry in entries
                ],
            })
        response: Dict[str, object] = {"ok": True, "op": parsed.op,
                                       "query": parsed.query_text,
                                       "answers": answers}
        if parsed.k is not None:
            response["k"] = parsed.k
        return response

    # ----------------------------------------------------------------- #
    # Cache management and reporting
    # ----------------------------------------------------------------- #

    def record_malformed_line(self) -> None:
        """Account for an input line that never became a request
        (unparseable JSON); the JSONL loops call this so the served/error
        counters cover every line a client sent, not only valid ones."""
        with self._counter_lock:
            self.requests_served += 1
            self.request_errors += 1

    def record_rejection(self) -> None:
        """Account for a request answered at admission time (validation
        failure or shed) without ever running.  The concurrent front-end
        calls this so ``requests_served`` / ``request_errors`` cover every
        response a client received, whether the serial loop or the
        front-end produced it."""
        with self._counter_lock:
            self.requests_served += 1
            self.request_errors += 1

    def save_cache(self, store: Optional[CacheStore] = None) -> int:
        """Persist the shared warm memory tier (see :meth:`Engine.save_cache`)."""
        return self._engine(self._base.method).save_cache(store)

    def load_cache(self, store: Optional[CacheStore] = None) -> int:
        """Warm the shared memory tier from a store (see :meth:`Engine.load_cache`)."""
        return self._engine(self._base.method).load_cache(store)

    def flush(self) -> None:
        """Make buffered store writes durable (no-op without a store)."""
        if self.store is not None:
            self.store.flush()

    def stats(self) -> Dict[str, object]:
        """Serving-loop report: engine counters, tier hit rates, store state."""
        report: Dict[str, object] = dict(self.stats_counters.as_dict())
        report["requests_served"] = self.requests_served
        report["request_errors"] = self.request_errors
        report["requests_degraded"] = self.requests_degraded
        report["warm_loaded"] = self.warm_loaded
        with self._engines_lock:
            report["engines"] = sorted(self._engines)
        report["store"] = (self.store.stats()
                          if self.store is not None else None)
        return report


def serve_jsonl(service: AttributionService, lines: Iterable[str],
                output: TextIO) -> bool:
    """Drive a service from JSON Lines, writing one JSON response per line.

    Blank lines and ``#`` comment lines are skipped.  A line that is not
    valid JSON produces an error response (and does not stop the loop).
    Returns ``True`` when every served request succeeded.
    """
    all_ok = True
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            request = json.loads(text)
        except json.JSONDecodeError as error:
            service.record_malformed_line()
            response: Dict[str, object] = {
                "ok": False, "error": f"unparseable request line: {error}"}
        else:
            response = service.submit(request)
        all_ok = all_ok and bool(response.get("ok"))
        print(json.dumps(response), file=output)
    service.flush()
    return all_ok


__all__ = [
    "ATTRIBUTE_METHODS",
    "OPS",
    "AttributionService",
    "ParsedRequest",
    "RequestError",
    "serve_jsonl",
]
