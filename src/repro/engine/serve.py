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
-- see :meth:`AttributionService.execute`.  Every exhausted compilation,
fresh or resumed, and every anytime run leaves its partial tree in the
shared artifact tier, so that pass starts from the work the failed
attempt did.

:meth:`AttributionService.submit` is :meth:`~AttributionService.
validate_request` followed by :meth:`~AttributionService.execute`.  The
concurrent front-end (:mod:`repro.engine.frontend`) calls the two steps
apart: it validates on the client's thread at admission, routes
responses by ``id`` and budgets by ``client``, and its workers execute
the parsed request, one at a time each, on one shared service -- the
service is thread-safe.  Its engines share one cache and so one
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
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    TextIO)

from repro.core.adaban import ApproximationTimeout
from repro.db.database import Database
from repro.db.datalog import parse_query
from repro.db.query import Query
from repro.dtree.compile import CompilationLimitReached
from repro.engine.cache import LineageCache
from repro.engine.engine import Engine, EngineConfig
from repro.engine.logstore import StoreLockedError
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

    Produced by :meth:`AttributionService.validate_request` and run by
    :meth:`AttributionService.execute`.  The concurrent front-end
    validates at admission time (rejections must not wait in the queue)
    and executes the same parsed request later, so the query is parsed
    once per request.
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
    so any number of threads may call :meth:`submit` or :meth:`execute`
    concurrently -- the workers of
    :class:`~repro.engine.frontend.ServingFrontend` call :meth:`execute`.
    Concurrent requests without a deadline that need one result compute
    it once.

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
        Optional opened persistent tier shared by every method engine.
        A path raises ``TypeError``, as in :class:`EngineConfig`: the
        caller opens the store, and closes it after the service is done
        with it.
    warm_start:
        When true (and a store is present), preload the store's entries
        -- results and compilation artifacts -- into the shared
        in-memory tiers at construction, so even the very first request
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
        if store is not None:
            base = replace(base, store=store)  # rejects a path
        self.database = database
        self._base = replace(base, store=None, k=None)
        self.cache = LineageCache(base.cache_size, base.dtree_cache_size)
        self.stats_counters = EngineStats()
        # One plan for every engine this service creates, installed before
        # the first request (engines are created lazily, on first use).
        faults.install(base.fault_plan)
        # One store handle, shared by every method engine, wrapped with
        # the service's retry + breaker policy (a no-op when both knobs
        # are 0 or the caller passed an already-wrapped store), counting
        # into the shared stats.
        self.store = wrap_store(
            base.store,
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
        attempt left in the shared artifact tier, then surface the
        resulting intervals as an uncertified partial -- unless the
        artifact happens to be complete, in which case the pass is an
        exact read.  Either way it is cheap: no Shannon expansion at all.
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

    def submit(self, request: Dict[str, object]) -> Dict[str, object]:
        """Serve one request dict; never raises on a malformed request.

        :meth:`validate_request` followed by :meth:`execute` with the
        request's own ``deadline_ms``.  When a deadline is in force the
        request runs on a deadline-scoped engine; blowing the budget
        degrades to a best-effort partial response (``degraded: true``)
        rather than an error.
        """
        try:
            parsed = self.validate_request(request)
        except RequestError as error:
            self.record_rejection()
            return attach_id({"ok": False, "error": str(error)}, request)
        return self.execute(parsed, parsed.deadline_seconds)

    def execute(self, parsed: ParsedRequest,
                deadline_seconds: Optional[float]) -> Dict[str, object]:
        """Execute an already-validated request; never raises.

        ``deadline_seconds`` is the wall-clock budget the request has
        left (``None`` = unbounded): the concurrent front-end validates
        at admission and passes what remains after queueing.  Counts the
        request in ``requests_served``.
        """
        with self._counter_lock:
            self.requests_served += 1
        try:
            faults.check("serve.request")
            if deadline_seconds is None:
                response = self._run_op(
                    parsed, self._engine(self._method(parsed)))
            else:
                response = self._execute_with_deadline(parsed,
                                                       deadline_seconds)
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

    def _method(self, parsed: ParsedRequest) -> str:
        """The engine method a request runs on."""
        if parsed.op == "attribute":
            return parsed.method or self._base.method
        return "topk" if parsed.op == "topk" else "rank"

    def _execute_with_deadline(self, parsed: ParsedRequest,
                               deadline_seconds: float
                               ) -> Dict[str, object]:
        """Run under a wall-clock budget; degrade instead of erroring.

        The scoped engine shares the cache/store tiers, so a failed
        attempt -- a fresh or resumed compilation, or an anytime run --
        leaves its partial d-tree behind, which is precisely what the
        best-effort pass then reads its bounds off.
        """
        engine = self._scoped_engine(self._method(parsed), deadline_seconds)
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
        # The facts of one value class share one ``Fraction`` object, so
        # a value is converted once per run of equal rows, not per fact.
        answers: List[Dict[str, object]] = []
        last = None
        for result in results:
            rows = []
            for fact, _, value, lower, upper in result.attributions:
                if value is not last:
                    last, text, number = value, str(value), float(value)
                rows.append({"fact": str(fact), "value": text,
                             "float": number, "lower": lower,
                             "upper": upper})
            answers.append({"answer": list(result.answer),
                            "attributions": rows})
        return {"ok": True, "op": parsed.op, "query": parsed.query_text,
                "method": parsed.method, "answers": answers}

    def _rank_response(self, parsed: ParsedRequest,
                       rankings) -> Dict[str, object]:
        answers: List[Dict[str, object]] = []
        last = None
        for answer_values, entries in rankings:
            rows = []
            for fact, (_, interval, estimate) in entries:
                if estimate is not last:
                    last, number = estimate, float(estimate)
                rows.append({"fact": str(fact), "estimate": number,
                             "lower": interval.lower,
                             "upper": interval.upper})
            answers.append({"answer": list(answer_values), "ranking": rows})
        response: Dict[str, object] = {"ok": True, "op": parsed.op,
                                       "query": parsed.query_text,
                                       "answers": answers}
        if parsed.k is not None:
            response["k"] = parsed.k
        return response

    # ----------------------------------------------------------------- #
    # Cache management and reporting
    # ----------------------------------------------------------------- #

    def record_rejection(self) -> None:
        """Account for a request answered without ever running: an
        unparseable JSONL line, a validation failure, or a front-end
        shed.  ``requests_served`` / ``request_errors`` thereby cover
        every response a client received, whether the serial loop or the
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


def attach_id(response: Dict[str, object],
              request: object) -> Dict[str, object]:
    """Echo the request's ``id`` into the response (even on errors -- a
    client multiplexing over one connection must always be able to
    route the response back to its request)."""
    if isinstance(request, dict) and "id" in request:
        response["id"] = request["id"]
    return response


def jsonl_outcomes(service: AttributionService, lines: Iterable[str],
                   submit: Callable[[Any], Any]) -> Iterator[Any]:
    """Yield ``submit(request)`` for each request line of a JSON Lines
    stream, in input order.

    Blank lines and ``#`` comment lines are skipped.  A line that is not
    valid JSON yields an error response instead (and does not stop the
    stream); it is counted through
    :meth:`AttributionService.record_rejection`.
    """
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            request = json.loads(text)
        except json.JSONDecodeError as error:
            service.record_rejection()
            yield {"ok": False, "error": f"unparseable request line: {error}"}
        else:
            yield submit(request)


def serve_jsonl(service: AttributionService, lines: Iterable[str],
                output: TextIO) -> bool:
    """Drive a service from JSON Lines, writing one JSON response per line.

    Lines are read by :func:`jsonl_outcomes`.  Returns ``True`` when
    every served request succeeded.
    """
    all_ok = True
    for response in jsonl_outcomes(service, lines, service.submit):
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
    "attach_id",
    "jsonl_outcomes",
    "serve_jsonl",
]
