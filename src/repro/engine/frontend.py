"""The concurrent SLO-aware serving front-end.

:class:`ServingFrontend` puts a thread pool, an admission-controlled
queue, and micro-batching in front of one (thread-safe)
:class:`~repro.engine.serve.AttributionService`, turning the
single-threaded serving loop into the concurrent front-end the ROADMAP's
"heavy traffic" north star asks for.  Any number of client threads call
:meth:`ServingFrontend.submit` concurrently; each gets exactly one
response dict -- a result, a structured rejection, or a structured error
-- never an exception and never silence.

The request lifecycle::

    client -> [admission] -> bounded queue -> [worker] -> response
                 |                               |
                 |- invalid ........ error       |- deadline expired .. shed
                 |- queue full ..... shed        |- micro-batch compatible
                 |- client budget .. shed        |     queued requests
                 |- deadline <= 0 .. shed        |- deadline scoped:
                                                       degrade to partial

**Admission control** happens on the *client's* thread, before a queue
slot is taken: malformed requests are answered immediately (they must
not occupy capacity), and a full queue, an exhausted per-client budget,
or an already-expired deadline yields a structured rejection
(``{"ok": false, "rejected": "<reason>", ...}``) -- counted as
``shed_requests`` in the shared engine stats, never silently dropped.

**Shared computation** is the engine's: the service's engines compute
single-flight over one cache, so concurrent requests needing the same
result (isomorphic lineages included, in any worker or micro-batch)
compute it once.  Each request still gets its own fact-space response.

**Micro-batching.**  A worker that picks up an ``attribute`` request
drains up to ``batch_max - 1`` further compatible requests (same method,
no deadline) from the queue and runs them through one
:meth:`AttributionService.submit_batch` call -- one engine batch, one
store flush, and in-batch isomorph deduplication for free.

**Deadlines.**  A request's ``deadline_ms`` (or the configured default)
is measured from admission.  Expiry while queued sheds the request; a
request picked up in time runs with its *remaining* budget on a
deadline-scoped engine and degrades to a best-effort partial instead of
erroring when the budget runs out mid-compute (see
:meth:`AttributionService.submit`).  Deadline-carrying requests skip
batching, and their budget keeps them out of other requests'
computations: their partial results are never cached.

Typical use::

    service = AttributionService(db, store=LogStore(path))
    with ServingFrontend(service, FrontendConfig(workers=8)) as frontend:
        response = frontend.submit({"op": "attribute", "query": "..."})
    service.store.close()

``repro serve --workers N`` drives :func:`serve_jsonl_concurrent`, the
JSON-Lines loop over this front-end (responses streamed in input order
as they finish, backpressure instead of shedding -- a file is a patient
client).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, TextIO, Tuple, Union

from repro.engine.serve import (
    AttributionService,
    ParsedRequest,
    RequestError,
)
from repro.reliability import faults


@dataclass(frozen=True)
class FrontendConfig:
    """Tuning knobs of the concurrent front-end.

    Attributes
    ----------
    workers:
        Worker threads serving the queue (>= 1).
    max_queue:
        Bound of the admission queue; a full queue sheds (non-blocking
        admission) or backpressures (blocking admission) new requests.
    batch_max:
        Upper bound of one micro-batch, including the request that
        started it; ``1`` disables batching.
    deadline_ms:
        Default per-request deadline applied when a request carries no
        ``deadline_ms`` of its own; ``None`` = no default (requests are
        unbounded unless they say otherwise).
    max_inflight_per_client:
        Per-``client`` admission budget: a client tag may have at most
        this many requests admitted-but-unanswered at once; further ones
        are shed with ``rejected: "client_budget"``.  ``None`` disables
        the budget; requests without a ``client`` tag are never budgeted.
    """

    workers: int = 4
    max_queue: int = 64
    batch_max: int = 8
    deadline_ms: Optional[float] = None
    max_inflight_per_client: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if (self.max_inflight_per_client is not None
                and self.max_inflight_per_client < 1):
            raise ValueError("max_inflight_per_client must be at least 1")


class Ticket:
    """One admitted request's future response.

    Returned by :meth:`ServingFrontend.submit_nowait`; :meth:`result`
    blocks until a worker finished the request.  Every admitted ticket is
    finished exactly once -- workers wrap serving in a catch-all, so even
    a request that makes the engine raise produces a structured error
    response here.
    """

    __slots__ = ("request", "parsed", "deadline_at", "enqueued_at",
                 "_done", "_response", "_claim_lock")

    def __init__(self, request: Dict[str, object], parsed: ParsedRequest,
                 deadline_at: Optional[float]) -> None:
        self.request = request
        self.parsed = parsed
        self.deadline_at = deadline_at
        self.enqueued_at = time.monotonic()
        self._done = threading.Event()
        self._response: Optional[Dict[str, object]] = None
        self._claim_lock = threading.Lock()

    def result(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """Block until the response is ready and return it."""
        if not self._done.wait(timeout):
            raise TimeoutError("ticket not finished within timeout")
        assert self._response is not None
        return self._response

    def done(self) -> bool:
        return self._done.is_set()

    def _claim(self) -> bool:
        """Atomically claim the right to finish this ticket.

        Returns ``True`` exactly once.  Several actors may legitimately
        race to answer one ticket (a worker, the ``close()`` drain, and a
        submitter that detects it raced ``close()``); whoever claims
        produces the single response, everyone else backs off.
        """
        return self._claim_lock.acquire(blocking=False)

    def _finish(self, response: Dict[str, object]) -> None:
        self._response = response
        self._done.set()


class ServingFrontend:
    """Concurrent request front-end over one :class:`AttributionService`.

    See the module docstring for the mechanism; thread-safety of the
    underlying tiers is the service's contract (shared LRU caches, the
    store, and :class:`~repro.engine.stats.EngineStats` all lock
    internally).  Close the front-end (or use it as a context manager) to
    drain the queue, stop the workers, and flush the store.
    """

    def __init__(self, service: AttributionService,
                 config: Optional[FrontendConfig] = None) -> None:
        self.service = service
        self.config = config or FrontendConfig()
        self._queue: "queue.Queue[object]" = queue.Queue(
            maxsize=self.config.max_queue)
        self._client_inflight: Dict[str, int] = {}
        self._client_lock = threading.Lock()
        self._counters = {
            "submitted": 0, "completed": 0,
            "rejected_invalid": 0, "shed_queue_full": 0,
            "shed_client_budget": 0, "shed_deadline": 0,
            "batches": 0, "batched_requests": 0, "degraded": 0,
        }
        self._counters_lock = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()
        self._stop = threading.Event()
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-serve-{index}", daemon=True)
            for index in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ----------------------------------------------------------------- #
    # Client side: admission
    # ----------------------------------------------------------------- #

    def submit(self, request: Dict[str, object],
               block: bool = False) -> Dict[str, object]:
        """Serve one request, blocking the caller until its response.

        The client-facing call: admission (validation, budgets, queue
        capacity) happens on the calling thread, then the caller blocks
        until a worker finished the request.  ``block=True`` turns a full
        queue into backpressure (wait for a slot) instead of shedding.
        """
        outcome = self.submit_nowait(request, block=block)
        if isinstance(outcome, dict):
            return outcome
        return outcome.result()

    def submit_nowait(self, request: Dict[str, object], block: bool = False
                      ) -> Union[Ticket, Dict[str, object]]:
        """Admit one request without waiting for its computation.

        Returns a :class:`Ticket` on admission, or the immediate response
        dict when admission already settled the request (validation
        error, shed).  Either way the caller ends up with exactly one
        response per request.
        """
        if self._closed:
            raise RuntimeError("the front-end is closed")
        try:
            parsed = self.service.validate_request(request)
        except RequestError as error:
            self._count("rejected_invalid")
            self.service.record_rejection()
            return self._attach_id({"ok": False, "error": str(error)},
                                   request)

        deadline_seconds = parsed.deadline_seconds
        if deadline_seconds is None and self.config.deadline_ms is not None:
            deadline_seconds = self.config.deadline_ms / 1000.0
        deadline_at = (time.monotonic() + deadline_seconds
                       if deadline_seconds is not None else None)

        if not self._admit_client(parsed.client):
            return self._shed(request, "client_budget",
                              f"client {parsed.client!r} has too many "
                              "requests in flight")
        ticket = Ticket(request, parsed, deadline_at)
        try:
            self._queue.put(ticket, block=block)
        except queue.Full:
            self._release_client(parsed.client)
            return self._shed(request, "queue_full",
                              "the admission queue is full")
        self._count("submitted")
        if self._closed:
            # We raced close(): its final drain may already have run, in
            # which case nobody would ever serve this ticket.  Settle it
            # with the shutdown rejection ourselves -- the ticket's claim
            # makes this a no-op if a worker or the drain got there first.
            self._finish_shutdown(ticket)
        return ticket

    def _admit_client(self, client: Optional[str]) -> bool:
        budget = self.config.max_inflight_per_client
        if client is None or budget is None:
            return True
        with self._client_lock:
            inflight = self._client_inflight.get(client, 0)
            if inflight >= budget:
                return False
            self._client_inflight[client] = inflight + 1
            return True

    def _release_client(self, client: Optional[str]) -> None:
        if client is None or self.config.max_inflight_per_client is None:
            return
        with self._client_lock:
            remaining = self._client_inflight.get(client, 1) - 1
            if remaining <= 0:
                self._client_inflight.pop(client, None)
            else:
                self._client_inflight[client] = remaining

    def _shed(self, request: Dict[str, object], reason: str,
              detail: str) -> Dict[str, object]:
        """A structured rejection: the admission-control answer is still
        an answer."""
        self._count(f"shed_{reason}")
        self.service.stats_counters.bump(shed_requests=1)
        self.service.record_rejection()
        return self._attach_id(
            {"ok": False, "rejected": reason, "error": detail}, request)

    @staticmethod
    def _attach_id(response: Dict[str, object],
                   request: object) -> Dict[str, object]:
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        return response

    def _count(self, name: str, delta: int = 1) -> None:
        with self._counters_lock:
            self._counters[name] += delta

    # ----------------------------------------------------------------- #
    # Worker side
    # ----------------------------------------------------------------- #

    def _worker_loop(self) -> None:
        # The poll timeout is the shutdown latency bound: workers exit as
        # soon as the queue stays empty with the stop flag set.  There is
        # deliberately no in-queue shutdown sentinel -- a sentinel that
        # micro-batch draining consumes would have to be re-posted into a
        # queue that blocked submitters may keep full.
        while True:
            try:
                item = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            assert isinstance(item, Ticket)
            self._serve_safely(item, allow_batch=True)

    def _serve_safely(self, ticket: Ticket, allow_batch: bool) -> None:
        # Serving an "attribute" ticket may drain one incompatible
        # request from the queue (see _drain_batchmates); it is served
        # here after the original ticket and its batch fully settled.
        pending: Optional[Ticket] = ticket
        while pending is not None:
            current, pending = pending, None
            try:
                pending = self._serve_ticket(current, allow_batch)
            except Exception as error:
                # The loop must survive anything a request does.
                self._finish(current, self._attach_id(
                    {"ok": False,
                     "error": f"{type(error).__name__}: {error}"},
                    current.request))
            allow_batch = False

    def _finish(self, ticket: Ticket,
                response: Dict[str, object]) -> bool:
        """Answer a ticket; exactly one racing call wins, the rest no-op."""
        if not ticket._claim():
            return False
        self._release_client(ticket.parsed.client)
        if response.get("degraded"):
            self._count("degraded")
        self._count("completed")
        ticket._finish(response)
        return True

    def _finish_shutdown(self, ticket: Ticket) -> None:
        response = self._attach_id(
            {"ok": False, "rejected": "shutdown",
             "error": "the front-end closed before serving this request"},
            ticket.request)
        if self._finish(ticket, response):
            self._count("shed_queue_full")
            self.service.stats_counters.bump(shed_requests=1)

    def _serve_ticket(self, ticket: Ticket,
                      allow_batch: bool) -> Optional[Ticket]:
        """Serve one ticket (with its batchmates); returns the
        drained-but-incompatible "leftover" ticket, if any, for the
        caller to serve once this ticket settled."""
        if ticket.deadline_at is not None:
            remaining = ticket.deadline_at - time.monotonic()
            if remaining <= 0:
                # Expired while queued: shedding now is cheaper for
                # everyone than computing an answer nobody awaits.
                self._count("shed_deadline")
                self.service.stats_counters.bump(shed_requests=1)
                self.service.record_rejection()
                self._finish(ticket, self._attach_id(
                    {"ok": False, "rejected": "deadline",
                     "error": "deadline expired while queued"},
                    ticket.request))
                return None
            # Deadline requests run alone: their best-effort partials are
            # never cached, so batching would share nothing.
            self._finish(ticket, self.service.submit(
                ticket.request, deadline_seconds=remaining))
            return None

        batchmates: List[Ticket] = []
        leftover: Optional[Ticket] = None
        if allow_batch:
            batchmates, leftover = self._drain_batchmates(ticket)
        try:
            if not batchmates:
                self._finish(ticket, self.service.submit(ticket.request))
            else:
                self._serve_batch([ticket] + batchmates)
        except Exception as error:
            # service.submit/_serve_batch answer failures themselves; this
            # catch-all keeps a bug above that layer from losing both the
            # group's responses and the leftover waiting to be served.
            for member in [ticket] + batchmates:
                self._finish(member, self._attach_id(
                    {"ok": False,
                     "error": f"{type(error).__name__}: {error}"},
                    member.request))
        return leftover

    def _serve_batch(self, group: List[Ticket]) -> None:
        self._count("batches")
        self._count("batched_requests", len(group))
        try:
            # Front-end-level injection point: a raise here exercises the
            # catch-all below, which must still answer every member.
            faults.check("serve.batch")
            responses = self.service.submit_batch(
                [member.request for member in group])
            for member, response in zip(group, responses):
                self._finish(member, response)
        except Exception as error:
            # submit_batch itself degrades per-request failures to error
            # responses; this catches bugs above that layer.  Whatever
            # happened, every member still gets a response.
            for member in group:
                if not member.done():
                    self._finish(member, self._attach_id(
                        {"ok": False,
                         "error": f"{type(error).__name__}: {error}"},
                        member.request))

    def _drain_batchmates(self, ticket: Ticket
                          ) -> Tuple[List[Ticket], Optional[Ticket]]:
        """Pull queued requests that can join this ticket's engine batch.

        Only ``attribute`` requests of the same method without deadlines
        are compatible (matching :meth:`AttributionService.submit_batch`'s
        contract).  Draining stops at the first incompatible request,
        which is returned as the ``leftover`` for the caller to serve
        individually -- handing it back to the queue could block on a
        full queue, and dropping it is out of the question.
        """
        limit = self.config.batch_max - 1
        if limit <= 0 or ticket.parsed.op != "attribute":
            return [], None
        batchmates: List[Ticket] = []
        leftover: Optional[Ticket] = None
        while len(batchmates) < limit:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            assert isinstance(item, Ticket)
            if (item.parsed.op == "attribute"
                    and item.deadline_at is None
                    and item.parsed.method == ticket.parsed.method):
                batchmates.append(item)
            else:
                leftover = item
                break
        return batchmates, leftover

    # ----------------------------------------------------------------- #
    # Lifecycle and reporting
    # ----------------------------------------------------------------- #

    def close(self) -> None:
        """Drain the queue, stop the workers, flush the store.

        Every request in the queue when ``close`` starts is still served
        (workers keep draining until the queue is empty before honoring
        the stop flag); new submissions raise, and a submission that
        raced past the closed-check is settled with a ``"shutdown"``
        rejection rather than stranding its caller.  Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        for worker in self._workers:
            worker.join()
        # A submission racing close() may have landed after the workers
        # exited; reject it rather than strand its caller (its submitter
        # may settle it concurrently -- the ticket claim arbitrates).
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            assert isinstance(item, Ticket)
            self._finish_shutdown(item)
        self.service.flush()

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        """Front-end counters (admission, batching, degradation) plus the
        live queue depth; the engine-side counters, shared computations
        included, live in :meth:`AttributionService.stats`."""
        with self._counters_lock:
            counters = dict(self._counters)
        shed = {reason: counters.pop(f"shed_{reason}")
                for reason in ("queue_full", "client_budget", "deadline")}
        report: Dict[str, object] = dict(counters)
        report["shed"] = shed
        report["workers"] = self.config.workers
        report["queue_depth"] = self._queue.qsize()
        report["max_queue"] = self.config.max_queue
        report["batch_max"] = self.config.batch_max
        return report


def serve_jsonl_concurrent(service: AttributionService,
                           lines: Iterable[str], output: TextIO,
                           config: Optional[FrontendConfig] = None) -> bool:
    """Drive a front-end from JSON Lines, streaming responses in input
    order.

    The concurrent sibling of :func:`repro.engine.serve.serve_jsonl`:
    requests fan out over the front-end's workers, but responses are
    written in input order (clients of the file protocol correlate by
    line, not by id) -- and *incrementally*: a dedicated writer thread
    emits each response as soon as it and everything before it finished,
    so a pipe or an interactive client sees answers while later lines
    are still being read, and memory stays bounded by the hand-off
    buffer instead of growing with input length.  A full queue
    backpressures the reader instead of shedding -- a file is a patient
    client; admission *validation* and deadline semantics still apply.
    Blank lines and ``#`` comments are skipped; an unparseable line
    yields an error response.  Returns ``True`` when every served
    request succeeded.
    """
    frontend = ServingFrontend(service, config)
    # The reader -> writer hand-off carries outcomes in input order; its
    # bound is the writer's backpressure (a stalled output pauses the
    # reader once admission capacity plus this buffer are full).
    pending: "queue.Queue[object]" = queue.Queue(
        maxsize=2 * frontend.config.max_queue)
    state = {"all_ok": True, "error": None}

    def write_responses() -> None:
        while True:
            outcome = pending.get()
            if outcome is None:
                return
            if state["error"] is not None:
                continue  # keep draining so the reader never blocks
            try:
                response = (outcome if isinstance(outcome, dict)
                            else outcome.result())
                state["all_ok"] = (state["all_ok"]
                                   and bool(response.get("ok")))
                print(json.dumps(response), file=output, flush=True)
            except BaseException as error:  # surfaced after join
                state["error"] = error

    writer = threading.Thread(target=write_responses,
                              name="repro-serve-writer", daemon=True)
    writer.start()
    try:
        for line in lines:
            if state["error"] is not None:
                break  # a dead writer cannot deliver; stop reading
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                request = json.loads(text)
            except json.JSONDecodeError as error:
                service.record_malformed_line()
                pending.put({
                    "ok": False,
                    "error": f"unparseable request line: {error}"})
                continue
            pending.put(frontend.submit_nowait(request, block=True))
    finally:
        # Closing first guarantees every admitted ticket is finished, so
        # the writer's result() calls can never block indefinitely.
        frontend.close()
        pending.put(None)
        writer.join()
    if state["error"] is not None:
        raise state["error"]
    return state["all_ok"]


__all__ = [
    "FrontendConfig",
    "ServingFrontend",
    "Ticket",
    "serve_jsonl_concurrent",
]
