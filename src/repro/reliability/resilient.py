"""Retry + circuit-breaker wrapper around any ``CacheStore``.

The persistent tier is an *optimization*: every entry it holds can be
recomputed, so a failing backend should degrade the engine to
memory-only caching, never kill requests.  :class:`ResilientStore`
encodes that policy around any object satisfying the ``CacheStore``
protocol:

* reads (``get`` / ``get_artifact``) are retried under a
  :class:`~repro.reliability.retry.RetryPolicy`; a terminal failure is
  reported as a cache *miss* (``None``), which is always safe;
* ``flush`` is retried the same way; a terminal failure is swallowed
  (pending writes stay buffered in the inner store, so the next
  successful flush persists them -- the ack point simply moves later);
* every terminal failure feeds a
  :class:`~repro.reliability.breaker.CircuitBreaker`; once it trips,
  store I/O is skipped outright (no timeouts piling up on a dead disk)
  until the reset timeout offers a half-open probe, whose success
  re-attaches the store;
* writes (``put`` / ``put_artifact``) are in-memory buffering in both
  backends and are forwarded even while open, so recovery flushes the
  accumulated entries.

Counters flow out through an injected ``on_counter(**deltas)`` hook
(the engine binds it to ``EngineStats.bump``): ``store_retries`` per
retry sleep, ``store_degraded`` per breaker trip.  Everything outside
the ``CacheStore`` protocol (``close``, ``compact``, ``refresh``,
``items``, ...) delegates to the inner store untouched, so the wrapper
is transparent to the CLI and the warm-start path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .breaker import CircuitBreaker
from .retry import RetryPolicy

_MISS = None


class ResilientStore:
    """Wrap ``inner`` with retry + breaker degradation (see module docs)."""

    def __init__(
        self,
        inner: Any,
        *,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        on_counter: Optional[Callable[..., None]] = None,
    ) -> None:
        self.inner = inner
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._on_counter = on_counter

    # ------------------------------------------------------------------
    # internals

    def _bump(self, **deltas: int) -> None:
        if self._on_counter is not None:
            self._on_counter(**deltas)

    def _count_retry(self, _attempt: int, _error: BaseException) -> None:
        self._bump(store_retries=1)

    def _guarded(self, operation: Callable[[], Any], *, miss: Any = _MISS) -> Any:
        """Run a store operation under breaker + retry; degrade to ``miss``."""
        if not self.breaker.allow():
            return miss
        try:
            result = self.retry.call(operation, on_retry=self._count_retry)
        except self.retry.retry_on:
            if self.breaker.record_failure():
                self._bump(store_degraded=1)
            return miss
        self.breaker.record_success()
        return result

    # ------------------------------------------------------------------
    # CacheStore protocol

    def get(self, key: Any) -> Any:
        return self._guarded(lambda: self.inner.get(key))

    def put(self, key: Any, value: Any) -> None:
        self._put_quiet(self.inner.put, key, value)

    def get_artifact(self, key: Any) -> Any:
        return self._guarded(lambda: self.inner.get_artifact(key))

    def put_artifact(self, key: Any, value: Any) -> None:
        self._put_quiet(self.inner.put_artifact, key, value)

    def flush(self) -> None:
        self._guarded(self.inner.flush)

    def stats(self) -> Dict[str, Any]:
        stats = dict(self.inner.stats())
        stats["reliability"] = self.breaker.snapshot()
        return stats

    def _put_quiet(self, put: Callable[[Any, Any], None], key: Any, value: Any) -> None:
        try:
            put(key, value)
        except self.retry.retry_on:
            if self.breaker.record_failure():
                self._bump(store_degraded=1)

    # ------------------------------------------------------------------
    # everything else (maintenance verbs, iteration) delegates

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def __len__(self) -> int:
        return len(self.inner)

    def __repr__(self) -> str:
        return f"ResilientStore({self.inner!r}, state={self.breaker.state})"


def wrap_store(
    store: Any,
    *,
    retries: int = 2,
    breaker_threshold: int = 5,
    retry: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    on_counter: Optional[Callable[..., None]] = None,
) -> Any:
    """Wrap ``store`` in a :class:`ResilientStore` (idempotent).

    ``retries`` is the number of *extra* attempts after the first
    failure; with both ``retries`` and ``breaker_threshold`` at 0 (and
    no explicit policy objects) the store is returned unwrapped, which
    is the zero-overhead escape hatch benchmarks compare against.
    """
    if store is None or isinstance(store, ResilientStore):
        return store
    if retries < 0 or breaker_threshold < 0:
        raise ValueError("retries and breaker_threshold must be >= 0")
    if retry is None and breaker is None and retries == 0 and breaker_threshold == 0:
        return store
    if retry is None:
        retry = RetryPolicy(attempts=retries + 1)
    if breaker is None:
        breaker = CircuitBreaker(failure_threshold=breaker_threshold)
    return ResilientStore(store, retry=retry, breaker=breaker, on_counter=on_counter)


__all__ = ["ResilientStore", "wrap_store"]
