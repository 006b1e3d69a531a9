"""Failure taxonomy of the reliability subsystem.

Retry sites and circuit breakers need to catch *precisely* what they
mean to: a transient I/O hiccup is retryable, a tripped breaker is a
degradation signal, and a malformed request is neither.  This module
gives each failure shape its own class so the handling code reads as
policy, not as ``except Exception`` guesswork.

The classes compose with the standard hierarchy on purpose:

* :class:`TransientStoreError` -- a store operation failed in a way a
  retry may fix (ENOSPC cleared, NFS blip, a torn append that was
  truncated back to the last ack point).  Raised by the hardened
  :meth:`~repro.engine.logstore.LogStore.flush` and by
  :class:`~repro.reliability.resilient.ResilientStore` when it
  re-raises.
* :class:`CircuitOpenError` -- an operation was refused because the
  breaker guarding a persistently failing backend is open.
* :class:`FaultInjected` -- a *mixin* marker: every exception raised by
  the fault-injection layer (:mod:`repro.reliability.faults`) is a
  dynamic subclass of both the requested real type (``OSError``,
  ``TimeoutError``, ...) and this marker, so production code catches it
  exactly as it would catch the real failure while tests can still
  assert provenance with ``isinstance(error, FaultInjected)``.
"""

from __future__ import annotations


class ReliabilityError(RuntimeError):
    """Base class of the reliability subsystem's own failures."""


class TransientStoreError(ReliabilityError):
    """A store I/O operation failed in a way a retry may fix.

    Carries the original failure as ``__cause__`` (``raise ... from``).
    :class:`~repro.reliability.retry.RetryPolicy`'s default ``retry_on``
    includes it alongside plain ``OSError``.
    """


class RetryBudgetExceeded(ReliabilityError):
    """Every retry attempt of a :class:`RetryPolicy` call failed.

    Only used when the caller asks the policy to *wrap* the terminal
    failure; by default the last underlying exception propagates
    unchanged so existing handlers keep matching.
    """


class CircuitOpenError(ReliabilityError):
    """The circuit breaker guarding this backend is open.

    The serving layer surfaces it as a structured
    ``{"ok": false, "degraded": true}`` response instead of a traceback.
    """


class FaultInjected(Exception):
    """Mixin marker carried by every injected exception.

    Never raised directly: :func:`repro.reliability.faults.injected_error`
    builds ``type("Injected<Base>", (Base, FaultInjected), {})`` so the
    injected failure is caught by the same handlers as the real one
    while remaining distinguishable in assertions and logs.
    """


__all__ = [
    "CircuitOpenError",
    "FaultInjected",
    "ReliabilityError",
    "RetryBudgetExceeded",
    "TransientStoreError",
]
