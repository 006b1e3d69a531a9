"""Reliability subsystem: fault injection and store resilience.

Three cooperating pieces:

* :mod:`~repro.reliability.faults` -- deterministic, seeded fault
  injection behind named sites (``faults.check("store.flush")``), off by
  default and free when disabled;
* :mod:`~repro.reliability.retry` / :mod:`~repro.reliability.breaker` /
  :mod:`~repro.reliability.resilient` -- bounded backoff, a circuit
  breaker, and the :class:`ResilientStore` wrapper that degrades the
  engine to memory-only caching while the persistent tier is down;
* :mod:`~repro.reliability.errors` -- the failure taxonomy tying it
  together.
"""

from .breaker import CircuitBreaker
from .errors import (
    CircuitOpenError,
    FaultInjected,
    ReliabilityError,
    RetryBudgetExceeded,
    TransientStoreError,
)
from .faults import FaultPlan, FaultRule, injected_error, resolve_fault_plan
from .resilient import ResilientStore, wrap_store
from .retry import RetryPolicy

from . import faults

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "ReliabilityError",
    "ResilientStore",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "TransientStoreError",
    "faults",
    "injected_error",
    "resolve_fault_plan",
    "wrap_store",
]
