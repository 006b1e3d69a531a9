"""Deterministic fault injection behind named sites.

Production code plants *sites* -- ``faults.check("store.flush")`` -- at
the points where real failures happen (store I/O, compile steps, batch
serving).  A :class:`FaultPlan` is a seeded list of :class:`FaultRule`
entries that decide, per site and per call count, whether to raise or
delay.  With no plan installed ``check`` is a single global load and a
``None`` test, so the hooks are free in production; with a plan
installed the behaviour is a pure function of the plan (seed, rule
order, per-site call counts), so a chaos schedule replays
bit-identically.

Rules
-----
A rule fires on calls to its ``site`` once the site's call count exceeds
``after``, at most ``times`` times, each time with ``probability``
(drawn from a per-rule ``random.Random`` seeded from the plan seed, so
one rule's draws never perturb another's).

Actions
-------
``raise``
    Raise an *injected* exception: a dynamic subclass of the requested
    real type (``OSError``, ``TimeoutError``, ...) mixed with
    :class:`~repro.reliability.errors.FaultInjected`, so ordinary
    handlers catch it while tests can assert provenance.  ``errno``
    accepts numbers or names (``"ENOSPC"``).
``delay``
    Sleep ``delay_seconds`` (default 50 ms).

Installation
------------
``install(plan)`` / ``clear()`` manage the ambient plan;
``installed(plan)`` is the context-manager form tests use.  Engines and
services install their ``EngineConfig(fault_plan=...)`` on construction.  For
subprocesses that do not inherit interpreter state, ``check`` lazily
loads a plan from the ``REPRO_FAULT_PLAN`` environment variable (a JSON
spec) on its first call.
"""

from __future__ import annotations

import errno as _errno_module
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import CircuitOpenError, FaultInjected, TransientStoreError

#: Injection sites planted in the engine; kept here so plans can be
#: validated against typos instead of silently never firing.
KNOWN_SITES = (
    "store.flush",
    "store.read",
    "compile.step",
    "serve.batch",
    "serve.request",
)

_ERROR_CLASSES = {
    "OSError": OSError,
    "IOError": OSError,
    "TimeoutError": TimeoutError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "ConnectionError": ConnectionError,
    "TransientStoreError": TransientStoreError,
    "CircuitOpenError": CircuitOpenError,
}

_injected_class_cache: Dict[type, type] = {}


def _error_class(name: str) -> type:
    if name in _ERROR_CLASSES:
        return _ERROR_CLASSES[name]
    if name == "StoreLockedError":
        # Imported lazily: logstore plants fault sites, so importing it
        # at module load would be circular.
        from repro.engine.logstore import StoreLockedError

        return StoreLockedError
    raise ValueError(
        f"unknown fault error class {name!r}; known: "
        f"{sorted(_ERROR_CLASSES) + ['StoreLockedError']}"
    )


def injected_error(
    base: type,
    message: str,
    *,
    error_number: Optional[int] = None,
) -> BaseException:
    """Build an instance of ``base`` that also carries :class:`FaultInjected`."""
    cls = _injected_class_cache.get(base)
    if cls is None:
        cls = type(f"Injected{base.__name__}", (base, FaultInjected), {})
        _injected_class_cache[base] = cls
    if error_number is not None and issubclass(base, OSError):
        return cls(error_number, message)
    return cls(message)


def _resolve_errno(value: Union[int, str, None]) -> Optional[int]:
    if value is None or isinstance(value, int):
        return value
    number = getattr(_errno_module, value, None)
    if not isinstance(number, int):
        raise ValueError(f"unknown errno name {value!r}")
    return number


@dataclass(frozen=True)
class FaultRule:
    """One deterministic rule of a :class:`FaultPlan`.

    Attributes:
        site: Injection site the rule listens on (see ``KNOWN_SITES``).
        action: ``"raise"`` or ``"delay"``.
        error: Exception class name for ``"raise"`` (default ``OSError``).
        errno: Optional errno number or name (``"ENOSPC"``) set on
            injected ``OSError`` instances.
        after: Skip the first ``after`` calls to the site.
        times: Fire at most this many times (``None`` = unbounded).
        probability: Chance of firing once eligible, drawn from a
            per-rule seeded RNG.
        delay_seconds: Sleep length for ``"delay"``.
        message: Text of the injected exception.
    """

    site: str
    action: str = "raise"
    error: str = "OSError"
    errno: Union[int, str, None] = None
    after: int = 0
    times: Optional[int] = None
    probability: float = 1.0
    delay_seconds: float = 0.05
    message: str = ""

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {KNOWN_SITES}"
            )
        if self.action not in ("raise", "delay"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.action == "raise":
            _error_class(self.error)  # validate eagerly
        _resolve_errno(self.errno)
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 when given")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")

    def to_spec(self) -> Dict[str, object]:
        spec: Dict[str, object] = {"site": self.site, "action": self.action}
        if self.action == "raise":
            spec["error"] = self.error
            if self.errno is not None:
                spec["errno"] = self.errno
        if self.after:
            spec["after"] = self.after
        if self.times is not None:
            spec["times"] = self.times
        if self.probability != 1.0:
            spec["probability"] = self.probability
        if self.action == "delay":
            spec["delay_seconds"] = self.delay_seconds
        if self.message:
            spec["message"] = self.message
        return spec


class _RuleState:
    """Mutable per-rule firing state (kept outside the frozen rule)."""

    __slots__ = ("fired", "rng")

    def __init__(self, seed_material: str) -> None:
        self.fired = 0
        self.rng = random.Random(seed_material)


class FaultPlan:
    """A seeded, deterministic schedule of faults over named sites.

    Thread-safe: per-site call counters and per-rule state advance under
    one lock, and each rule draws from its own RNG so concurrent sites
    cannot perturb each other's schedules.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), *, seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._states = [
            _RuleState(f"{self.seed}:{index}:{rule.site}")
            for index, rule in enumerate(self.rules)
        ]
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # construction / serialization

    @classmethod
    def from_spec(cls, spec: Union[str, Dict[str, object], List[object], None]) -> Optional["FaultPlan"]:
        """Build a plan from a JSON string, a dict spec, or a rule list."""
        if spec is None:
            return None
        if isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, str):
            text = spec.strip()
            if not text:
                return None
            spec = json.loads(text)
        if isinstance(spec, list):
            spec = {"rules": spec}
        if not isinstance(spec, dict):
            raise ValueError(f"fault plan spec must be JSON object/list, got {type(spec).__name__}")
        raw_rules = spec.get("rules", [])
        rules = []
        for raw in raw_rules:
            if isinstance(raw, FaultRule):
                rules.append(raw)
            else:
                rules.append(FaultRule(**raw))
        return cls(rules, seed=int(spec.get("seed", 0)))

    def to_spec(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "rules": [rule.to_spec() for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), sort_keys=True)

    # ------------------------------------------------------------------
    # firing

    def calls(self, site: str) -> int:
        with self._lock:
            return self._calls.get(site, 0)

    def fire(self, site: str) -> None:
        """Advance the site counter and execute the first matching rule."""
        action: Optional[Tuple[FaultRule, str]] = None
        with self._lock:
            count = self._calls.get(site, 0) + 1
            self._calls[site] = count
            for rule, state in zip(self.rules, self._states):
                if rule.site != site:
                    continue
                if count <= rule.after:
                    continue
                if rule.times is not None and state.fired >= rule.times:
                    continue
                if rule.probability < 1.0 and state.rng.random() >= rule.probability:
                    continue
                state.fired += 1
                self.fired[site] = self.fired.get(site, 0) + 1
                action = (rule, rule.action)
                break
        if action is None:
            return
        rule, kind = action
        if kind == "delay":
            time.sleep(rule.delay_seconds)
            return
        message = rule.message or f"injected {rule.error} at {site} (call {self._calls[site]})"
        raise injected_error(
            _error_class(rule.error),
            message,
            error_number=_resolve_errno(rule.errno),
        )


# ----------------------------------------------------------------------
# ambient plan

ENV_VAR = "REPRO_FAULT_PLAN"

_ACTIVE: Optional[FaultPlan] = None
_env_checked = False
_install_lock = threading.Lock()


def check(site: str) -> None:
    """Fault hook: free when no plan is installed.

    The fast path is one global load and a ``None`` test; the
    environment variable is consulted once per process so subprocesses
    (a ``repro`` CLI invocation, say) pick up plans without code
    changes.  It counts as consulted only once it parses: until then
    every check raises the parse error.
    """
    global _env_checked, _ACTIVE
    plan = _ACTIVE
    if plan is None:
        if _env_checked:
            return
        with _install_lock:
            if not _env_checked:
                spec = os.environ.get(ENV_VAR)
                if spec:
                    _ACTIVE = FaultPlan.from_spec(spec)
                _env_checked = True
        plan = _ACTIVE
        if plan is None:
            return
    plan.fire(site)


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as the ambient plan (idempotent; ``None`` is a no-op)."""
    global _ACTIVE
    if plan is None:
        return _ACTIVE
    with _install_lock:
        _ACTIVE = plan
    return plan


def clear() -> None:
    """Remove the ambient plan (and forget any env-derived plan)."""
    global _ACTIVE, _env_checked
    with _install_lock:
        _ACTIVE = None
        _env_checked = True


def active() -> Optional[FaultPlan]:
    return _ACTIVE


class installed:
    """Context manager: install a plan for the dynamic extent of a test."""

    def __init__(self, plan: Union[FaultPlan, str, dict, list, None]) -> None:
        self.plan = FaultPlan.from_spec(plan) if not isinstance(plan, FaultPlan) else plan

    def __enter__(self) -> Optional[FaultPlan]:
        install(self.plan)
        return self.plan

    def __exit__(self, *exc_info: object) -> None:
        clear()


def resolve_fault_plan(
    spec: Union[FaultPlan, str, dict, list, None],
) -> Optional[FaultPlan]:
    """Coerce an ``EngineConfig.fault_plan`` value into a :class:`FaultPlan`."""
    if spec is None or isinstance(spec, FaultPlan):
        return spec
    return FaultPlan.from_spec(spec)


__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "KNOWN_SITES",
    "active",
    "check",
    "clear",
    "injected_error",
    "install",
    "installed",
    "resolve_fault_plan",
]
