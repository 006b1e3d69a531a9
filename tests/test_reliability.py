"""Unit tests for the reliability subsystem (repro.reliability).

Each primitive is pinned in isolation -- with injected clocks, sleeps
and RNGs, so nothing here waits on wall-clock time:

* :mod:`repro.reliability.faults` -- deterministic fault plans: rule
  eligibility (``after``/``times``/``probability``), seeded replay,
  spec round-trips, the environment-variable loading path, and the
  injected-exception taxonomy (real base class + ``FaultInjected``).
* :class:`RetryPolicy` -- the backoff schedule and the retry loop.
* :class:`CircuitBreaker` -- the closed/open/half-open state machine.
* :class:`ResilientStore` -- degradation policy around a flaky store.
"""

import errno
import random

import pytest

from repro.engine import Engine, EngineConfig
from repro.engine.store import MemoryStore
from repro.reliability import (
    CircuitBreaker,
    FaultInjected,
    FaultPlan,
    FaultRule,
    ResilientStore,
    RetryPolicy,
    TransientStoreError,
    faults,
    wrap_store,
)
from repro.reliability.breaker import CLOSED, HALF_OPEN, OPEN
from repro.reliability.errors import RetryBudgetExceeded


# --------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------- #


def _fire_pattern(plan: FaultPlan, site: str, calls: int):
    """Which of ``calls`` consecutive checks raised, as a bool list."""
    pattern = []
    with faults.installed(plan):
        for _ in range(calls):
            try:
                faults.check(site)
                pattern.append(False)
            except Exception:
                pattern.append(True)
    return pattern


class TestFaultRules:
    def test_unknown_site_rejected(self):
        # "pool.task" went with the process pool.
        for site in ("store.nonsense", "pool.task"):
            with pytest.raises(ValueError, match="unknown fault site"):
                FaultRule(site=site)

    def test_removed_kill_action_and_once_path_rejected(self):
        # Both existed only to kill one forked pool worker.
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="compile.step", action="kill")
        with pytest.raises(TypeError):
            FaultPlan.from_spec({"rules": [{"site": "store.read",
                                            "once_path": "sentinel"}]})

    def test_unknown_error_class_rejected(self):
        with pytest.raises(ValueError, match="unknown fault error class"):
            FaultRule(site="store.flush", error="SegfaultError")

    def test_unknown_errno_name_rejected(self):
        with pytest.raises(ValueError, match="unknown errno name"):
            FaultRule(site="store.flush", errno="ENOSUCHTHING")

    def test_after_and_times_bound_the_firing_window(self):
        plan = FaultPlan([FaultRule(site="store.flush", after=2, times=2)])
        assert _fire_pattern(plan, "store.flush", 6) == [
            False, False, True, True, False, False]

    def test_injected_error_carries_base_class_and_provenance(self):
        plan = FaultPlan([FaultRule(site="store.read", error="OSError",
                                    errno="ENOSPC", times=1)])
        with faults.installed(plan):
            with pytest.raises(OSError) as excinfo:
                faults.check("store.read")
        assert isinstance(excinfo.value, FaultInjected)
        assert excinfo.value.errno == errno.ENOSPC
        # Ordinary handlers keep matching the real class.
        assert isinstance(excinfo.value, OSError)

    def test_delay_action_does_not_raise(self):
        plan = FaultPlan([FaultRule(site="serve.batch", action="delay",
                                    delay_seconds=0.0)])
        assert _fire_pattern(plan, "serve.batch", 2) == [False, False]
        assert plan.fired == {"serve.batch": 2}

    def test_probability_draws_replay_bit_identically(self):
        def run(seed):
            plan = FaultPlan(
                [FaultRule(site="compile.step", probability=0.5)], seed=seed)
            return _fire_pattern(plan, "compile.step", 32)

        assert run(7) == run(7)
        assert run(7) != run(8)  # the seed genuinely steers the draws
        assert any(run(7)) and not all(run(7))

    def test_rules_draw_from_independent_streams(self):
        """One rule's probability draws never perturb another's."""
        rules = [FaultRule(site="store.flush", probability=0.5),
                 FaultRule(site="store.read", probability=0.5)]
        # Plan A: store.read checks interleaved with store.flush checks.
        with faults.installed(FaultPlan(rules, seed=3)):
            interleaved = []
            for _ in range(24):
                try:
                    faults.check("store.flush")
                except Exception:
                    pass
                try:
                    faults.check("store.read")
                    interleaved.append(False)
                except Exception:
                    interleaved.append(True)
        # Plan B (identical spec): store.read checks alone.  The read
        # rule's schedule must not depend on whether the flush rule drew.
        alone = _fire_pattern(FaultPlan(rules, seed=3), "store.read", 24)
        assert interleaved == alone

    def test_spec_round_trip(self):
        plan = FaultPlan(
            [FaultRule(site="store.flush", errno="ENOSPC", after=1, times=2),
             FaultRule(site="compile.step", error="TimeoutError",
                       message="injected budget blow-up"),
             FaultRule(site="serve.batch", action="delay",
                       delay_seconds=0.01, probability=0.25)],
            seed=42)
        clone = FaultPlan.from_spec(plan.to_json())
        assert clone.to_spec() == plan.to_spec()
        assert clone.seed == 42


class TestAmbientPlan:
    def test_check_without_plan_is_a_no_op(self):
        for site in faults.KNOWN_SITES:
            faults.check(site)  # must not raise

    def test_installed_context_scopes_the_plan(self):
        spec = {"rules": [{"site": "store.flush"}]}
        with faults.installed(spec):
            with pytest.raises(OSError):
                faults.check("store.flush")
        faults.check("store.flush")  # cleared on exit

    def test_env_var_loads_once(self, monkeypatch):
        plan = FaultPlan([FaultRule(site="compile.step", times=1)])
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        monkeypatch.setattr(faults, "_ACTIVE", None)
        monkeypatch.setattr(faults, "_env_checked", False)
        with pytest.raises(OSError):
            faults.check("compile.step")
        faults.check("compile.step")  # times=1 exhausted
        assert faults.active() is not None

    @pytest.mark.parametrize("spec, error", [
        ('{"rules": [{"site": "store.read", "once_path": "x"}]}', TypeError),
        ('{"rules": [{"site": "bogus"}]}', ValueError),
    ])
    def test_malformed_env_var_raises_on_every_check(self, monkeypatch,
                                                     spec, error):
        # A plan that does not parse must not fail one check and then
        # leave the process silently running without it.
        monkeypatch.setenv(faults.ENV_VAR, spec)
        monkeypatch.setattr(faults, "_ACTIVE", None)
        monkeypatch.setattr(faults, "_env_checked", False)
        for _ in range(3):
            with pytest.raises(error):
                faults.check("compile.step")
        assert faults.active() is None

    def test_engine_config_validates_plans_eagerly(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            EngineConfig(fault_plan={"rules": [{"site": "bogus"}]})

    def test_engine_installs_its_plan(self):
        plan = {"rules": [{"site": "compile.step", "times": 1}],
                "seed": 1}
        engine = Engine(EngineConfig(method="exact", fault_plan=plan))
        assert faults.active() is not None
        from repro.boolean.dnf import DNF
        with pytest.raises(OSError) as excinfo:
            engine.attribute_lineages([DNF([[0, 1]])])
        assert isinstance(excinfo.value, FaultInjected)

    def test_service_engines_share_one_plan(self):
        """The service creates engines lazily (one per method, one per
        deadline request); all of them must count against one schedule,
        installed before the first request."""
        from repro import Database
        from repro.engine.serve import AttributionService

        db = Database()
        for value in ("a", "b"):
            db.add_fact("R", (value,))
            db.add_fact("S", (value, 1))
        service = AttributionService(db, EngineConfig(fault_plan={
            "rules": [{"site": "serve.request", "times": 1}]}))
        query = "Q(X) :- R(X), S(X, Y)"
        requests = [
            {"op": "attribute", "query": query},
            {"op": "attribute", "query": query},
            {"op": "rank", "query": query},
            {"op": "rank", "query": query},
            {"op": "attribute", "query": query, "deadline_ms": 60_000},
            {"op": "attribute", "query": query, "deadline_ms": 60_000},
        ]
        ok = [service.submit(request)["ok"] for request in requests]
        assert ok == [False, True, True, True, True, True]


# --------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_schedule_is_bounded_exponential(self):
        policy = RetryPolicy(attempts=5, base_delay=0.01, multiplier=2.0,
                             max_delay=0.05, jitter=0.0)
        assert [policy.delay(i) for i in range(4)] == [
            0.01, 0.02, 0.04, 0.05]

    def test_jitter_stays_within_the_band(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, max_delay=1.0,
                             jitter=0.2)
        rng = random.Random(0)
        for i in range(100):
            assert 0.08 <= policy.delay(0, rng=rng) <= 0.12

    def test_retries_then_succeeds(self):
        calls = {"n": 0}
        sleeps = []
        retried = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "done"

        policy = RetryPolicy(attempts=3, jitter=0.0)
        result = policy.call(flaky, sleep=sleeps.append,
                             on_retry=lambda i, e: retried.append(i))
        assert result == "done"
        assert calls["n"] == 3
        assert retried == [0, 1]
        assert sleeps == [policy.delay(0), policy.delay(1)]

    def test_terminal_failure_reraises_unchanged(self):
        error = TransientStoreError("persistent")

        def always():
            raise error

        with pytest.raises(TransientStoreError) as excinfo:
            RetryPolicy(attempts=2).call(always, sleep=lambda _s: None)
        assert excinfo.value is error

    def test_wrap_terminal_attaches_the_cause(self):
        def always():
            raise OSError("disk gone")

        with pytest.raises(RetryBudgetExceeded) as excinfo:
            RetryPolicy(attempts=2).call(always, sleep=lambda _s: None,
                                         wrap_terminal=True)
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_non_transient_errors_propagate_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("a bug, not an outage")

        with pytest.raises(ValueError):
            RetryPolicy(attempts=5).call(broken, sleep=lambda _s: None)
        assert calls["n"] == 1


# --------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------- #


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=_Clock())
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        breaker.record_success()  # resets the consecutive count
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # the tripping call
        assert breaker.state == OPEN
        assert breaker.allow() is False
        assert breaker.trips == 1

    def test_half_open_grants_one_probe(self):
        clock = _Clock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.allow() is False
        clock.now = 10.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow() is True   # the probe slot
        assert breaker.allow() is False  # everyone else waits the verdict

    def test_probe_success_reattaches(self):
        clock = _Clock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.reattaches == 1
        assert breaker.allow()

    def test_probe_failure_rearms_the_timer(self):
        clock = _Clock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        assert breaker.record_failure() is True  # probe failed: re-open
        assert breaker.state == OPEN
        clock.now = 9.0
        assert breaker.allow() is False  # fresh timer, not the old one
        clock.now = 10.0
        assert breaker.allow() is True

    def test_threshold_zero_disables(self):
        breaker = CircuitBreaker(failure_threshold=0)
        for _ in range(100):
            assert breaker.record_failure() is False
        assert breaker.allow() is True
        assert breaker.state == CLOSED

    def test_snapshot_reports_the_machine(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=_Clock())
        breaker.record_failure()
        snapshot = breaker.snapshot()
        assert snapshot == {"state": CLOSED, "failures": 1, "trips": 0,
                            "reattaches": 0}


# --------------------------------------------------------------------- #
# Resilient store
# --------------------------------------------------------------------- #


class _FlakyStore:
    """In-memory store whose next ``fail_next`` operations raise."""

    def __init__(self):
        self.inner = MemoryStore()
        self.fail_next = 0
        self.error = OSError
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.fail_next > 0:
            self.fail_next -= 1
            raise self.error("injected store failure")

    def get(self, key):
        self._maybe_fail()
        return self.inner.get(key)

    def put(self, key, value):
        self._maybe_fail()
        self.inner.put(key, value)

    def flush(self):
        self._maybe_fail()
        self.inner.flush()

    def stats(self):
        return self.inner.stats()

    def __len__(self):
        return len(self.inner)


def _fast_retry(attempts):
    return RetryPolicy(attempts=attempts, base_delay=0.0, jitter=0.0)


class TestResilientStore:
    def test_transient_read_failure_is_retried(self):
        counters = []
        flaky = _FlakyStore()
        flaky.inner.put("k", "v")
        store = ResilientStore(flaky, retry=_fast_retry(3),
                               on_counter=lambda **d: counters.append(d))
        flaky.fail_next = 2
        assert store.get("k") == "v"
        assert counters == [{"store_retries": 1}, {"store_retries": 1}]

    def test_terminal_read_failure_degrades_to_a_miss(self):
        flaky = _FlakyStore()
        flaky.inner.put("k", "v")
        store = ResilientStore(flaky, retry=_fast_retry(2))
        flaky.fail_next = 10
        assert store.get("k") is None  # a miss, never an exception

    def test_breaker_trip_stops_touching_the_backend(self):
        counters = []
        clock = _Clock()
        flaky = _FlakyStore()
        store = ResilientStore(
            flaky, retry=_fast_retry(1),
            breaker=CircuitBreaker(failure_threshold=2, reset_timeout=5.0,
                                   clock=clock),
            on_counter=lambda **d: counters.append(d))
        flaky.fail_next = 10
        store.get("a")
        store.get("b")  # second terminal failure trips the breaker
        assert {"store_degraded": 1} in counters
        touched = flaky.calls
        store.get("c")
        store.flush()
        assert flaky.calls == touched  # open breaker: no backend I/O

    def test_half_open_probe_reattaches_the_store(self):
        clock = _Clock()
        flaky = _FlakyStore()
        flaky.inner.put("k", "v")
        store = ResilientStore(
            flaky, retry=_fast_retry(1),
            breaker=CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                   clock=clock))
        flaky.fail_next = 1
        store.get("k")  # trips
        assert store.get("k") is None  # open: degraded miss
        clock.now = 5.0
        assert store.get("k") == "v"  # the probe wins and reattaches
        assert store.breaker.state == CLOSED
        assert store.breaker.reattaches == 1

    def test_flush_failure_is_swallowed_and_pending_survives(self):
        flaky = _FlakyStore()
        store = ResilientStore(flaky, retry=_fast_retry(1))
        store.put("k", "v")
        flaky.fail_next = 1
        store.flush()  # swallowed; the entry stays buffered inside
        assert store.get("k") == "v"
        store.flush()  # the fault cleared: persists normally
        assert flaky.inner.get("k") == "v"

    def test_non_store_verbs_delegate(self):
        flaky = _FlakyStore()
        store = ResilientStore(flaky)
        store.put("k", "v")
        assert len(store) == 1
        assert store.stats()["reliability"]["state"] == CLOSED
        assert "ResilientStore" in repr(store)

    def test_wrap_store_is_idempotent_and_has_an_escape_hatch(self):
        inner = MemoryStore()
        wrapped = wrap_store(inner)
        assert isinstance(wrapped, ResilientStore)
        assert wrap_store(wrapped) is wrapped
        assert wrap_store(None) is None
        assert wrap_store(inner, retries=0, breaker_threshold=0) is inner

    def test_engine_wraps_its_store_by_default(self):
        engine = Engine(EngineConfig(store=MemoryStore()))
        assert isinstance(engine.store, ResilientStore)
        bare = Engine(EngineConfig(store=MemoryStore(), store_retries=0,
                                   breaker_threshold=0))
        assert isinstance(bare.store, MemoryStore)
