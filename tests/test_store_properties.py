"""Hypothesis model-based tests for the log store tier.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives random
interleavings of ``put`` / ``flush`` / ``evict`` (via a tiny capacity) /
``compact`` / clean-``reopen`` / crash-``reopen`` against a
:class:`LogStore`, checking after every step that it agrees with a
trivial in-memory model (the dict a :class:`MemoryStore` is) about
every key's value -- with the exact-``Fraction`` round-trip preserved
bit for bit.

Runs in the ``concurrency`` CI lane alongside the crash/multiproc
harnesses (shared pytest-timeout guard; Hypothesis is slow-ish).
"""

import shutil
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.engine.cache import CachedAttribution
from repro.engine.logstore import LogStore
from repro.engine.store import decode_entry, decode_key, encode_entry, \
    encode_key

pytestmark = pytest.mark.concurrency

#: A small fixed key pool: few enough that overwrites, evictions and
#: collisions happen constantly, keyed apart by clauses *and* epsilon.
KEY_POOL = [
    ((3, ((0, 1), (1, 2))), "exact", None, None),
    ((3, ((0, 1), (1, 2))), "approximate", Fraction(1, 10), None),
    ((3, ((0, 2),)), "approximate", Fraction(1, 7), None),
    ((4, ((0, 1), (2, 3))), "topk", Fraction(3, 10), 2),
    ((2, ((0,), (1,))), "rank", None, None),
    ((5, ((0, 4), (1, 3), (2,))), "shapley", None, None),
]

_fractions = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
) | st.sampled_from([
    Fraction(12345678901234567890, 7),
    Fraction(-1, 2 ** 80),
    Fraction(0),
])

_entries = st.builds(
    lambda value, lower, upper, converged: CachedAttribution(
        method_used="property",
        values={0: value, 1: value + 1},
        bounds={0: (min(lower, upper), max(lower, upper))},
        converged=converged),
    value=_fractions,
    lower=st.integers(-2 ** 70, 2 ** 70),
    upper=st.integers(-2 ** 70, 2 ** 70),
    converged=st.booleans(),
)

_keys = st.sampled_from(KEY_POOL)

_MACHINE_SETTINGS = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class LogStoreMachine(RuleBasedStateMachine):
    """LogStore vs a dict model mirroring its documented semantics.

    The model tracks ``(value, stamp)`` per key in two tiers --
    ``pending`` (buffered, lost on crash) and ``durable`` (acked) --
    plus the monotone stamp counter, which is exactly what oldest-first
    eviction keys on.
    """

    MAX_ENTRIES = 4

    def __init__(self):
        super().__init__()
        self.path = tempfile.mkdtemp(prefix="logstore-prop-")
        self.store = LogStore(self.path, max_entries=self.MAX_ENTRIES,
                              auto_compact=False)
        self.stamp = 0
        self.durable = {}
        self.pending = {}

    # -- model mirror of flush (ack + evict) ---------------------------- #

    def _model_flush(self):
        for key, (value, stamp) in self.pending.items():
            self.durable[key] = (value, stamp)
        self.pending.clear()
        excess = len(self.durable) - self.MAX_ENTRIES
        if excess > 0:
            oldest = sorted(self.durable.items(),
                            key=lambda item: item[1][1])[:excess]
            for key, _record in oldest:
                del self.durable[key]
                self.stamp += 1  # the tombstone's stamp

    # -- rules ----------------------------------------------------------- #

    @rule(key=_keys, value=_entries)
    def put(self, key, value):
        self.store.put(key, value)
        self.stamp += 1
        self.pending[key] = (value, self.stamp)

    @rule()
    def flush(self):
        self.store.flush()
        self._model_flush()

    @rule()
    def compact(self):
        # compact() flushes buffered writes first, then rewrites.
        self.store.compact()
        self._model_flush()

    @rule()
    def reopen_clean(self):
        # close() is an orderly shutdown: it flushes, so nothing is lost.
        self.store.close()
        self._model_flush()
        self.store = LogStore(self.path, max_entries=self.MAX_ENTRIES,
                              auto_compact=False)

    @rule()
    def reopen_crash(self):
        # A crash loses exactly the unflushed buffer, nothing else.
        self.store._pending.clear()
        self.store._tree_pending.clear()
        self.store.close()
        self.pending.clear()
        self.store = LogStore(self.path, max_entries=self.MAX_ENTRIES,
                              auto_compact=False)

    # -- the oracle ------------------------------------------------------ #

    @invariant()
    def agrees_with_model_exactly(self):
        for key in KEY_POOL:
            expected = self.pending.get(key) or self.durable.get(key)
            loaded = self.store.get(key)
            if expected is None:
                assert loaded is None, f"phantom entry for {key}"
            else:
                assert loaded == expected[0], f"wrong value for {key}"
                for variable, value in loaded.values.items():
                    assert isinstance(value, Fraction)
                    assert value == expected[0].values[variable]
        assert len(self.store) == \
            len(set(self.pending) | set(self.durable))

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.path, ignore_errors=True)


def test_logstore_against_model():
    run_state_machine_as_test(LogStoreMachine, settings=_MACHINE_SETTINGS)


@settings(max_examples=50, deadline=None)
@given(value=_fractions, converged=st.booleans())
def test_fraction_roundtrip_is_bit_identical(value, converged):
    entry = CachedAttribution("property", {0: value},
                              {0: (-(2 ** 90), 2 ** 90)}, converged)
    decoded = decode_entry(encode_entry(entry))
    assert decoded == entry
    assert isinstance(decoded.values[0], Fraction)
    assert decoded.values[0].numerator == value.numerator
    assert decoded.values[0].denominator == value.denominator


@settings(max_examples=25, deadline=None)
@given(
    num_variables=st.integers(1, 6),
    clauses=st.lists(
        st.frozensets(st.integers(0, 5), min_size=1, max_size=3),
        min_size=1, max_size=4),
    epsilon=st.none() | _fractions.filter(lambda f: f > 0),
)
def test_key_roundtrip_through_log_encoding(num_variables, clauses, epsilon):
    key = ((num_variables,
            tuple(tuple(sorted(clause)) for clause in clauses)),
           "approximate" if epsilon is not None else "rank",
           epsilon, None)
    assert decode_key(encode_key(key)) == key
