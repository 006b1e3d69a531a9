"""LRU cache of attribution results keyed by canonical lineage.

The cache stores the *outcome* of attributing one canonical lineage with one
method configuration: the per-variable values (in canonical variable space),
the optional bounds, and which method actually produced them (relevant for
``auto``, where the engine may have fallen back from ExaBan to AdaBan, and
for the ranking methods, where a cached complete d-tree yields an exact
result).  Ranking entries store the full per-variable interval map, so one
entry serves any downstream ranking or top-k read.
Because entries live in canonical space they are shared by every answer --
of any query -- whose lineage is isomorphic.

Compiled d-trees live in a third, method-independent tier: the
compiled-lineage **artifact** cache (:mod:`repro.engine.artifact`), keyed
by canonical lineage *alone* — no method, no epsilon, no k — because a
d-tree is a function of the lineage and nothing else.  Complete and
partial (resumable) artifacts both live there; since they are exactly
serializable they also flow through the persistent store tier, so
compilation survives process restarts exactly like results do.

Since the store tier (:mod:`repro.engine.store`) this cache is the *first*
of two result tiers: the engine falls through memory -> store -> compute,
promoting store hits back into this LRU, and :meth:`LRUCache.snapshot`
exists so a warm memory tier can be persisted wholesale (``repro cache
save``).  Entries here and in any store share the same :data:`ResultKey`
and the same canonical variable space.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Generic, Hashable, Optional, Tuple, TypeVar, Union

from repro.engine.canonical import CanonicalKey

#: Cache key of a result: canonical lineage plus the method configuration
#: that produced it (epsilon for every epsilon-dependent method, k for
#: top-k).  The epsilon slot carries the *canonical* exact encoding
#: produced by :func:`canonical_epsilon` — an exact ``Fraction`` — never
#: a raw float, so equivalent configurations can neither split nor alias
#: entries across tiers or processes.
ResultKey = Tuple[CanonicalKey, str, Optional[Fraction], Optional[int]]


def canonical_epsilon(epsilon: Union[float, int, Fraction, None]
                      ) -> Optional[Fraction]:
    """One exact canonical encoding of an epsilon (``None`` passes through).

    Floats are expanded to their exact binary value (``Fraction(0.1)``,
    not the decimal 1/10), so the encoding is lossless and two epsilons
    key the same entry iff they denote the same number — regardless of
    which numeric type, process, or tier produced them.  Python's
    cross-type numeric hashing makes the ``Fraction`` hash/compare equal
    to the float it came from, so canonical keys interoperate with
    float-carrying callers.
    """
    if epsilon is None:
        return None
    return Fraction(epsilon)

#: Methods whose cached values depend on epsilon: ``approximate`` outright,
#: ``auto`` through its AdaBan fallback (each Engine pins one epsilon, but
#: the key must not rely on that), ``rank``/``topk`` through their anytime
#: stopping rules.
_EPSILON_METHODS = ("approximate", "auto", "rank", "topk")

_V = TypeVar("_V")


@dataclass(frozen=True)
class CachedAttribution:
    """One memoized attribution, in canonical variable space.

    Attributes
    ----------
    method_used:
        The algorithm that produced the values (``"exact"``,
        ``"approximate"`` or ``"shapley"``); under ``auto`` this records
        which side of the fallback ran.
    values:
        Canonical variable id -> attribution value.
    bounds:
        Canonical variable id -> (lower, upper) certificate, present for
        exact (degenerate interval) and approximate results.
    templates:
        Answer templates the engine derives at first use: the variables
        grouped in output order.  Never persisted; not part of equality.
    """

    method_used: str
    values: Dict[int, Fraction]
    bounds: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: ``False`` for best-so-far ranking results whose anytime run exhausted
    #: its budget; such entries are never written to the cache.
    converged: bool = True
    templates: Dict[Hashable, object] = field(
        default_factory=dict, init=False, repr=False, compare=False)


class LRUCache(Generic[_V]):
    """A minimal ordered-dict LRU whose capacity bounds the sum of ``weigh``.

    Individual operations are lock-protected, so concurrent readers and
    writers (e.g. threads sharing one engine through ``attribute_facts``)
    can never corrupt the structure.  The LRU itself does not stop two
    threads from computing one missing entry; the in-flight table of
    :class:`LineageCache` does.
    """

    def __init__(self, max_entries: int,
                 weigh: Callable[[_V], int] = lambda value: 1) -> None:
        if max_entries < 1:
            raise ValueError("cache capacity must be positive")
        self._max_entries = max_entries
        self._entries: "OrderedDict[Hashable, _V]" = OrderedDict()
        self._lock = threading.Lock()
        self._weigh = weigh
        self._weight = 0

    def get(self, key: Hashable) -> Optional[_V]:
        """Return the cached value and refresh its recency (``None`` on miss)."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                return None
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: _V) -> None:
        """Insert (or refresh) an entry, evicting the least recently used;
        a value heavier than the whole capacity is not kept."""
        with self._lock:
            if key in self._entries:
                self._weight -= self._weigh(self._entries.pop(key))
            if self._weigh(value) <= self._max_entries:
                self._entries[key] = value
                self._weight += self._weigh(value)
            while self._weight > self._max_entries:
                self._weight -= self._weigh(self._entries.popitem(last=False)[1])

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop all entries."""
        with self._lock:
            self._entries.clear()
            self._weight = 0

    def snapshot(self):
        """List of ``(key, value)`` pairs, least recently used first.

        A point-in-time copy: safe to iterate while other threads keep
        using the cache.  Feeding the pairs into another cache in order
        preserves the recency ranking (the most recently used entry is
        inserted last).
        """
        with self._lock:
            return list(self._entries.items())


class LineageCache:
    """The engine's memo: canonical forms, results and compiled artifacts.

    :attr:`forms` memoizes canonical forms by first-occurrence encoding
    (``canonicalize``'s ``memo``), at the result tier's capacity;
    :attr:`prepared` holds each query's answers and canonical lineages
    per database version (``Engine._prepare``), at that capacity in
    answers, with a weak reference to the database.  Neither is persisted.

    Result entries are small (per-variable Fractions keyed by tuples of int
    tuples), so the default of 4096 is only a few megabytes for typical
    workload lineages.  Compiled-lineage artifacts
    (:class:`~repro.engine.artifact.CompiledLineage`: a complete d-tree,
    or a partial one plus its resumable frontier) can be arbitrarily
    large object graphs, so they get a much smaller independent bound
    (``artifact_entries``).  Artifacts are keyed by
    :data:`~repro.engine.canonical.CanonicalKey` alone — one compilation
    serves every method, epsilon and k over that lineage.

    It also holds the in-flight table that makes the engine's compute
    stage single-flight: the first caller to :meth:`claim` a key computes
    it, later callers wait on the owner's event and then read
    :attr:`results`, across every engine and thread sharing this cache.
    """

    def __init__(self, max_entries: int = 4096,
                 artifact_entries: int = 256) -> None:
        self.forms: LRUCache[tuple] = LRUCache(max_entries)
        self.prepared: LRUCache[tuple] = LRUCache(
            max_entries, weigh=lambda entry: max(len(entry[1]), 1))
        self.results: LRUCache[CachedAttribution] = LRUCache(max_entries)
        self.artifacts: LRUCache[object] = LRUCache(artifact_entries)
        self._inflight: Dict[Hashable, threading.Event] = {}
        self._inflight_lock = threading.Lock()

    def claim(self, key: Hashable) -> Optional[threading.Event]:
        """``None`` if the caller now owns ``key`` (and must
        :meth:`release` it), else the owner's event, set on release."""
        with self._inflight_lock:
            event = self._inflight.get(key)
            if event is None:
                self._inflight[key] = threading.Event()
            return event

    def release(self, key: Hashable) -> None:
        """End the caller's ownership of ``key`` and wake its waiters."""
        with self._inflight_lock:
            event = self._inflight.pop(key)
        event.set()

    @staticmethod
    def result_key(key: CanonicalKey, method: str,
                   epsilon: Union[float, Fraction, None],
                   k: Optional[int] = None) -> ResultKey:
        """Build the result-cache key.

        Epsilon is kept for every epsilon-dependent method -- including
        ``auto``, whose fallback values depend on it -- and dropped for the
        exact methods (``exact``/``shapley``), whose results never do; it
        is normalized through :func:`canonical_epsilon` so float-repr
        drift can never split or alias equivalent entries.  ``k`` is kept
        for ``topk`` only.
        """
        return (key,) + LineageCache.result_suffix(method, epsilon, k)

    @staticmethod
    def result_suffix(method: str, epsilon: Union[float, Fraction, None],
                      k: Optional[int] = None) -> tuple:
        """The ``(method, epsilon, k)`` part of :meth:`result_key`."""
        if method not in _EPSILON_METHODS:
            epsilon = None
        return method, canonical_epsilon(epsilon), k if method == "topk" else None

    def clear(self) -> None:
        """Drop every cache level."""
        self.forms.clear()
        self.prepared.clear()
        self.results.clear()
        self.artifacts.clear()
