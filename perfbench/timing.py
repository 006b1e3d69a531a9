"""Host-speed calibration and the statistics every timing goes through.

The hosts this benchmark runs on change speed by tens of percent within
seconds (shared cores, frequency scaling).  Every op is therefore timed
between two runs of a fixed *calibration slice*, and its wall time is
scaled by ``CAL_REF_S / mean(slice before, slice after)``: the result is
what the op would have taken on a host that runs the slice in exactly
``CAL_REF_S`` seconds.

The slice is pure Python and allocates no GC-tracked objects.  It has two
halves, an interpreter-bound integer loop and a memory-bound walk over a
preallocated table of int objects in pseudo-random order, and reads the
weighted geometric mean ``loop ** CAL_LOOP_WEIGHT * walk ** (1 -
CAL_LOOP_WEIGHT)`` of their times.  Neither half alone tracks the
program: when neighbours load the host, the walk slows down far more than
the program's ops and the loop less; the weight is the one that kept the
scaled figures of repeated identical runs flattest across busy and quiet
host phases (see README.md).  Each half is timed with
``time.thread_time()`` (CPU time of the calling thread only) and runs with
``sys.settrace``/``sys.setprofile`` cleared, so a change that adds a busy
thread, a larger heap or a tracing hook cannot hide its cost inside the
reference: the slice does not see it, the op does.

This module imports nothing from the program under test.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from typing import Callable, List, Sequence, Tuple

#: Iterations of the slice's loop half and walk half (about 2 ms each).
CAL_LOOP_ITERATIONS = 20_000
CAL_WALK_ITERATIONS = 12_000

#: The walked table: 2**18 int objects (about 10 MB), built once, when this
#: module is imported.  Every walk visits the same 12 000 positions spread
#: over all of it: a few hundred kilobytes that the op run in between has
#: pushed out of the near caches, without the walk evicting much of the
#: op's own working set in turn.
CAL_WALK_MASK = (1 << 18) - 1
_WALK_TABLE = [1_000 + value for value in range(CAL_WALK_MASK + 1)]
random.Random(7).shuffle(_WALK_TABLE)

#: Exponent of the loop half in the slice reading (the walk gets the rest).
CAL_LOOP_WEIGHT = 0.75

#: The reference host's slice reading: scaled timings are in reference
#: seconds.
CAL_REF_S = 0.002


def calibration_slice() -> float:
    """One slice reading: weighted geometric mean of the halves' CPU time."""
    trace, profile = sys.gettrace(), sys.getprofile()
    sys.settrace(None)
    sys.setprofile(None)
    try:
        started = time.thread_time()
        value = 0
        for index in range(CAL_LOOP_ITERATIONS):
            value = (value * 31 + index) & 0xFFFFF
        looped = time.thread_time()
        table, position, total = _WALK_TABLE, 1, 0
        for _ in range(CAL_WALK_ITERATIONS):
            position = (position * 1_103_515_245 + 12_345) & CAL_WALK_MASK
            total += table[position]
        walked = time.thread_time()
        return ((looped - started) ** CAL_LOOP_WEIGHT
                * (walked - looped) ** (1.0 - CAL_LOOP_WEIGHT))
    finally:
        sys.settrace(trace)
        sys.setprofile(profile)


def scale_factor(cal_before: float, cal_after: float) -> float:
    """Multiplier turning this host's seconds into reference seconds."""
    return CAL_REF_S / ((cal_before + cal_after) / 2.0)


class OpClock:
    """Times ops one after another, each between two calibration slices.

    The slice after one op is the slice before the next, so a closed loop
    pays one slice per op.  ``samples`` collects ``(raw_s, scaled_s,
    cal_before_s, cal_after_s)`` per op; ``last_factor`` is the latest
    op's scale factor.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float, float]] = []
        self.last_factor = 1.0
        self._cal = calibration_slice()

    def time(self, op: Callable[[], object]) -> object:
        """Run and record ``op``; returns its result.

        An exception from ``op`` propagates after the op is recorded, so a
        failing op still counts as attempted and timed.
        """
        started = time.perf_counter()
        try:
            return op()
        finally:
            raw = time.perf_counter() - started
            cal_after = calibration_slice()
            self.last_factor = scale_factor(self._cal, cal_after)
            self.samples.append((raw, raw * self.last_factor, self._cal,
                                 cal_after))
            self._cal = cal_after

    def calibrations(self) -> List[float]:
        """Every slice reading taken so far (one per op, plus the first)."""
        if not self.samples:
            return [self._cal]
        return [self.samples[0][2]] + [sample[3] for sample in self.samples]


def median_slice(runs: int = 5) -> float:
    """Median of a few back-to-back slices (for one-off timings)."""
    return statistics.median(calibration_slice() for _ in range(runs))


def p95(values: Sequence[float]) -> float:
    """The 95th percentile (``statistics.quantiles``' default method)."""
    return statistics.quantiles(values, n=20)[18]


def latency_summary(seconds: Sequence[float]) -> dict:
    """Throughput and latency of a closed loop from per-op seconds."""
    p95_s = p95(seconds)
    return {
        "ops_per_s": len(seconds) / sum(seconds),
        "latency_p50_ms": statistics.median(seconds) * 1000.0,
        "latency_p95_ms": p95_s * 1000.0,
        "beyond_p95": sum(1 for value in seconds if value > p95_s),
    }
