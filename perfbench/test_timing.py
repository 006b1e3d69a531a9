"""Tests of the timing scale.

    python3 -m pytest perfbench/test_timing.py -q

Padding an op with a fixed extra loop must raise its scaled time by the
same ratio as its raw time, and neither a spinning background thread nor
an installed profile or trace hook may change the calibration slice's
reading.  Readings are medians of interleaved repetitions, because the
host's speed drifts between any two single readings.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from timing import OpClock, calibration_slice  # noqa: E402

REPS = 15


def busy(iterations: int) -> int:
    value = 0
    for index in range(iterations):
        value += index * index
    return value


def slices(count: int = REPS) -> list:
    return [calibration_slice() for _ in range(count)]


def test_padding_scales_like_raw_time():
    clock = OpClock()
    base, padded = [], []
    for _ in range(REPS):
        clock.time(lambda: busy(100_000))
        base.append(clock.samples[-1])
        clock.time(lambda: busy(100_000) + busy(60_000))
        padded.append(clock.samples[-1])
    raw_ratio = (statistics.median(s[0] for s in padded)
                 / statistics.median(s[0] for s in base))
    scaled_ratio = (statistics.median(s[1] for s in padded)
                    / statistics.median(s[1] for s in base))
    assert raw_ratio > 1.3
    assert scaled_ratio == pytest.approx(raw_ratio, rel=0.1)


def test_failing_op_is_still_recorded():
    clock = OpClock()

    def failing():
        raise ValueError("op failed")

    with pytest.raises(ValueError):
        clock.time(failing)
    assert len(clock.samples) == 1


def test_busy_thread_does_not_move_the_slice():
    quiet = slices()
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            busy(1_000)

    thread = threading.Thread(target=spin, daemon=True)
    thread.start()
    try:
        started = time.perf_counter()
        contended = slices()
        wall = time.perf_counter() - started
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    quiet += slices()
    # The thread really competed: wall time grew, thread time did not.
    assert wall > 1.3 * sum(contended)
    ratio = statistics.median(contended) / statistics.median(quiet)
    assert 0.75 < ratio < 1.33


@pytest.mark.parametrize("install", [sys.setprofile, sys.settrace])
def test_hooks_do_not_move_the_slice(install):
    def hook(frame, event, arg):
        return hook

    quiet = slices()
    install(hook)
    try:
        hooked = slices()
        restored = sys.getprofile() if install is sys.setprofile \
            else sys.gettrace()
    finally:
        install(None)
    quiet += slices()
    assert restored is hook
    ratio = statistics.median(hooked) / statistics.median(quiet)
    assert 0.75 < ratio < 1.33
