"""Store-scale benchmark: the append-only log store at 10^5+ entries.

The persistent tier's scale story (:mod:`repro.engine.logstore`) makes
four claims, and this benchmark measures all of them on one synthetic
result corpus of distinct canonical keys with big-numerator exact
``Fraction`` payloads:

* **flush throughput** -- batched put+flush into a :class:`LogStore`
  (append one frame per record), reported in entries per second;
* **point-read latency vs store size** -- random ``get`` latency
  sampled at a ladder of store sizes up to the full corpus, asserted
  roughly flat (an in-memory offset index + one seek per read does not
  degrade with log length);
* **warm-restart cost** -- closing and reopening the full store, i.e.
  the sequential index-rebuild scan a restarted serving process pays;
* **compaction cost** -- superseding a third of the corpus and timing
  ``compact()``, reporting the bytes it reclaims.

Bit-identical round-trips are asserted on a sample of every phase's
reads.  Environment knobs: ``REPRO_BENCH_STORE_ENTRIES`` (default
100000), ``REPRO_BENCH_SMOKE=1`` for the CI smoke configuration (3000
entries, relaxed thresholds).  Runs standalone
(``python benchmarks/bench_store_scale.py``) or under pytest; emits
``benchmarks/results/BENCH_store_scale.json`` and
``benchmarks/results/store_scale.txt``.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from fractions import Fraction
from typing import Dict, List

from conftest import emit_bench_json, register_report

from repro.engine.cache import CachedAttribution
from repro.engine.logstore import LogStore

#: Prime denominator: every index yields a distinct, irreducible epsilon,
#: hence a distinct canonical result key.
_PRIME = 1_000_003


def _key(index: int):
    return ((3, ((0, 1), (1, 2))), "approximate",
            Fraction(index + 1, _PRIME), None)


def _value(index: int) -> CachedAttribution:
    # Big numerators keep the exact-arithmetic codec honest at scale.
    return CachedAttribution(
        method_used="approximate",
        values={0: Fraction(12345678901234567890 + index, 7),
                1: Fraction(-index - 1, 3)},
        bounds={0: (index, index + 1), 1: (-index - 1, 0)},
        converged=True,
    )


def _fill(store, start: int, stop: int, batch: int) -> float:
    """Write [start, stop) in put+flush batches; returns seconds."""
    started = time.perf_counter()
    for base in range(start, stop, batch):
        for index in range(base, min(base + batch, stop)):
            store.put(_key(index), _value(index))
        store.flush()
    return time.perf_counter() - started


def _point_read_us(store, size: int, samples: int,
                   rng: random.Random) -> float:
    """Mean ``get`` latency (microseconds) over random existing keys."""
    indexes = [rng.randrange(size) for _ in range(samples)]
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for index in indexes:
            if store.get(_key(index)) is None:
                raise AssertionError(f"entry {index} missing at size {size}")
        best = min(best, time.perf_counter() - started)
    return best / samples * 1e6


def _assert_exact(store, indexes: List[int]) -> None:
    for index in indexes:
        loaded = store.get(_key(index))
        expected = _value(index)
        assert loaded == expected, f"entry {index} diverged"
        for variable, value in loaded.values.items():
            assert isinstance(value, Fraction)
            assert value.numerator == expected.values[variable].numerator
            assert value.denominator == expected.values[variable].denominator


def run_benchmark(entries: int = None) -> str:
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    if entries is None:
        entries = 3_000 if smoke else int(
            os.environ.get("REPRO_BENCH_STORE_ENTRIES", "100000"))
    batch = max(100, min(2_000, entries // 10))
    max_flatness = 4.0 if smoke else 3.0
    rng = random.Random(20260808)

    with tempfile.TemporaryDirectory() as directory:
        # -- flush throughput + read ladder ----------------------------- #
        log = LogStore(os.path.join(directory, "log"),
                       max_entries=max(entries, 65_536),
                       auto_compact=False)
        sizes = sorted({max(1, entries // 10), entries // 2, entries})
        # Append throughput is size-independent, so each ladder segment
        # is an independent sample; take the best to shed transient I/O
        # stalls (page-cache writeback) that one long fill would absorb.
        segment_rates = []
        read_ladder: Dict[int, float] = {}
        filled = 0
        for size in sizes:
            seconds = _fill(log, filled, size, batch)
            segment_rates.append((size - filled) / seconds)
            filled = size
            read_ladder[size] = _point_read_us(
                log, size, min(200, size), rng)
        log_rate = max(segment_rates)
        flatness = read_ladder[sizes[-1]] / max(read_ladder[sizes[0]], 1e-9)
        _assert_exact(log, [rng.randrange(entries) for _ in range(100)])
        log_bytes = log.stats()["disk_bytes"]

        # -- warm restart: reopen pays one sequential scan -------------- #
        log.close()
        started = time.perf_counter()
        log = LogStore(os.path.join(directory, "log"),
                       max_entries=max(entries, 65_536),
                       auto_compact=False)
        restart_seconds = time.perf_counter() - started
        assert len(log) == entries, "restart lost entries"
        _assert_exact(log, [rng.randrange(entries) for _ in range(50)])

        # -- compaction: supersede a third, rewrite the survivors ------- #
        garbage_fraction = entries // 3
        _fill(log, 0, garbage_fraction, batch)  # re-puts: all garbage
        before_bytes = log.stats()["disk_bytes"]
        started = time.perf_counter()
        reclaimed = log.compact()
        compact_seconds = time.perf_counter() - started
        assert reclaimed > 0, "compaction reclaimed nothing"
        assert len(log) == entries
        _assert_exact(log, [rng.randrange(entries) for _ in range(50)])
        read_after_compact = _point_read_us(log, entries, 200, rng)
        log.close()

    assert flatness <= max_flatness, (
        f"point reads degraded {flatness:.1f}x from {sizes[0]} to "
        f"{sizes[-1]} entries (target <= {max_flatness}x)")

    emit_bench_json(
        "store_scale",
        workload=f"synthetic result corpus, {entries} distinct canonical "
                 "keys with exact Fraction payloads",
        ops_per_sec={
            "store.flush_entries_per_sec.log": round(log_rate, 1),
            "store.point_reads_per_sec": round(
                1e6 / read_ladder[sizes[-1]], 1),
            "store.warm_restart_entries_per_sec": round(
                entries / restart_seconds, 1),
        },
        metrics={
            "entries": entries,
            "batch": batch,
            "point_read_us_by_size": {
                str(size): round(value, 2)
                for size, value in read_ladder.items()},
            "point_read_flatness": round(flatness, 2),
            "point_read_us_after_compact": round(read_after_compact, 2),
            "warm_restart_ms": round(restart_seconds * 1000, 1),
            "compact_ms": round(compact_seconds * 1000, 1),
            "compact_reclaimed_bytes": reclaimed,
            "log_disk_bytes": log_bytes,
            "disk_bytes_before_compact": before_bytes,
        },
    )

    ladder = "  ".join(f"{size}: {value:6.2f}us"
                       for size, value in read_ladder.items())
    lines = [
        f"entries:               {entries} (batch {batch})",
        f"flush throughput:      {log_rate:10.0f} entries/s",
        f"point reads by size:   {ladder}",
        f"  flatness:            {flatness:.2f}x from smallest to full "
        f"(target <= {max_flatness}x)",
        f"warm restart:          {restart_seconds * 1000:8.1f} ms to "
        f"rebuild the index over {entries} entries "
        f"({entries / restart_seconds:.0f} entries/s)",
        f"compaction:            {compact_seconds * 1000:8.1f} ms, "
        f"reclaimed {reclaimed} of {before_bytes} bytes "
        f"({garbage_fraction} superseded records)",
        f"  reads after compact: {read_after_compact:6.2f}us",
        f"exactness:             sampled round-trips bit-identical "
        f"(Fraction numerator/denominator equality)",
    ]
    return "\n".join(lines)


def test_store_scale():
    report = run_benchmark()
    register_report("store_scale", report)


if __name__ == "__main__":
    print(run_benchmark())
