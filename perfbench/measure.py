"""The measuring process: run timed rounds, read peak RSS, then verify.

Started by ``run.py`` (one fresh interpreter per run, so ``peak_rss_mb``
is this workload's alone and the hash seed is the one ``run.py``
recorded)::

    python3 perfbench/measure.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR [--primed DIR] --result FILE [--spans FILE]

Untraced (``--trace 0``): whole rounds until ``--seconds`` have passed and
at least ten op latencies lie beyond the 95th percentile.  Traced (``--trace 1``): pairs of rounds
over the same inputs, the first untraced and the second with the wrappers
of ``tracing.py`` installed, until ``--seconds`` have passed.  The result
is one JSON document written to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import timing  # noqa: E402
from tracing import Tracer, aggregate, by_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-layer counts taken from the first traced round.
COUNT_METRICS = (
    "db.calls", "db.answers", "canonical.calls", "cache.artifact_hits",
    "store.reads", "store.writes", "store.flushes", "store.bytes_flushed",
    "store.retries", "artifact.decodes", "compile.calls",
    "compile.shannon_steps", "compile.incremental_steps", "arena.flattens",
    "kernels.sweeps", "kernels.fallbacks", "core.fallbacks",
    "ranking.refinement_rounds", "core.partial_results", "serve.errors",
)


class Outputs:
    """Op outputs kept for the check, one copy per distinct output per input.

    An op whose output repeats one already kept for the same input is
    checked by that equality; a different output is kept and checked on
    its own.  Kept outputs go to a file in the work directory, so the
    measuring process's memory does not grow with the number of ops.
    """

    def __init__(self, path: str) -> None:
        self.records = []
        self.bodies = {}  # (context, digest) -> (offset, length)
        self.spill = open(path, "w+b")

    def add(self, context: str, encoded: str) -> None:
        data = encoded.encode()
        digest = hashlib.sha1(data).digest()
        if (context, digest) not in self.bodies:
            self.bodies[(context, digest)] = (self.spill.tell(), len(data))
            self.spill.write(data)
        self.records.append((context, digest, None))

    def body(self, key) -> str:
        offset, length = self.bodies[key]
        self.spill.seek(offset)
        return self.spill.read(length).decode()

    def add_error(self, context: str, error: BaseException) -> None:
        self.records.append((context, None,
                             f"raised {type(error).__name__}: {error}"))

    def failures(self, workload) -> list:
        verdicts = {}
        failed = []
        for context, digest, reason in self.records:
            if reason is None:
                key = (context, digest)
                if key not in verdicts:
                    try:
                        verdicts[key] = workload.verify(context,
                                                        self.body(key))
                    except Exception as error:  # a crashing check fails the op
                        verdicts[key] = (f"check raised "
                                         f"{type(error).__name__}: {error}")
                reason = verdicts[key]
            if reason is not None:
                failed.append((context, reason))
        self.spill.close()
        return failed


def run_round(workload, index: int, clock: timing.OpClock, outputs: Outputs,
              tracer: Tracer = None, factors: dict = None) -> dict:
    """Run round ``index``; returns the program's counters for it."""
    current = workload.round(index)
    if tracer is None:
        current.start()
    else:
        before = timing.calibration_slice()
        tracer.root(f"setup-{index}", "setup", current.start)
        factors[f"setup-{index}"] = timing.scale_factor(
            before, timing.calibration_slice())
    try:
        for number, (context, call) in enumerate(current.ops()):
            op_id = f"{index}:{number}"
            if tracer is not None:
                call = partial(tracer.root, op_id, "op", call)
            try:
                result = clock.time(call)
            except Exception as error:
                outputs.add_error(context, error)
            else:
                outputs.add(context, workload.encode(context, result))
            if tracer is not None:
                factors[op_id] = clock.last_factor
        return current.counters()
    finally:
        current.close()


def layer_metrics(rows: dict, counts, counters: dict) -> dict:
    """The per-layer metrics of one traced round."""
    layers = by_layer(rows)

    def calls(*names):
        return sum(rows[name]["calls"] for name in names if name in rows)

    def self_s(name):
        return rows[name]["self_s"] if name in rows else 0.0

    lookups = (counters["cache_hits"] + counters["store_hits"]
               + counters["cache_misses"])
    metrics = {
        "db.calls": calls("lineage_of_answers"),
        "db.answers": counts["db.answers"],
        "canonical.calls": calls("canonicalize"),
        "cache.result_hit_ratio": (counters["cache_hits"] / lookups
                                   if lookups else 0.0),
        "cache.artifact_hits": counters["artifact_hits"],
        "store.reads": counts["store.reads"],
        "store.writes": counts["store.writes"],
        "store.flushes": counts["store.flushes"],
        "store.bytes_flushed": counters.get("bytes_flushed", 0),
        "store.retries": counters["store_retries"],
        "artifact.decodes": calls("decode_artifact"),
        "artifact.decode_s": self_s("decode_artifact"),
        "artifact.encode_s": self_s("encode_artifact"),
        "compile.calls": calls("compile_dnf", "complete_compilation"),
        "compile.shannon_steps": counts["compile.shannon_steps"],
        "compile.incremental_steps": calls("IncrementalCompiler.expand_step"),
        "arena.flattens": calls("DTreeArena.from_tree"),
        "arena.flatten_s": self_s("DTreeArena.from_tree"),
        "kernels.sweeps": counters["kernel_sweeps"],
        "kernels.fallbacks": counters["kernel_fallbacks"],
        "core.fallbacks": counters["fallbacks"],
        "ranking.refinement_rounds": counters["refinement_rounds"],
        "core.partial_results": counters["partial_results"],
        "serve.errors": counters.get("request_errors", 0),
    }
    for layer in ("db", "canonical", "store", "compile", "exaban", "adaban",
                  "ranking", "serve", "engine"):
        metrics[f"{layer}.self_s"] = layers.get(layer, {}).get("self_s", 0.0)
    return metrics


def enough_tail(samples) -> bool:
    """Whether at least ten op latencies lie beyond the 95th percentile."""
    return (len(samples) >= 20 and timing.latency_summary(
        [sample[1] for sample in samples])["beyond_p95"] >= 10)


def summarize(samples) -> dict:
    scaled = [sample[1] for sample in samples]
    raw = [sample[0] for sample in samples]
    summary = timing.latency_summary(scaled)
    raw_summary = timing.latency_summary(raw)
    return {"scaled": summary, "raw": raw_summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--primed", default=None)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work, args.primed)
    clock = timing.OpClock()
    traced_clock = timing.OpClock() if args.trace else None
    outputs = Outputs(os.path.join(args.work, "outputs.bin"))
    traced = []  # (tracer, factors, counters) per traced round
    gc.collect()
    started = time.perf_counter()
    index = 0
    while True:
        run_round(workload, index, clock, outputs)
        if args.trace:
            gc.collect()
            tracer, factors = Tracer(), {}
            tracer.install()
            try:
                counters = run_round(workload, index, traced_clock, outputs,
                                     tracer, factors)
            finally:
                tracer.uninstall()
            traced.append((tracer, factors, counters))
        index += 1
        gc.collect()
        if time.perf_counter() - started >= args.seconds and (
                args.trace or enough_tail(clock.samples)):
            break
    timed_s = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux: read before any checking work runs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verify_started = time.perf_counter()
    failures = outputs.failures(workload)
    verify_s = time.perf_counter() - verify_started
    attempted = len(outputs.records)
    calibrations = clock.calibrations()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": index,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "timed_s": timed_s,
        "verify_s": verify_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": (attempted - len(failures)) / attempted,
        "calibration": {"min_s": min(calibrations),
                        "median_s": statistics.median(calibrations),
                        "count": len(calibrations)},
        "untraced": summarize(clock.samples),
    }
    if args.trace:
        result["traced"] = summarize(traced_clock.samples)
        result["trace_overhead"] = (result["untraced"]["scaled"]["ops_per_s"]
                                    / result["traced"]["scaled"]["ops_per_s"])
        round_rows = [aggregate(tracer.spans, factors)
                      for tracer, factors, _ in traced]
        per_round = [layer_metrics(rows, tracer.counts, counters)
                     for rows, (tracer, _, counters) in zip(round_rows, traced)]
        result["layers"] = {
            name: (per_round[0][name] if name in COUNT_METRICS
                   else statistics.median(r[name] for r in per_round))
            for name in per_round[0]}
        totals = {}
        for rows in round_rows:
            for name, row in rows.items():
                total = totals.setdefault(name, dict(row, calls=0,
                                                     total_s=0.0, self_s=0.0))
                for field in ("calls", "total_s", "self_s"):
                    total[field] += row[field]
        result["table"] = {"rounds": len(traced), "rows": totals}
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                for span in traced[0][0].spans:
                    handle.write(json.dumps(span) + "\n")
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
