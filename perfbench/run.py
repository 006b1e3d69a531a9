"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload queries-cold --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory (pure Python, nothing to build).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every run also
appends one row to ``perfbench/results/run_table.jsonl`` (see
RUN_TABLE.md).  Exits 2 without a result when the program's source is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import by_layer  # imports nothing from the program

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("queries-cold", "serve-warm", "lineages-hard")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7

#: Every child must end before the run's 180 s limit.
RUN_BUDGET_S = 170.0


class Budget:
    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def run(self, command, env) -> str:
        """Run a child to completion; returns its stdout or raises."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run budget exhausted")
        completed = subprocess.run(command, env=env, cwd=ROOT,
                                   capture_output=True, text=True,
                                   timeout=remaining)
        if completed.returncode != 0:
            raise RuntimeError(f"{os.path.basename(command[1])} failed "
                               f"({completed.returncode}):\n"
                               f"{completed.stderr[-4000:]}")
        return completed.stdout


def metric_units(kind: str) -> dict:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        return {metric["name"]: metric["unit"] for metric in json.load(h)[kind]}


def python_versions() -> dict:
    versions = {"python": platform.python_version()}
    try:
        import numpy
        versions["numpy"] = numpy.__version__
    except ImportError:
        versions["numpy"] = None
    return versions


def setup_metrics(probes: list) -> dict:
    """``setup_s`` and its parts, as medians over the probes.

    Each probe's set-up is scaled by the calibration slices it ran just
    before and after (see timing.py); the raw median is kept beside it.
    """
    scaled, raw = [], []
    for probe in probes:
        seconds = probe["import_s"] + probe["build_s"] + probe["construct_s"]
        raw.append(seconds)
        scaled.append(seconds * probe["factor"])
    return {
        "setup_s": statistics.median(scaled),
        "setup_raw_s": statistics.median(raw),
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "setup.build_s": statistics.median(p["build_s"] for p in probes),
        "setup.construct_s": statistics.median(p["construct_s"]
                                               for p in probes),
    }


def print_table(workload: str, result: dict) -> None:
    table = result["table"]
    layers = by_layer(table["rows"])
    roots = sum(layers[name]["total_s"] for name in ("op", "setup")
                if name in layers)
    print(f"# {workload}: per-layer time over {table['rounds']} traced "
          f"round(s), scaled seconds; share = self / (op + setup) time")
    print(f"# {'layer':<10} {'calls':>9} {'total_s':>10} {'self_s':>10} "
          f"{'share':>7}")
    for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"# {layer:<10} {row['calls']:>9} {row['total_s']:>10.4f} "
              f"{row['self_s']:>10.4f} {row['self_s'] / roots:>7.1%}")
    print(f"# tracing overhead: untraced / traced ops_per_s = "
          f"{result['trace_overhead']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    hash_seed = (os.environ.get("PYTHONHASHSEED")
                 or str(random.SystemRandom().randrange(1, 2 ** 32)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    budget = Budget()
    seed = str(args.seed)
    try:
        primed = None
        if args.workload == "serve-warm":
            primed = os.path.join(work, "primed")
            budget.run([sys.executable, os.path.join(HERE, "probe.py"),
                        "--prime", primed], env)
        probes = []
        for number in range(SETUP_PROBES):
            command = [sys.executable, os.path.join(HERE, "probe.py"),
                       "--workload", args.workload, "--seed", seed]
            if primed is not None:
                command += ["--primed", primed, "--store",
                            os.path.join(work, f"probe-{number}")]
            probes.append(json.loads(budget.run(command, env)))
        setup = setup_metrics(probes)

        result_path = os.path.join(work, "result.json")
        spans_name = f"spans-{args.workload}-seed{seed}.jsonl"
        command = [sys.executable, os.path.join(HERE, "measure.py"),
                   "--workload", args.workload, "--seed", seed,
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work", work, "--result", result_path]
        if primed is not None:
            command += ["--primed", primed]
        if args.trace:
            command += ["--spans", os.path.join(RESULTS, spans_name)]
        budget.run(command, env)
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scaled = result["untraced"]["scaled"]
    e2e = {"setup_s": setup["setup_s"],
           "ops_per_s": scaled["ops_per_s"],
           "latency_p50_ms": scaled["latency_p50_ms"],
           "latency_p95_ms": scaled["latency_p95_ms"],
           "peak_rss_mb": result["peak_rss_mb"],
           "ok_share": result["ok_share"]}
    row = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "hash_seed": hash_seed,
        **python_versions(), "cpu_count": os.cpu_count(),
        "attempted": result["attempted"], "failed": result["failed"],
        "rounds": result["rounds"],
        **e2e,
        "setup_raw_s": setup["setup_raw_s"],
        "ops_per_s_raw": result["untraced"]["raw"]["ops_per_s"],
        "latency_p50_ms_raw": result["untraced"]["raw"]["latency_p50_ms"],
        "latency_p95_ms_raw": result["untraced"]["raw"]["latency_p95_ms"],
        "beyond_p95": scaled["beyond_p95"],
        "cal_min_s": result["calibration"]["min_s"],
        "cal_median_s": result["calibration"]["median_s"],
        "cal_count": result["calibration"]["count"],
        "timed_s": result["timed_s"], "verify_s": result["verify_s"],
        "setup.import_s": setup["setup.import_s"],
        "setup.build_s": setup["setup.build_s"],
        "setup.construct_s": setup["setup.construct_s"],
        "failures": result["failures"],
    }
    if args.trace:
        layers = dict(result["layers"],
                      **{"setup.import_s": setup["setup.import_s"],
                         "setup.build_s": setup["setup.build_s"],
                         "trace.overhead": result["trace_overhead"]})
        row["layers"] = layers
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
        print_table(args.workload, result)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    with open(os.path.join(RESULTS, "run_table.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")

    print(f"# {args.workload} seed={seed} hash_seed={hash_seed}: "
          f"{result['attempted']} ops in {result['rounds']} round(s), "
          f"{scaled['beyond_p95']} beyond p95, {result['failed']} failed; "
          f"timed {result['timed_s']:.1f} s, checked {result['verify_s']:.1f} s")
    for context, reason in result["failures"]:
        print(f"# FAILED {context}: {reason}")
    if not args.trace:
        for name, metric in metrics.items():
            print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
