"""Steadiness self-check: run one workload several times and report spreads.

    python3 perfbench/steady.py --workload serve-warm --runs 10 [--first-seed 1]
        [--seconds S] [--traced 4]

Untraced runs use seeds ``first-seed .. first-seed + runs - 1``; for each
end-to-end metric it prints the median, the quartiles, the range, and the
quartile distance as a share of the median next to the metric's bound
(``steady`` below a third of it).  Then ``--traced`` traced runs with one
seed but ``PYTHONHASHSEED`` 1, 2, ... list which per-layer counts repeated
exactly.  A count that moves with the hash seed cannot back a
count-based claim; the ones known to do so are marked with the reason.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Counts known to depend on the hash seed, with the cause.
_PICK_LEAF = ("IncrementalCompiler.pick_leaf (src/repro/dtree/incremental.py) "
              "breaks priority ties in set iteration order")
KNOWN_UNSTABLE = {"ranking.refinement_rounds": _PICK_LEAF,
                  "compile.incremental_steps": _PICK_LEAF}


def run(workload: str, seed: int, seconds: float, trace: int,
        env=None) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True)
    result = json.loads(completed.stdout.splitlines()[-1])
    if not result["correct"]:
        print(completed.stdout, end="")
    return result


def spread_report(values, bound: float) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / median if median else 0.0
    verdict = ("steady" if iqr <= bound / 3 else
               "within bound" if iqr <= bound else "NOISY")
    return (f"median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"range {min(values):.6g}..{max(values):.6g} "
            f"({(max(values) - min(values)) / median:.1%})  "
            f"iqr {iqr:.1%} of bound {bound:.0%}: {verdict}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        benchmark = json.load(h)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--traced", type=int, default=4)
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in benchmark["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        metrics = run(args.workload, seed, args.seconds, 0)["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={metrics[name]['value']:.5g}" for name in values),
            flush=True)
    if args.runs >= 2:
        print(f"\n{args.workload}: {args.runs} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        for metric in benchmark["end_to_end"]:
            print(f"  {metric['name']:<15} "
                  f"{spread_report(values[metric['name']], metric['bound'])}")

    if args.traced >= 2:
        counts = [m["name"] for m in benchmark["per_layer"]
                  if m["unit"] in ("count", "B")]
        readings = []
        for hash_seed in range(1, args.traced + 1):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
            metrics = run(args.workload, args.first_seed, args.seconds, 1,
                          env)["metrics"]
            readings.append({name: metrics[name]["value"] for name in counts})
        print(f"\nper-layer counts over {args.traced} traced runs, seed "
              f"{args.first_seed}, PYTHONHASHSEED 1..{args.traced}:")
        for name in counts:
            seen = [reading[name] for reading in readings]
            note = ""
            if len(set(seen)) > 1:
                note = ("  MOVES - unusable for count-based claims"
                        + (f" ({KNOWN_UNSTABLE[name]})"
                           if name in KNOWN_UNSTABLE else ""))
            print(f"  {name:<28} {' '.join(str(v) for v in seen)}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
