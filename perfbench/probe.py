"""Set-up probe: what a user pays before the first op, in a fresh interpreter.

    python3 perfbench/probe.py --workload NAME --seed N [--primed DIR --store DIR]
    python3 perfbench/probe.py --prime DIR

The first form times ``import repro``, building the workload's inputs and
constructing its ``Engine``/``AttributionService`` (on ``serve-warm`` with
the warm-start load from a copy of the primed store), between calibration
slices, and prints one JSON object: the three times (raw seconds) and the
calibration factor that scales them.  The second form writes the primed
store ``serve-warm`` starts from.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from timing import median_slice, scale_factor  # noqa: E402  (no repro import)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--primed", default=None)
    parser.add_argument("--store", default=None)
    parser.add_argument("--prime", default=None, metavar="DIR")
    args = parser.parse_args(argv)

    if args.prime:
        import workloads

        workloads.prime(args.prime)
        print(json.dumps({"primed": args.prime}))
        return 0

    if args.store:
        shutil.copytree(args.primed, args.store)
    cal_before = median_slice()
    started = time.perf_counter()
    import repro  # noqa: F401

    imported = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, None,
                                                  args.primed)
    inputs = workload.inputs(0)
    built = time.perf_counter()
    handle = workload.construct(inputs, args.store)
    constructed = time.perf_counter()
    cal_after = median_slice()
    if args.store:
        workloads.close_store(handle[1])
    print(json.dumps({"import_s": imported - started,
                      "build_s": built - imported,
                      "construct_s": constructed - built,
                      "factor": scale_factor(cal_before, cal_after)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
