#!/usr/bin/env python3
"""Layered end-to-end benchmark of overiva's separate_file path.

    python3 perfbench/run.py --workload extract1-ip2 --seed 0 --seconds 10 --trace 0

Run from the repository root. The benchmark renders its scenes from
--seed, writes each mixture as a WAV file, and calls
`overiva.pipeline.separate_file` on it in a closed loop: one client, the
next call starting when the previous one returns. Every call's outputs
are checked. With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (see README.md). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details
(environment, per-call times, image hashes, check failures), which are
also written under .perfbench_work/results/.
"""

import argparse
import json
import os
import sys
import time

_START = time.perf_counter()

# Pin BLAS to one thread before numpy loads, so threads=N in the solver
# means N threads in total.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import workloads

    try:
        workload = workloads.get(args.workload)
    except KeyError:
        sys.exit(f"unknown workload {args.workload!r}")
    import bench

    import_s = time.perf_counter() - _START
    result = bench.run(workload, args.seed, args.seconds, bool(args.trace), import_s)
    results_dir = os.path.join(bench.WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{workload.name}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"detail": result["detail"]}))
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
