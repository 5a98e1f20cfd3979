#!/usr/bin/env python3
"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 0-9 [--workloads a,b] [--trace 0|1|both]

Run from the repository root. Each (workload, seed, trace) is one fresh
`run.py` process, run one after another so that runs do not compete for
the cores. For every metric it prints the median over seeds and the
distance between the first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`), the spread that BENCHMARK.json's
bounds are checked against. The raw results go to
.perfbench_work/sweep.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", type=parse_seeds)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = p.parse_args(argv)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for trace in traces:
        for workload in args.workloads.split(","):
            runs = []
            for seed in args.seeds:
                out = run_one(workload, seed, args.seconds, trace)
                runs.append(out)
                results.append({"workload": workload, "seed": seed, "trace": trace, **out})
            bad = [r for r in runs if not r["correct"] or r["failed"]]
            print(f"{workload} trace={trace}: {len(runs)} runs, {len(bad)} not correct")
            for name, first in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                line = f"  {name:48s} {statistics.median(values):12.6g} {first['unit']}"
                if len(values) >= 2 and statistics.median(values) != 0:
                    line += f"  IQR/median {spread(values):.4f}"
                    if name in bounds:
                        line += f" (bound {bounds[name]})"
                print(line, flush=True)
    out_dir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.json"), "w") as fh:
        json.dump(results, fh, indent=1)


if __name__ == "__main__":
    main()
