"""Regenerate the reference figures of perfbench/README.md.

Usage, from the root of a checkout:

    python3 perfbench/reference.py [--seeds 1-10] [--sets 2] [--traced 2]

Makes --sets sets of untraced runs of every workload of BENCHMARK.json, at
its run_seconds: the first set with the seeds given, each later set with
the next seeds of as many.  Sets run one after the other, so they sample
the machine at different times.  For each set and end-to-end metric it
prints the median over the runs, the spread (the distance between the first
and third quartiles as a share of the median, as statistics.quantiles(n=4)
gives them) and how much worse the median is than the first set's, as a
share of it.  Then it makes --traced traced runs per workload and prints
every per-layer figure and whether the counts agree.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         cwd=BENCH.parent)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--traced", type=int, default=2)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    lo, hi = int(lo), int(hi or lo)
    size = hi - lo + 1
    workloads = [w["name"] for w in SPEC["workloads"]]
    first = {}
    for k in range(args.sets):
        seeds = range(lo + k * size, hi + k * size + 1)
        for workload in workloads:
            results = [run(workload, seed, 0) for seed in seeds]
            share = sorted({(r["failed"], r["attempted"]) for r in results})
            correct = all(r["correct"] for r in results)
            print(f"set {k + 1}, seeds {seeds[0]}-{seeds[-1]}, {workload}: "
                  f"correct {correct}, (failed, attempted) {share}", flush=True)
            for metric in SPEC["end_to_end"]:
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                base = first.setdefault((workload, name), med)
                print(f"  {name}: median {med:.4f} {metric['unit']}, spread "
                      f"{(q3 - q1) / med:.3f}, worse than set 1 by "
                      f"{(med - base) / base:+.3f} (bound {metric['bound']})",
                      flush=True)
    for workload in workloads:
        traced = [run(workload, lo + i, 1) for i in range(args.traced)]
        same = all(t["metrics"][c] == traced[0]["metrics"][c]
                   for t in traced for c in tracer.COUNTS)
        print(f"{workload}: {len(traced)} traced runs, correct "
              f"{all(t['correct'] for t in traced)}, counts identical: {same}")
        for name in traced[0]["metrics"]:
            values = [t["metrics"][name]["value"] for t in traced]
            print(f"    {name}: {values}")


if __name__ == "__main__":
    main()
