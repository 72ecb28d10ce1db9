#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, across seeds.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--seconds S]

Runs perfbench/run.py once per seed (1..runs, or --first-seed on) and
prints, per end-to-end metric, the median over runs and the distance
between the first and third quartiles as a share of that median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A spread should stay below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    detail = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
        lines = lines.strip().splitlines()
        result = json.loads(lines[-1])
        if result["failed"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        for name, m in json.loads(lines[-2])["detail"]["metrics"].items():
            if m["value"] is not None:
                detail.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)
    print("end-to-end (spread = IQR / median over runs):")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
        print(f"  {name:<16} median {med:<12.6g} spread {spread:6.3f}  bound {bounds[name]}{flag}")
    print("detail (not gated):")
    for name, vs in detail.items():
        if len(vs) == len(values["setup_s"]) and statistics.median(vs):
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            print(f"  {name:<16} median {med:<12.6g} spread {(q3 - q1) / med:6.3f}")


if __name__ == "__main__":
    main()
