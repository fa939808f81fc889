#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads mix,src2-gc]
        [--seconds 20] [--trace-seed 1] [--out perfbench/baseline.json]

Run from the repository root. For every workload it runs
perfbench/run.py once per seed with --trace 0 and prints, per
end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4) and the spread: the inter-quartile distance as a share of the
median, the figure BENCHMARK.json's bounds are set against. With
--trace-seed it adds one --trace 1 run per workload for the per-layer
metrics. --out writes everything as JSON. Exits 1 if any run fails or
reports correct: false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mix", "zipf-read", "src2-gc", "src2-dftl")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n"
                           + done.stdout)
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    try:
        for workload in args.workloads.split(","):
            values, units = {}, {}
            for seed in seeds:
                result = run(workload, seed, args.seconds, 0)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            entry = {"end_to_end": {}}
            print(f"{workload}: {len(seeds)} seeds")
            for name, v in values.items():
                s = summarise(v)
                s["unit"] = units[name]
                entry["end_to_end"][name] = s
                print(f"  {name:18s} median {s['median']:<14.6g} "
                      f"q1 {s['q1']:<14.6g} q3 {s['q3']:<14.6g} "
                      f"spread {s['spread']:.4f} {units[name]}")
            if args.trace_seed is not None:
                result = run(workload, args.trace_seed, args.seconds, 1)
                entry["per_layer"] = {
                    "seed": args.trace_seed,
                    "metrics": {n: m for n, m in result["metrics"].items()}}
            report["workloads"][workload] = entry
    except RuntimeError as err:
        print(f"steadiness: {err}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
