#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on each workload and prints, per metric,
the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads serve_hot,chain_batch]
        [--out results.jsonl]

It runs the command named in BENCHMARK.json; --out appends every result
line, tagged with its workload and seed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command = bench["command"]
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in bench["workloads"]
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = open(args.out, "a") if args.out else None
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in seed_list(args.seeds):
            cmd = command + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            if proc.returncode != 0 or not result.get("correct"):
                sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                out.flush()
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(seed_list(args.seeds))} seeds)")
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER 1/3 OF BOUND" if spread > bound / 3 else ""
            print(f"  {name:16s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
