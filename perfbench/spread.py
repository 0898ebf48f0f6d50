#!/usr/bin/env python3
"""Run the benchmark once per seed and report, for every metric, the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. End-to-end
spreads are checked against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload ring64 --seeds 1-10 --out a.json
    python3 perfbench/spread.py --workload ring64 --seeds 1-10 --against a.json

--against compares this set's medians with an earlier set's: a metric
fails when it got worse by more than its bound. Run from the repository
root; every run goes through the BENCHMARK.json command.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect\n{proc.stdout}")
    return result, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write the per-seed metric values here")
    ap.add_argument("--against", help="an earlier --out file to compare medians with")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    values = {s["name"]: [] for s in specs}
    for seed in seeds_of(args.seeds):
        result, wall = run(bench, args.workload, seed, args.trace)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {wall:.1f} s wall, attempted {result['attempted']}", flush=True)
    earlier = json.load(open(args.against)) if args.against else None
    ok = True
    print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for s in specs:
        vs = values[s["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
        bound = s.get("bound")
        flag = ""
        if bound is not None and s["name"] != "setup_s" and spread > bound:
            flag, ok = " SPREAD", False
        if earlier is not None and bound is not None:
            before = statistics.median(earlier[s["name"]])
            worse = (med - before) if s["better"] == "lower" else (before - med)
            if before and worse / before > bound:
                flag, ok = flag + f" WORSE {worse / before:+.3f}", False
        b = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{s['name']:38} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
