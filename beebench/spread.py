#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 beebench/spread.py --workloads serve-hot,clip-infer --seeds 1-10
    python3 beebench/spread.py --save set1.json
    python3 beebench/spread.py --against set1.json

Runs `run.py --workload W --seed S` once per (workload, seed), each in its
own process, and prints per metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the interquartile range as
a share of the median, next to the metric's bound in BENCHMARK.json. A
gated metric is flagged "ok" when its spread is under a third of its bound.

--save writes every run's metrics to a file; --against compares this set's
medians with a saved set and flags a metric that got worse by more than
its bound. The exit code is 1 if a run failed its checks or a metric got
worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-hot", "serve-cold", "clip-infer", "fleet-campaign"]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    lines = out.stdout.splitlines()
    for line in lines:
        if "CHECK FAILED" in line:
            print(f"  seed {seed}: {line.strip()}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--verbose", action="store_true",
                        help="print every run's value")
    parser.add_argument("--save", help="write every run's metrics here")
    parser.add_argument("--against",
                        help="compare medians with a set saved by --save")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    gated = {m["name"]: m for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    saved = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, seconds)
                for s in parse_seeds(args.seeds)]
        ok = ok and all(r["correct"] for r in runs)
        saved[workload] = runs
        print(f"{workload}: {len(runs)} runs, correct "
              f"{sum(r['correct'] for r in runs)}/{len(runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = gated[name]["bound"] if name in gated else None
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else (
                    "WIDE" if spread > bound else "over 1/3 bound")
            print(f"  {name:<36} median {med:<14.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.3f} "
                  f"bound {bound if bound is not None else '-'} {flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in values))
            if bound is not None and workload in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload])
                change = med / before - 1.0
                worse = (change if gated[name]["better"] == "lower"
                         else -change)
                ok = ok and worse <= bound
                print(f"      vs saved set: median {before:.6g} -> "
                      f"{med:.6g} ({change:+.3f}) "
                      f"{'WORSE THAN BOUND' if worse > bound else 'ok'}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
