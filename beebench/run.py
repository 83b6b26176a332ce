#!/usr/bin/env python3
"""The beesim benchmark: one command, each workload in its own process.

Run from the root of a checkout:

    python3 beebench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0
    python3 beebench/run.py                      # every workload, end-to-end

The first run configures and builds the library and the harness (Release)
into .bench_build/ under the checkout; later runs rebuild incrementally.
With --workload, the last line of standard output is the run's JSON result
({"correct", "attempted", "failed", "metrics"}). Without it, every workload
runs in turn and a table of every metric with its unit is printed; the exit
code is 1 if any workload's correctness checks failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "beebench")
BINARY = os.path.join(BUILD, "beebench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ["serve-hot", "serve-cold", "clip-infer", "fleet-campaign"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness; raises on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = [os.path.join(BUILD, f) for f in ("Makefile",
                                                       "build.ninja")]
        if not any(os.path.exists(f) for f in generated):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "beebench", "-j",
             str(min(4, os.cpu_count() or 1))],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (stdout lines, result)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(TRACES, workload + ".tsv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    return lines, json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    return [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed window (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"beebench: build failed: {e}", file=sys.stderr)
        return 2

    seconds = args.seconds or spec()["run_seconds"]
    workloads = [args.workload] if args.workload else WORKLOADS
    expected = expected_metrics(args.trace)
    ok = True
    results = {}
    for workload in workloads:
        try:
            lines, result = run_workload(workload, args.seed, seconds,
                                         args.trace)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            print(f"beebench: {e}", file=sys.stderr)
            return 1
        if sorted(result["metrics"]) != sorted(expected):
            print(f"beebench: {workload} reported metrics that differ from "
                  "BENCHMARK.json", file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        results[workload] = result
        if args.workload:
            print("\n".join(lines))
            return 0

    # Every workload: one table, metric by metric.
    print(f"{'metric':<36} {'unit':<8} " +
          " ".join(f"{w:>16}" for w in workloads))
    for name in expected:
        unit = results[workloads[0]]["metrics"][name]["unit"]
        cells = " ".join(f"{results[w]['metrics'][name]['value']:>16.6g}"
                         for w in workloads)
        print(f"{name:<36} {unit:<8} {cells}")
    for w in workloads:
        r = results[w]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
