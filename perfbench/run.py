#!/usr/bin/env python3
"""Builds and runs the attributed serving benchmark (see README.md).

    python3 perfbench/run.py [--workload <name>|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark is built from source into
.bench_build/perfbench (CMake, Release), then evbench runs the workload.
Its output is passed through; the last line of stdout is the JSON result.
The metric names in that result are checked against BENCHMARK.json
(end_to_end with --trace 0, per_layer with --trace 1). --workload all
(the default) runs every workload in turn and fails if any one fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["dotie-paced-4cam", "spikenet-davis-sat", "dotie-wire-2link"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds evbench; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "evbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"perfbench: build step failed: {exc}")
            return None
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(BUILD_DIR, "evbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode (None if absent)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        out = exc.stdout or ""
        return 1, out if isinstance(out, str) else out.decode()
    return done.returncode, done.stdout


def check_result(stdout, trace):
    """The last line must be the result object naming exactly the
    metrics BENCHMARK.json lists for this mode."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    got = set(result["metrics"])
    want = expected_metrics(trace)
    if want is None:
        return "BENCHMARK.json missing or unreadable"
    if got != want:
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(want - got)}, extra {sorted(got - want)}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        code, stdout = run_one(binary, workload, args.seed, args.seconds,
                               args.trace)
        problem = check_result(stdout, args.trace) if code == 0 else None
        sys.stdout.write(stdout)
        sys.stdout.flush()
        if code != 0 or problem:
            log(f"perfbench: {workload} failed"
                + (f": {problem}" if problem else f" (exit {code})"))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
