#!/usr/bin/env python3
"""Benchmark perf regression gate.

Compares a freshly produced benchmark JSON against the checked-in
baseline and fails (exit 1) when any gated metric dropped by more than
the threshold. Every gated metric is a same-machine same-run ratio
(reference work / fast-path work, serve fps / serial fps, on-time
fraction, ...), so it is largely machine-speed invariant and higher is
better — a drop means the fast path itself regressed.

Every gated bench writes one record shape (bench/bench_common.hpp,
write_bench_json):

  {"threads": N, <ungated run-level fields>...,
   "results": [
     {"key": {...}, "metrics": {"<name>": <number>, ...}, <info>...},
     ...]}

A record is identified by the canonical (sorted-key) form of its "key"
object; every entry of its "metrics" object gates independently; any
other member of a record (ref_ms, p99_ms, max_abs_diff, ...) is
information and ignored. Keys present only in the fresh run (newly
added records) are reported but do not gate; keys or metrics missing
from the fresh run fail the gate (a silently dropped bench must not pass
as "no regression"). Thread counts must match between baseline and
fresh run — extra fast-path threads would mask real regressions.

Malformed inputs (truncated/invalid JSON, a record without an object
"key" or a non-empty object "metrics", a non-numeric metric, a
duplicated key) are rejected with a message naming the file and record
index, and exit code 2 — never a raw traceback.

Usage: check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.20]
"""

import argparse
import json
import math
import sys


class BenchFormatError(Exception):
    """A benchmark JSON is malformed or not in the bench record shape."""


def _metric(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise BenchFormatError(
            f"{where} must be a finite number, got {json.dumps(value)}")
    return float(value)


def load(path):
    """Returns ({canonical key: {metric: value}}, threads)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise BenchFormatError(f"{path}: cannot read file: {e}") from None
    except json.JSONDecodeError as e:
        raise BenchFormatError(
            f"{path}: malformed JSON at line {e.lineno} column {e.colno}: "
            f"{e.msg}") from None
    if not isinstance(data, dict):
        raise BenchFormatError(
            f"{path}: top level must be a JSON object, got "
            f"{type(data).__name__}")
    threads = data.get("threads")
    if isinstance(threads, bool) or not isinstance(threads, int):
        raise BenchFormatError(
            f"{path}: top-level key 'threads' must be an integer, got "
            f"{json.dumps(threads)}")
    results = data.get("results")
    if not isinstance(results, list):
        raise BenchFormatError(
            f"{path}: missing required key 'results' (or it is not a "
            f"list) — not a benchmark output file?")
    out = {}
    for i, r in enumerate(results):
        where = f"{path}: results[{i}]"
        if not isinstance(r, dict) or not isinstance(r.get("key"), dict) \
                or not isinstance(r.get("metrics"), dict) \
                or not r["metrics"]:
            raise BenchFormatError(
                f"{where} is not a bench record (needs an object 'key' and "
                f"a non-empty object 'metrics'): {json.dumps(r)[:200]}")
        key = json.dumps(r["key"], sort_keys=True)
        if key in out:
            raise BenchFormatError(f"{where} repeats key {key}")
        out[key] = {name: _metric(value, f"{where} metric '{name}'")
                    for name, value in r["metrics"].items()}
    return out, threads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="maximum tolerated fractional metric drop")
    args = parser.parse_args()

    try:
        base, base_threads = load(args.baseline)
        fresh, fresh_threads = load(args.fresh)
    except BenchFormatError as e:
        print(f"bench gate input error: {e}", file=sys.stderr)
        return 2
    if base_threads != fresh_threads:
        print(f"thread-count mismatch: baseline ran with {base_threads} "
              f"threads, fresh run with {fresh_threads} — regenerate one "
              f"side (EVEDGE_THREADS pins the worker count)",
              file=sys.stderr)
        return 1

    failures = []
    print(f"{'key':<72} {'metric':<20} {'base':>9} {'fresh':>9} "
          f"{'ratio':>6}")
    for key in sorted(base):
        if key not in fresh:
            failures.append(f"missing from fresh run: {key}")
            continue
        for metric, b in sorted(base[key].items()):
            if metric not in fresh[key]:
                failures.append(f"missing metric {metric} for {key}")
                continue
            f = fresh[key][metric]
            ratio = f / b if b > 0 else float("inf")
            failed = ratio < 1.0 - args.threshold
            print(f"{key:<72} {metric:<20} {b:>9.4g} {f:>9.4g} "
                  f"{ratio:>6.2f}{'  FAIL' if failed else ''}")
            if failed:
                failures.append(
                    f"{key} {metric}: {b:.4g} -> {f:.4g} "
                    f"({(1.0 - ratio) * 100:.0f}% drop)")
    gated = sum(len(m) for m in base.values())
    new = sorted(set(fresh) - set(base))
    for key in new:
        for metric, f in sorted(fresh[key].items()):
            print(f"{key:<72} {metric:<20} {'new':>9} {f:>9.4g}")

    if failures:
        print("\nPERF REGRESSION GATE FAILED "
              f"(>{args.threshold * 100:.0f}% drop):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nperf gate OK: no metric dropped more than "
          f"{args.threshold * 100:.0f}% vs baseline "
          f"({gated} gated, {len(new)} new record(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
