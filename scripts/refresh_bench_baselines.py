#!/usr/bin/env python3
"""Regenerate the checked-in BENCH_*.json baselines from a bench run.

The perf regression gate (check_bench_regression.py) compares fresh CI
runs against the baselines committed at the repo root. Whenever a change
legitimately moves a ratio — a kernel gets faster, a shared helper used
by a bench's *reference* side speeds up, a new bench is added — the
baselines must be re-recorded, at the same pinned thread counts the CI
gates use. This script runs each bench binary with its canonical
EVEDGE_THREADS setting and copies the result over the checked-in file
(also addressing the ROADMAP caveat that the 4-thread BENCH_kernels_mt
baseline goes stale relative to the machine that records it: rerun
this wherever the gate runs).

Usage:
    scripts/refresh_bench_baselines.py [--build-dir build]
        [--repo-root .] [--only kernels,kernels_mt,...] [--dry-run]

Baselines and their recording configuration:
    kernels        bench_kernels        EVEDGE_THREADS=1
    kernels_mt     bench_kernels        EVEDGE_THREADS=4
    quant          bench_quant          EVEDGE_THREADS=1
    sparse_engine  bench_sparse_engine  EVEDGE_THREADS=1
    serve          bench_serve          EVEDGE_THREADS=2 (worker budget
                   is pinned inside the bench; the env value only has to
                   match the recorded "threads" field)
    obs            bench_obs            EVEDGE_THREADS=2 (same: the
                   bench pins its own worker budget)

Every bench doubles as a parity smoke test and exits non-zero on
numerical failure, in which case the baseline is left untouched.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

BASELINES = {
    "kernels": ("bench_kernels", "BENCH_kernels.json", 1),
    "kernels_mt": ("bench_kernels", "BENCH_kernels_mt.json", 4),
    "quant": ("bench_quant", "BENCH_quant.json", 1),
    "sparse_engine": ("bench_sparse_engine", "BENCH_sparse_engine.json", 1),
    "serve": ("bench_serve", "BENCH_serve.json", 2),
    "obs": ("bench_obs", "BENCH_obs.json", 2),
}


def refresh(name, build_dir, repo_root, dry_run):
    binary, baseline, threads = BASELINES[name]
    bench = os.path.join(build_dir, binary)
    if not os.path.exists(bench):
        print(f"[{name}] SKIP: {bench} not built", file=sys.stderr)
        return False
    target = os.path.join(repo_root, baseline)
    env = dict(os.environ, EVEDGE_THREADS=str(threads))
    with tempfile.TemporaryDirectory() as tmp:
        fresh = os.path.join(tmp, baseline)
        print(f"[{name}] {binary} (EVEDGE_THREADS={threads}) -> {baseline}")
        proc = subprocess.run([bench, fresh], env=env)
        if proc.returncode != 0:
            print(f"[{name}] FAILED: bench exited {proc.returncode} "
                  f"(parity failure?) — baseline untouched", file=sys.stderr)
            return False
        # Sanity: the output must parse and carry the pinned thread count.
        with open(fresh) as f:
            data = json.load(f)
        if int(data.get("threads", -1)) != threads:
            print(f"[{name}] FAILED: recorded threads="
                  f"{data.get('threads')} != {threads}", file=sys.stderr)
            return False
        if dry_run:
            print(f"[{name}] dry run: would replace {target}")
        else:
            shutil.move(fresh, target)
            print(f"[{name}] wrote {target} "
                  f"({len(data.get('results', []))} records)")
    return True


def main():
    parser = argparse.ArgumentParser(
        description="Regenerate checked-in BENCH_*.json baselines")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--repo-root",
                        default=os.path.dirname(
                            os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--only",
                        help="comma-separated subset of: " +
                             ", ".join(BASELINES))
    parser.add_argument("--dry-run", action="store_true",
                        help="run benches but do not replace baselines")
    args = parser.parse_args()

    names = list(BASELINES)
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in BASELINES]
        if unknown:
            parser.error(f"unknown baseline(s): {', '.join(unknown)}")

    ok = True
    for name in names:
        ok = refresh(name, args.build_dir, args.repo_root,
                     args.dry_run) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
