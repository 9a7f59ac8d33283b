#!/usr/bin/env python3
"""Build the benchmark and the daemon from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

Workloads: solve-cold, failure-sweep, serve-mixed. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Build output goes to standard error. Everything the run
leaves behind (build tree, daemon stores, trace files) is under
.bench_build/.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("solve-cold", "failure-sweep", "serve-mixed")
BUILD_DIR = ".bench_build"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("bin", "dcn_served.ml")):
        if not os.path.exists(need):
            sys.exit(f"run.py: {need} not found; run from the root of the repository")

    # The shared dune cache lives outside the checkout: keep it off.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/bench.exe", "./bin/dcn_served.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        sys.exit(f"run.py: build failed ({build.returncode})")

    out = os.path.join(BUILD_DIR, "run")
    os.makedirs(out, exist_ok=True)
    bench = subprocess.run(
        [os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--served", os.path.join(BUILD_DIR, "default", "bin", "dcn_served.exe"),
         "--out", out])
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
