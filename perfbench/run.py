#!/usr/bin/env python3
"""Build the system benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The first call configures and builds `perfbench/` (which compiles the library
from `src/`) into `.bench_build/`; later calls only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. A traced run (`--trace 1`) also writes its spans to
`.bench_build/traces/<workload>-seed<seed>.json` (Chrome trace_event format).
The exit code is the benchmark's: 0 when every correctness gate held.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ingest", "recall", "library", "geo")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    make = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build()
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
