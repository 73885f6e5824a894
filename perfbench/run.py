#!/usr/bin/env python3
"""Builds the streamhull benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fleet_tick [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout. The first call configures and
builds the library, the streamhulld daemon and the benchmark binary into
.bench_build/perfbench (later calls only rebuild what changed). Build output
goes to stderr; the benchmark's report goes to stdout and its last line is
one JSON object. The exit code is the benchmark's: non-zero when the build
fails, a check fails, or the run is still invalid after its attempts. See
perfbench/README.md.
"""

import argparse
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fleet_tick", "window_churn", "server_mixed",
             "server_mixed_diameter")
DEFAULT_SEED = 20040614
EXIT_INVALID = 3
MAX_ATTEMPTS = 3
# Another attempt starts only if, taking as long as the last one, it ends
# within this many seconds of the first attempt's start.
TIME_BUDGET_S = 150


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench", "streamhulld"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            return False
    return True


def git_commit():
    """The checkout's commit, or 'unknown' outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="",
                        help="checker self-test: feed a known-bad answer")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: no streamhull sources next to perfbench/; run from "
              "a full source checkout", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(BUILD_DIR / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--daemon", str(BUILD_DIR / "streamhull" / "streamhulld"),
           "--commit", git_commit()]
    if args.inject:
        cmd += ["--inject", args.inject]
    # An invalid run (exit 3: the load generator, not the system, fell
    # behind) is run again while the time left allows another one. The
    # report of every attempt but the last goes to stderr.
    start = time.monotonic()
    for attempt in range(1, MAX_ATTEMPTS + 1):
        attempt_start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        took = time.monotonic() - attempt_start
        if (proc.returncode != EXIT_INVALID or attempt == MAX_ATTEMPTS or
                time.monotonic() - start + took > TIME_BUDGET_S):
            sys.stdout.write(proc.stdout)
            return proc.returncode
        sys.stderr.write(proc.stdout)
        print(f"perfbench: attempt {attempt} invalid; running it again",
              file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
