#!/usr/bin/env python3
"""Build the p4ce benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library (../src) and the benchmark driver into .bench_build/perfbench; later
runs only let CMake confirm the build is current. Build output goes to
stderr. The last line of stdout is the driver's JSON result. The exit code is
non-zero if the build fails, the output check fails, or the driver overruns
its time limit.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "p4ce_perfbench")
BUILD_TIMEOUT_S = 840
# A run must finish within 180 s; leave headroom for the build check.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: the p4ce sources (src/) are not next to perfbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.exit(f"error: {' '.join(cmd)}: {err}")
        if done.returncode != 0:
            sys.exit(f"error: {' '.join(cmd)} exited with {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cpu-post-wr-ns", type=int,
                        help="self-test only: override Calibration::cpu_post_wr")
    parser.add_argument("--callback-spin-ns", type=int,
                        help="self-test only: busy-wait in every commit callback")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.cpu_post_wr_ns is not None:
        cmd += ["--cpu-post-wr-ns", str(args.cpu_post_wr_ns)]
    if args.callback_spin_ns is not None:
        cmd += ["--callback-spin-ns", str(args.callback_spin_ns)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: the benchmark overran {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
