#!/usr/bin/env python3
"""Build and run one benchmark workload.

    python3 perfbench/run.py --workload <grid_mnist|storm_thread|daemon_mn4> \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
program's libraries and the `pb_run` driver from source into the build
directory ($CARGO_TARGET_DIR if set, else .bench_build); later calls rebuild
only what changed. Each workload runs in its own `pb_run` process, whose
stdout ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
The exit status is pb_run's: 0 only when every output check held.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid_mnist", "storm_thread", "daemon_mn4")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configure (once) and build pb_run; returns its path."""
    bdir = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=out, stderr=out)
    subprocess.run(["cmake", "--build", bdir, "--target", "pb_run", "-j", jobs],
                   check=True, stdout=out, stderr=out)
    return os.path.join(bdir, "pb_run")


def commit_id():
    try:
        return subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=HERE, check=True,
                              capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    # Build output goes to stderr so stdout carries only the report.
    try:
        binary = build(sys.stderr)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    work_dir = os.path.join(build_dir(), "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--work-dir", work_dir]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
