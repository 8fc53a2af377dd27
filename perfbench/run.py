#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it (see README.md).

One run:
    python3 perfbench/run.py --workload hot_feed --seed 1 --seconds 30 --trace 0
Every workload, untraced and traced, printing every metric with its unit:
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
The benchmark's self-tests:
    python3 perfbench/run.py --selftest

Run from the root of the repository. The build and the run's durable
directories live under .bench_build/ there; nothing is written elsewhere.
The last line of a single run's standard output is its result object.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
WORKLOADS = ("hot_feed", "fresh_posts", "churn")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.hpp")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_one(binary, workload, seed, seconds, trace, meta):
    args = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", os.path.join(WORK, "perfbench-run")] + meta
    return subprocess.run(args).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=BUILD).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    meta = ["--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.workload != "all":
        sys.exit(run_one(binary, args.workload, args.seed, args.seconds, args.trace, meta))
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            status = max(status, run_one(binary, workload, args.seed, args.seconds, trace, meta))
    sys.exit(status)


if __name__ == "__main__":
    main()
