#!/usr/bin/env python3
"""Builds and runs the emc benchmark (see README.md).

    python3 perfbench/run.py --workload <road|kron|shard> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles the library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. Build output goes to stderr;
the benchmark's provenance lines and, last, its JSON result go to stdout.
Exits non-zero, without a result line, when the sources or toolchain are
missing or the build fails.

    python3 perfbench/run.py --test        # builds and runs the benchmark's tests
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("run.py: %s: %s" % (cmd[0], err), file=sys.stderr)
        return False
    return done.returncode == 0


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.hpp")):
        fail("library sources not found under %s/src" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                     BUILD_TIMEOUT_S):
        fail("build failed")
    return out


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_tests():
    out = build(["perfbench_tests", "emc_perfbench"])
    tests = subprocess.run([os.path.join(out, "perfbench_tests")], cwd=ROOT)
    script = subprocess.run([sys.executable, "-m", "unittest", "discover",
                             "-s", os.path.join(HERE, "tests"), "-p", "test_*.py"],
                            cwd=ROOT, env=dict(os.environ, PERFBENCH_BIN=os.path.join(
                                out, "emc_perfbench")))
    return 0 if tests.returncode == 0 and script.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build(["emc_perfbench"])
    cmd = [os.path.join(out, "emc_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
