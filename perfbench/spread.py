#!/usr/bin/env python3
"""Runs the benchmark on a range of seeds and checks its steadiness the way
BENCHMARK.json's bounds are judged.

    python3 perfbench/spread.py --workload road --seeds 1-10 [--seconds 20]
    python3 perfbench/spread.py --workload road --seeds 1-3 --overhead

Set A runs the given seeds and set B as many seeds after them (1-10 gives
B seeds 11-20). The runs of the two sets interleave, pair by pair, with the
order inside a pair alternating, so a change in the host's speed falls on
both sets alike. Per end-to-end metric it prints each set's median and
spread (interquartile range over the median) and how much worse B's median
is than A's, as a share of A's. A metric passes when both spreads (except
setup_s's) and the A-to-B worsening stay within its bound; the script exits
1 if any metric fails.

--overhead runs each seed untraced and traced once instead and prints, per
end-to-end metric, the traced minus the untraced median (the tracing
overhead). Raw result lines are appended to --log as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("seed %d failed (exit %d):\n%s%s" % (
            seed, done.returncode, done.stdout, done.stderr))
    traced = None
    for line in lines:
        if line.startswith("# cpu steal"):
            print("seed %d: %s" % (seed, line[2:]), file=sys.stderr)
        if line.startswith("# traced end-to-end "):
            traced = json.loads(line[len("# traced end-to-end "):])
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("seed %d: incorrect result %s" % (seed, result))
    return result, traced


def spread(values):
    """Interquartile range over the median, as statistics.quantiles gives it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def log_line(path, record):
    if path:
        with open(path, "a") as f:
            f.write(json.dumps(record) + "\n")


def collect(values, result):
    for name, m in result["metrics"].items():
        values.setdefault(name, []).append(m["value"])


def two_sets(args, seeds, seconds, spec):
    sets = {"A": {}, "B": {}}
    for i, seed in enumerate(seeds):
        pair = {"A": seed, "B": seed + len(seeds)}
        for label in ("AB" if i % 2 == 0 else "BA"):
            result, _ = run_once(args.workload, pair[label], seconds, 0)
            log_line(args.log, {"workload": args.workload, "set": label,
                                "seed": pair[label], "result": result})
            collect(sets[label], result)

    print("%-16s %11s %7s %11s %7s %8s %6s" % (
        "metric", "median A", "spread", "median B", "spread", "B worse",
        "bound"))
    ok = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = sets["A"][name], sets["B"][name]
        spread_a, spread_b = spread(a), spread(b)
        worse = worsening(statistics.median(a), statistics.median(b),
                          m["better"])
        spreads_ok = name == "setup_s" or max(spread_a, spread_b) <= bound
        passed = spreads_ok and worse <= bound
        ok = ok and passed
        print("%-16s %11.5g %6.1f%% %11.5g %6.1f%% %7.1f%% %5.0f%% %s" % (
            name, statistics.median(a), 100 * spread_a, statistics.median(b),
            100 * spread_b, 100 * worse, 100 * bound,
            "ok" if passed else "FAIL"))
    print("%s: %s" % (args.workload, "within every bound" if ok
                      else "NOT within the bounds"))
    return 0 if ok else 1


def overhead(args, seeds, seconds):
    untraced, traced = {}, {}
    for seed in seeds:
        result, _ = run_once(args.workload, seed, seconds, 0)
        log_line(args.log, {"workload": args.workload, "seed": seed,
                            "result": result})
        collect(untraced, result)
        _, with_trace = run_once(args.workload, seed, seconds, 1)
        collect(traced, with_trace)
    print("%-16s %14s %16s" % ("metric", "untraced", "traced-untraced"))
    for name, values in untraced.items():
        med = statistics.median(values)
        print("%-16s %14.6g %+16.6g" % (
            name, med, statistics.median(traced[name]) - med))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--log")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    spec = benchmark_json()
    seconds = args.seconds or spec["run_seconds"]
    if args.overhead:
        return overhead(args, seeds, seconds)
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds for a spread")
    return two_sets(args, seeds, seconds, spec)


if __name__ == "__main__":
    sys.exit(main())
