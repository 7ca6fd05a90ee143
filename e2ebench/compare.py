"""Compare benchmark results: two result files, or A/A (or A/B) sets of runs.

Usage (from the repository root)::

    # N runs per side and workload, alternating which side runs first;
    # seeds seed0 .. seed0+N-1, the same seeds on both sides.
    python3 e2ebench/compare.py sets --a . --b /path/to/other/checkout \\
        --runs 10 --out-a a.json --out-b b.json [--workloads decide enumerate]

    # Per-layer: traced runs of one seed on each side (counts must match).
    python3 e2ebench/compare.py sets --a . --b . --runs 2 --trace ...

    # Diff two result files written by ``sets``.
    python3 e2ebench/compare.py diff a.json b.json

``sets`` prints, per workload and metric, each side's median, quartiles
and spread (inter-quartile distance over the median), the change of the
B median against the A median, and whether it stays within the metric's
``bound`` from ``BENCHMARK.json``.  ``diff`` prints the same from saved
files.  For traced results it compares per-layer medians and reports
whether every count metric repeats exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT = 900


def benchmark_spec(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(tree, workload, seed, seconds, trace):
    """One run of the benchmark in *tree*; returns its parsed last line."""
    spec = benchmark_spec(tree)
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    started = time.perf_counter()
    completed = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError("%s %s seed %d exited %d: %s" % (
            tree, workload, seed, completed.returncode, completed.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["summary"] = lines[:-1]  # the run's own summary lines, e.g. time shares by request kind
    return result


def summary(values):
    """(median, q1, q3, spread) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value, 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def by_workload(records):
    grouped = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record["result"])
    return grouped


def report(records_a, records_b, spec):
    """Print the comparison; returns True when every bound holds."""
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    ok = True
    grouped_a, grouped_b = by_workload(records_a), by_workload(records_b)
    for workload in sorted(grouped_a):
        results_a, results_b = grouped_a[workload], grouped_b.get(workload, [])
        if not results_b:
            continue
        shares = []
        for results in (results_a, results_b):
            attempted = sum(result["attempted"] for result in results)
            failed = sum(result["failed"] for result in results)
            shares.append((failed, attempted))
        same_share = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        correct = all(result["correct"] for result in results_a + results_b)
        print("== %s: %d/%d runs, failed %d/%d vs %d/%d ops (%s), correct=%s" % (
            workload, len(results_a), len(results_b), shares[0][0], shares[0][1],
            shares[1][0], shares[1][1], "same share" if same_share else "SHARE DIFFERS",
            correct))
        ok = ok and same_share and correct
        names = sorted(results_a[0]["metrics"])
        print("   %-36s %12s %12s %7s   %12s %12s %7s  %8s  %s" % (
            "metric", "A median", "A q1..q3", "spread", "B median", "B q1..q3", "spread",
            "change", "verdict"))
        counts_repeat = True
        for name in names:
            values_a = [result["metrics"][name]["value"] for result in results_a]
            values_b = [result["metrics"][name]["value"] for result in results_b]
            med_a, q1_a, q3_a, spread_a = summary(values_a)
            med_b, q1_b, q3_b, spread_b = summary(values_b)
            change = (med_b - med_a) / med_a if med_a else 0.0
            verdict = ""
            metric = bounds.get(name)
            if metric is not None:
                worse = change if metric["better"] == "lower" else -change
                within = worse <= metric["bound"]
                steady = spread_a <= metric["bound"] and spread_b <= metric["bound"]
                verdict = "%s (bound %.2f)%s" % (
                    "ok" if within else "WORSE", metric["bound"],
                    "" if steady else ", SPREAD ABOVE BOUND")
                ok = ok and within and steady
            elif results_a[0]["metrics"][name]["unit"] == "count":
                repeat = len(set(values_a + values_b)) == 1
                counts_repeat = counts_repeat and repeat
                verdict = "repeats" if repeat else "DIFFERS"
            print("   %-36s %12.6g %5.4g..%-6.4g %6.1f%%   %12.6g %5.4g..%-6.4g %6.1f%%  %+7.1f%%  %s" % (
                name, med_a, q1_a, q3_a, 100 * spread_a, med_b, q1_b, q3_b, 100 * spread_b,
                100 * change, verdict))
        if not counts_repeat:
            ok = False
    return ok


def load(path):
    with open(path) as handle:
        return json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    sets = commands.add_parser("sets", help="run N alternating pairs per workload")
    sets.add_argument("--a", required=True, help="checkout root of side A")
    sets.add_argument("--b", required=True, help="checkout root of side B")
    sets.add_argument("--runs", type=int, default=10)
    sets.add_argument("--seed0", type=int, default=1)
    sets.add_argument("--workloads", nargs="*", help="default: every workload")
    sets.add_argument("--trace", action="store_true", help="traced runs of seed0 only")
    sets.add_argument("--out-a", required=True)
    sets.add_argument("--out-b", required=True)
    diff = commands.add_parser("diff", help="compare two result files")
    diff.add_argument("file_a")
    diff.add_argument("file_b")
    args = parser.parse_args(argv)

    if args.command == "diff":
        data_a, data_b = load(args.file_a), load(args.file_b)
        return 0 if report(data_a["runs"], data_b["runs"], data_a["benchmark"]) else 1

    trees = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    spec = benchmark_spec(trees["A"])
    seconds = spec["run_seconds"]
    workloads = args.workloads or [workload["name"] for workload in spec["workloads"]]
    records = {"A": [], "B": []}
    for index in range(args.runs):
        seed = args.seed0 if args.trace else args.seed0 + index
        order = ("A", "B") if index % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                result = run_once(trees[side], workload, seed, seconds, args.trace)
                records[side].append({"workload": workload, "seed": seed, "order": order.index(side),
                                      "trace": args.trace, "result": result})
                print("%s %-12s seed %-4d wall %6.1f s  %s" % (
                    side, workload, seed, result["wall_s"], " ".join(
                        "%s=%.5g" % (name, metric["value"])
                        for name, metric in sorted(result["metrics"].items())
                        if not args.trace or name.endswith("_ms") or name == "trace.overhead_pct")),
                    file=sys.stderr, flush=True)
        for side, path in (("A", args.out_a), ("B", args.out_b)):
            with open(path, "w") as handle:
                json.dump({"tree": trees[side], "benchmark": spec, "seconds": seconds,
                           "runs": records[side]}, handle, indent=1)
    return 0 if report(records["A"], records["B"], spec) else 1


if __name__ == "__main__":
    sys.exit(main())
