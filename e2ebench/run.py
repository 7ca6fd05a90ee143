"""Run one workload of the end-to-end benchmark and print its result.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload decide --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``.  After set-up the
run repeats whole cycles of rounds (the workload's ``CYCLE``, one round
unless it says otherwise) while another cycle still fits in
``--seconds`` of timed requests, and in any case until at least
:data:`MIN_REQUESTS` requests were timed.  Every cycle is the same work,
so how many of them fit changes how long a run measures, never what.
Time spent outside requests (cache clearing, the correctness checks) is
not counted.  The last line of standard output is
one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``ops_per_s``, ``p50_ms``, ``p90_ms``, ``peak_rss_mb``).  With
``--trace 1`` one block of rounds (the workload's ``TRACE_ROUNDS``) is
timed untraced, then the layer functions are wrapped (see
:mod:`tracing`), set-up runs once traced and the same block is repeated
traced, at least twice and while it fits in ``--seconds``.  The metrics
are the per-layer ones for one traced set-up plus one traced block, and
``trace.overhead_pct`` (traced block against the untraced one).  Count
metrics must be equal in every traced block, else ``correct`` is false.
The spans go to ``e2ebench/out/trace-<workload>-<seed>.json``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("decide", "enumerate", "monitor_wide", "monitor_deep")
MIN_REQUESTS = 100
SETUP_REPEATS = 5


class Recorder:
    """Request latencies and operation counts of the timed rounds."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.seconds_by_kind = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, name, fn):
        """Run ``fn()`` as one timed request; returns ``(result, error message)``."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(len(self.latencies))
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # the workload counts it as failed operations
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(start, name)
        self.latencies.append(elapsed)
        self.seconds_by_kind[name] = self.seconds_by_kind.get(name, 0.0) + elapsed
        return result, error

    def outcome(self, attempted, failed, error=None):
        self.attempted += attempted
        self.failed += failed
        if error is not None and len(self.errors) < 5:
            self.errors.append(error)

    def count(self, counter, amount):
        if self.tracer is not None:
            self.tracer.add(counter, amount)

    def timed_seconds(self):
        return sum(self.latencies)

    def shares(self):
        """Each request kind's share of the timed seconds, for the summary line."""
        total = self.timed_seconds()
        return {name: seconds / total for name, seconds in sorted(self.seconds_by_kind.items())}


def load(name):
    """The workload's set-up, round, rounds per cycle and rounds per traced block."""
    if name == "decide":
        import wl_decide as module

        setup = module.setup
    elif name == "enumerate":
        import wl_enumerate as module

        setup = module.setup
    else:
        import wl_monitor as module

        setup = module.setup_for(name)
    return (setup, module.run_round, getattr(module, "CYCLE", 1),
            getattr(module, "TRACE_ROUNDS", 1))


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(setup_s, rec):
    latencies_ms = [seconds * 1000.0 for seconds in rec.latencies]
    completed = rec.attempted - rec.failed
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": completed / rec.timed_seconds(), "unit": "1/s"},
        "p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "p90_ms": {"value": quantile(latencies_ms, 0.9), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def timed_rounds(args, run_round, cycle, prepared, rec):
    cycles = 0
    while True:
        for index in range(cycle):
            run_round(prepared, rec, index)
        cycles += 1
        timed = rec.timed_seconds()
        if len(rec.latencies) >= MIN_REQUESTS and timed * (cycles + 1) / cycles > args.seconds:
            return


def traced_blocks(args, setup, run_round, block, prepared, rec):
    """Per-layer metrics of one traced set-up plus one traced block of rounds."""
    import tracing
    from specs import fresh_caches

    baseline = Recorder()
    for index in range(block):
        run_round(prepared, baseline, index)
    tracer = tracing.install(extra_modules=("wl_decide", "wl_enumerate", "wl_monitor"))
    fresh_caches()
    tracer.begin("setup")
    start = time.perf_counter()
    prepared = setup(args.seed)
    tracer.end(start, "setup")
    gc.freeze()
    totals = [tracer.snapshot()]
    rec.tracer = tracer
    seconds = []
    while len(totals) < 3 or sum(seconds) * len(totals) / (len(totals) - 1) <= args.seconds:
        for counter in tracing.PEAK_COUNTERS:
            tracer.counts.pop(counter, None)
        before = rec.timed_seconds()
        for index in range(block):
            run_round(prepared, rec, index)
        seconds.append(rec.timed_seconds() - before)
        totals.append(tracer.snapshot())
    per_block = [
        {metric: after[metric] - (0 if metric in tracing.PEAK_COUNTERS else prior[metric])
         for metric in tracing.METRICS}
        for prior, after in zip(totals, totals[1:])
    ]
    consistent = all(
        values[metric] == per_block[0][metric]
        for values in per_block
        for metric in tracing.METRICS
        if not metric.endswith("_ms")
    )
    if not consistent:
        rec.errors.append("count metrics differ between traced blocks")
    values = {}
    for metric in tracing.METRICS:
        share = statistics.mean(block_values[metric] for block_values in per_block)
        values[metric] = share + (0 if metric in tracing.PEAK_COUNTERS else totals[0][metric])
    metrics = tracing.per_layer_metrics(values)
    overhead = statistics.median(seconds) / baseline.timed_seconds() - 1.0
    metrics["trace.overhead_pct"] = {"value": overhead * 100.0, "unit": "%"}
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    tracer.write_chrome(os.path.join(out, "trace-%s-%d.json" % (args.workload, args.seed)))
    return metrics, consistent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hash_seed = str(args.seed % 2**32)
    if argv is None and os.environ.get("PYTHONHASHSEED") != hash_seed:
        # String hashing is salted per process, and some of the program's
        # outputs (the state names of the Proposition 22 synthesis, hence
        # the order of its transitions) follow set order: pin the salt to
        # the seed so one seed always means the same work and the same
        # per-layer counts.  exec replaces this process; nothing is spawned.
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("e2ebench: no repro package under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro  # noqa: F401  -- import time is part of set-up

    setup, run_round, cycle, block = load(args.workload)
    from specs import fresh_caches

    imported = time.perf_counter() - STARTED
    setups = []
    prepared = None
    for _ in range(SETUP_REPEATS):
        # Drop the previous copy first: one copy of the inputs is alive at
        # a time, so the inputs count once in ``peak_rss_mb``.
        prepared = None
        fresh_caches()
        start = time.perf_counter()
        prepared = setup(args.seed)
        setups.append(time.perf_counter() - start)
    setup_s = imported + statistics.median(setups)
    # Everything alive now (the program's modules and the inputs) goes to
    # the collector's permanent generation, so neither the collections
    # inside timed requests nor the untimed ``gc.collect()`` between
    # queries walk the benchmark's own inputs.
    gc.freeze()
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rec = Recorder()
    correct = True
    if args.trace:
        metrics, correct = traced_blocks(args, setup, run_round, block, prepared, rec)
    else:
        timed_rounds(args, run_round, cycle, prepared, rec)
        metrics = end_to_end(setup_s, rec)
    for error in rec.errors:
        print("e2ebench %s: %s" % (args.workload, error), file=sys.stderr)
    print("%s: attempted %d, failed %d; %s" % (
        args.workload, rec.attempted, rec.failed,
        ", ".join("%s %.6g %s" % (name, metric["value"], metric["unit"])
                  for name, metric in sorted(metrics.items()))))
    print("%s: %d requests; timed seconds by request kind: %s; set-up: import %.4f s, "
          "median set-up %.4f s of %d; peak RSS at the end of set-up %.1f MB" % (
              args.workload, len(rec.latencies),
              ", ".join("%s %.1f%%" % (name, 100 * share) for name, share in rec.shares().items()),
              imported, statistics.median(setups), SETUP_REPEATS, setup_rss_mb))
    print(json.dumps({
        "correct": bool(correct and rec.attempted > 0),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
