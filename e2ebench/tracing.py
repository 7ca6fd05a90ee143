"""Per-layer tracing from outside the program.

:func:`install` replaces the public functions of each layer (named after
its module) with thin wrappers, in every loaded ``repro`` module and in
the benchmark's own modules that imported them by name.  Nothing inside
``src/`` changes.  A wrapper does one branch and calls through while the
tracer is off; the workloads switch it on only inside their timed
requests, so set-up, cache clearing and the correctness checks are never
counted.

While on, each call adds its duration minus the time of nested traced
calls to its layer's self time (generators are timed per ``next()``),
bumps the layer's counters, and appends a span to an in-memory list that
:meth:`Tracer.write_chrome` writes as Chrome trace-event JSON at the end
of the run.  Spans beyond :data:`SPAN_CAP` per function are counted and
timed but not kept, so a run of millions of calls stays small in memory.
"""

import functools
import importlib
import json
import sys
import time

SPAN_CAP = 2000

#: (metric bucket, module, attribute path, counter hook name or None).
#: A bucket is ``<layer>.self_ms`` unless it names another time metric.
LAYERS = (
    ("core.pruning.self_ms", "repro.core.pruning", "prune_extended", None),
    ("core.reduction.self_ms", "repro.core.reduction", "trim_extended", None),
    ("core.extended.self_ms", "repro.core.extended", "eliminate_equality_constraints", None),
    ("core.symkernel.self_ms", "repro.core.symkernel", "build_kernel", "kernel"),
    ("core.symkernel.self_ms", "repro.core.symkernel", "SymbolicKernel.decode_lasso", None),
    ("core.symkernel.self_ms", "repro.core.symkernel", "CodedCandidateCheck.__call__", None),
    ("core.register_automaton.self_ms", "repro.core.register_automaton", "RegisterAutomaton.completed", None),
    ("core.register_automaton.self_ms", "repro.core.register_automaton", "RegisterAutomaton.state_driven", None),
    ("automata.buchi.self_ms", "repro.automata.buchi", "BuchiAutomaton.iter_accepted_lassos", "lassos"),
    ("automata.buchi.self_ms", "repro.automata.buchi", "BuchiAutomaton.find_accepted_lasso", None),
    ("automata.buchi.self_ms", "repro.automata.buchi", "BuchiAutomaton.intersect", None),
    ("core.emptiness.self_ms", "repro.core.emptiness", "trace_is_consistent", None),
    ("core.emptiness.self_ms", "repro.core.emptiness", "trace_has_bounded_cliques", None),
    ("ltl.translation.self_ms", "repro.ltl.translation", "ltl_to_buchi", None),
    ("core.verification.self_ms", "repro.core.verification", "verify", "verification"),
    ("core.lr.self_ms", "repro.core.lr", "synthesize_register_automaton", None),
    ("core.runs.self_ms", "repro.core.runs", "generate_finite_runs", "runs"),
    ("db.evaluation.self_ms", "repro.db.evaluation", "evaluate_type", "evaluations"),
    ("db.evaluation.self_ms", "repro.db.evaluation", "evaluate_literal", "evaluations"),
    ("core.streaming.self_ms", "repro.core.streaming", "StreamingChecker.feed", "feeds"),
    ("core.streaming.self_ms", "repro.core.streaming", "StreamingChecker.__init__", "checkers"),
    ("core.monitor.snapshot_ms", "repro.core.monitor", "SessionSnapshot.capture", "snapshots"),
    ("core.monitor.snapshot_ms", "repro.core.monitor", "SessionSnapshot.apply", "snapshots"),
    ("core.monitor.self_ms", "repro.core.monitor", "MonitorMultiplexer.ingest", None),
)

#: Untimed probes: (module, attribute path, counter hook).  The hook sees
#: the call's arguments and result (``None`` for hooks listed in
#: :data:`BEFORE`, which run before the call); it adds no span and no time.
PROBES = (
    ("repro.core.emptiness", "check_emptiness", "emptiness"),
    # The journal is longest when durable refresh starts: the batch is
    # appended and nothing is truncated yet.
    ("repro.core.monitor", "MonitorMultiplexer._refresh_durable", "journal"),
)
BEFORE = ("journal",)

#: Every per-layer metric, with its unit; all are reported on every workload
#: (0 where the workload does not reach the layer).
METRICS = tuple(
    sorted({bucket for bucket, *_ in LAYERS})
) + (
    "core.symkernel.control_nodes",
    "core.symkernel.control_edges",
    "logic.types.sigma_types_built",
    "automata.buchi.lassos",
    "core.emptiness.candidates_checked",
    "core.verification.product_states",
    "core.runs.runs",
    "db.evaluation.calls",
    "core.streaming.feeds",
    "core.streaming.checkers_built",
    "core.monitor.snapshots",
    "core.monitor.journal_peak",
    "core.monitor.snapshots_taken",
)

#: Counters that hold a high-water mark rather than a sum.
PEAK_COUNTERS = ("core.monitor.journal_peak",)


def _unit(metric):
    return "ms" if metric.endswith("_ms") else "count"


def _sigma_misses():
    from repro.foundations.stats import cache_stats

    return cache_stats("intern.SigmaType").misses


class Tracer:
    """Self times, counters and spans, switched on only inside timed regions."""

    def __init__(self):
        self.on = False
        self.stack = []
        self.self_s = {}
        self.counts = {}
        self.span_counts = {}
        self.spans = []
        self.epoch = time.perf_counter()
        self.request = None
        self._misses_at = 0

    # -- regions ------------------------------------------------------- #

    def begin(self, request):
        self.request = request
        self._misses_at = _sigma_misses()
        self.on = True

    def end(self, start, name):
        self.on = False
        self.add("logic.types.sigma_types_built", _sigma_misses() - self._misses_at)
        self._span(name, "request", start, time.perf_counter() - start)

    # -- accounting ---------------------------------------------------- #

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def peak(self, counter, value):
        if value > self.counts.get(counter, 0):
            self.counts[counter] = value

    def _span(self, name, category, start, duration):
        seen = self.span_counts.get(name, 0)
        self.span_counts[name] = seen + 1
        if seen < SPAN_CAP:
            self.spans.append((name, category, start, duration, self.request))

    def _close(self, bucket, name, start):
        duration = time.perf_counter() - start
        nested = self.stack.pop()
        self.self_s[bucket] = self.self_s.get(bucket, 0.0) + duration - nested
        if self.stack:
            self.stack[-1] += duration
        self._span(name, bucket, start, duration)

    def snapshot(self):
        """Current totals of every per-layer metric (ms for times)."""
        values = {metric: 0 for metric in METRICS}
        for bucket, seconds in self.self_s.items():
            values[bucket] = seconds * 1000.0
        for counter, count in self.counts.items():
            values[counter] = count
        return values

    def write_chrome(self, path):
        """Write the kept spans in the Chrome trace-event JSON format."""
        events = [
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": round((start - self.epoch) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {} if request is None else {"request": request},
            }
            for name, category, start, duration, request in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"calls": self.span_counts}}, handle)

    # -- wrappers ------------------------------------------------------ #

    def wrap(self, fn, bucket, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(bucket, name, start)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def wrap_generator(self, fn, bucket, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedIterator(tracer, fn(*args, **kwargs), bucket, name, hook)

        return traced

    def probe(self, fn, bucket, name, hook, before=False):
        tracer = self

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before:
                hook(tracer, args, None)
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            hook(tracer, args, result)
            return result

        return probed


class _TracedIterator:
    """Times each ``next()`` of a layer's generator as a call into the layer."""

    __slots__ = ("tracer", "inner", "bucket", "name", "hook")

    def __init__(self, tracer, inner, bucket, name, hook):
        self.tracer, self.inner, self.bucket, self.name, self.hook = tracer, inner, bucket, name, hook

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        if not tracer.on:
            return next(self.inner)
        tracer.stack.append(0.0)
        start = time.perf_counter()
        try:
            item = next(self.inner)
        finally:
            tracer._close(self.bucket, self.name, start)
        if self.hook is not None:
            self.hook(tracer, (), item)
        return item


# -- counter hooks (run after the call's time is taken) ----------------- #


def _kernel(tracer, args, kernel):
    if kernel is not None:
        tracer.add("core.symkernel.control_nodes", kernel.stats["control_nodes"])
        tracer.add("core.symkernel.control_edges", kernel.stats["control_edges"])


def _emptiness(tracer, args, result):
    tracer.add("core.emptiness.candidates_checked", result.candidates_checked)


def _verification(tracer, args, result):
    tracer.add("core.emptiness.candidates_checked", result.candidates_checked)
    tracer.add("core.verification.product_states", result.product_size)


def _counter(name):
    def hook(tracer, args, result):
        tracer.add(name, 1)

    return hook


def _journal(tracer, args, result):
    tracer.peak("core.monitor.journal_peak", len(args[0]._journal))


HOOKS = {
    "kernel": _kernel,
    "emptiness": _emptiness,
    "verification": _verification,
    "lassos": _counter("automata.buchi.lassos"),
    "runs": _counter("core.runs.runs"),
    "evaluations": _counter("db.evaluation.calls"),
    "feeds": _counter("core.streaming.feeds"),
    "checkers": _counter("core.streaming.checkers_built"),
    "snapshots": _counter("core.monitor.snapshots"),
    "journal": _journal,
}

GENERATORS = ("BuchiAutomaton.iter_accepted_lassos", "generate_finite_runs")


def _rebind(original, replacement, extra_modules):
    """Point every module-level name bound to *original* at *replacement*."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not (name == "repro" or name.startswith("repro.") or name in extra_modules):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(extra_modules=()):
    """Wrap every layer function listed in :data:`LAYERS`; returns the tracer."""
    tracer = Tracer()
    probes = [(None, module, path, hook) for module, path, hook in PROBES]
    for bucket, module_name, path, hook_name in LAYERS + tuple(probes):
        module = importlib.import_module(module_name)
        hook = HOOKS.get(hook_name)
        if bucket is None:
            make = functools.partial(tracer.probe, before=hook_name in BEFORE)
        elif path in GENERATORS:
            make = tracer.wrap_generator
        else:
            make = tracer.wrap
        label = "%s.%s" % (module_name[len("repro."):], path)
        if "." in path:
            owner_name, attribute = path.split(".")
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(make(raw.__func__, bucket, label, hook)))
            else:
                setattr(owner, attribute, make(raw, bucket, label, hook))
        else:
            original = getattr(module, path)
            _rebind(original, make(original, bucket, label, hook), extra_modules)
    return tracer


def per_layer_metrics(values):
    return {metric: {"value": values[metric], "unit": _unit(metric)} for metric in METRICS}
