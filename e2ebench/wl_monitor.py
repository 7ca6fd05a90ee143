"""Workloads ``monitor_wide`` and ``monitor_deep``: one spec, two session shapes.

The spec has two registers and states ``a``/``b``; every guard reads both
registers, and it carries two global constraints:

* ``neq(1,1)`` over every factor of length >= 2 -- register 1 holds
  pairwise distinct values, so its threads retain every value seen
  (Example 7's all-distinct);
* ``neq(2,2)`` over every factor of length 2 -- register 2 differs from
  one position to the next, so its threads die within a step (Example
  16's local disequality).

Each session's history is a random walk ``a -> {a, b}``, ``b -> a`` with
fresh register-1 values and register 2 alternating.  A fifth of the
sessions, chosen by the seed, carries one planted violation at a seeded
position in the last tenth of its history (a repeated register-1 value
or a repeated register-2 value).  A round feeds every history through a
fresh :class:`MonitorMultiplexer` over a freshly built spec, with cold
caches, one ``ingest`` call per request (each batch's events are built
just before it, untimed); it is correct when every violating session
stopped exactly at its planted position and every clean session consumed
its whole history without a violation.
"""

from repro import (
    Database,
    ExtendedAutomaton,
    GlobalConstraint,
    MonitorMultiplexer,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    neq,
)
from repro.automata.regex import any_of, concat, plus
from repro.foundations.resilience import OutcomeStatus

import specs

VIOLATING_SHARE = 0.2

#: sessions, events per session, and how batches are cut.
SHAPES = {
    # ~10k live sessions; each batch holds one event for each of
    # ``batch`` distinct sessions.
    "monitor_wide": {"sessions": 10000, "history": 10, "batch": 2000},
    # ~10 long sessions; each batch holds ``per_batch`` consecutive events
    # of every session.
    "monitor_deep": {"sessions": 10, "history": 3000, "per_batch": 10},
}


def build_spec():
    distinct = SigmaType([neq(X(1), X(2))])
    back = SigmaType([neq(X(1), X(2)), neq(Y(1), X(2))])
    automaton = RegisterAutomaton(
        2,
        Signature.empty(),
        {"a", "b"},
        {"a"},
        {"a", "b"},
        [("a", distinct, "a"), ("a", distinct, "b"), ("b", back, "a")],
    )
    state = any_of(["a", "b"])
    return ExtendedAutomaton(
        automaton,
        [
            GlobalConstraint("neq", 1, 1, concat(state, plus(state))),
            GlobalConstraint("neq", 2, 2, concat(state, state)),
        ],
    )


def _walk(rng, length):
    """A random walk ``a -> {a, b}``, ``b -> a`` from ``a``, as a string of states."""
    states = ["a"]
    for _ in range(length - 1):
        states.append("a" if states[-1] == "b" or rng.random() < 0.5 else "b")
    return "".join(states)


class Prepared:
    """Each session's walk and planted violation.

    The events themselves are built batch by batch, just before each
    ``ingest`` and outside the timed request, so the inputs held between
    requests stay small and ``peak_rss_mb`` is set by the program.
    """

    def __init__(self, name, seed):
        shape = SHAPES[name]
        rng = specs.rng_for(seed, name)
        self.database = Database(Signature.empty())
        self.history = shape["history"]
        self.shape = shape
        self.sessions = ["s%05d" % index for index in range(shape["sessions"])]
        # A fixed number of violating sessions, each stopping in the last
        # tenth of its history: a failed session does no further work, so
        # this keeps the work per round nearly the same for every seed.
        violating = set(rng.sample(self.sessions, round(VIOLATING_SHARE * len(self.sessions))))
        earliest = max(1, int(0.9 * self.history))
        self.walks = {session: _walk(rng, self.history) for session in self.sessions}
        self.planted = {}
        #: session -> (register index, earlier position whose value it repeats)
        self.copied = {}
        for session in self.sessions:
            if session not in violating:
                self.planted[session] = None
                continue
            planted = self.planted[session] = rng.randrange(earliest, self.history)
            if rng.random() < 0.5:
                self.copied[session] = (0, rng.randrange(planted))
            else:
                self.copied[session] = (1, planted - 1)

    def event(self, session, position):
        """Register 1 fresh per position, register 2 alternating, unless planted here."""
        row = ("%s.%d" % (session, position), "w%d" % (position % 2))
        copied = self.copied.get(session)
        if copied is not None and position == self.planted[session]:
            register, source = copied
            row = list(row)
            row[register] = self.event(session, source)[2][register]
            row = tuple(row)
        return (session, self.walks[session][position], row)

    def batches(self):
        if "batch" in self.shape:
            width = self.shape["batch"]
            chunks = [self.sessions[i:i + width] for i in range(0, len(self.sessions), width)]
            for position in range(self.history):
                for chunk in chunks:
                    yield [self.event(session, position) for session in chunk]
        else:
            step = self.shape["per_batch"]
            for start in range(0, self.history, step):
                yield [self.event(session, position)
                       for session in self.sessions
                       for position in range(start, start + step)]


def setup_for(name):
    return lambda seed: Prepared(name, seed)


def run_round(prepared, rec, index=0):
    specs.fresh_caches()
    mux = MonitorMultiplexer(build_spec(), prepared.database)
    attempted = failed = 0
    first_error = None
    for batch in prepared.batches():
        report, error = rec.call("ingest", lambda: mux.ingest(batch))
        attempted += len(batch)
        if error is None and report.outcome.status is not OutcomeStatus.COMPLETE:
            error = "ingest outcome %s" % report.outcome.status
        if error is not None:
            failed += len(batch)
            first_error = first_error or error
    mismatched = []
    for session, (_state, position, message, _peak) in mux.fingerprints().items():
        planted = prepared.planted[session]
        if planted is None:
            ok = message is None and position == prepared.history - 1
        else:
            ok = message is not None and position == planted
        if not ok:
            mismatched.append(session)
    if mismatched:
        first_error = first_error or "%d sessions off their planted verdict, e.g. %s" % (
            len(mismatched), mismatched[0])
    failed = min(attempted, failed + len(mismatched) * prepared.history)
    rec.outcome(attempted, failed, first_error)
    rec.count("core.monitor.snapshots_taken", mux.stats()["snapshots_taken"])
