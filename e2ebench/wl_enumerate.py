"""Workload ``enumerate``: the Proposition 22 round trip at bounded length.

The alternating spec (one register; states p, q alternate; ``neq(1,1)``
on the factor ``p q``) is synthesised into a register automaton B with
``bank_a = bank_b = 1`` during set-up.  A round enumerates every run of
B of length :data:`LENGTH` over a three-value pool and keeps each run's
projection onto register 1 (canonicalised after the round, untimed).  A request is
one page of :data:`PAGE` runs pulled from the generator.

The round is correct when the projected set equals the set of canonical
traces of the original's constrained runs (Proposition 22), and both
equal the brute-force set the benchmark computes over ``pool ** LENGTH``.
"""

from operator import itemgetter

from repro import generate_finite_runs, synthesize_register_automaton

import oracle
import specs

LENGTH = 5
PAGE = 1000

#: The spec from the Proposition 22 tests, in the oracle's description format.
ALTERNATING = {
    "k": 1,
    "states": ["p", "q"],
    "initial": ["p"],
    "accepting": ["p"],
    "transitions": [("p", (), "q"), ("q", (), "p")],
    "constraints": [("neq", 1, 1, "pq")],
    "relations": {},
}


class Prepared:
    def __init__(self, seed):
        rng = specs.rng_for(seed, "enumerate")
        self.pool = tuple(rng.sample(range(1000), 3))
        self.original = specs.build_extended(ALTERNATING)
        self.database = specs.empty_database(ALTERNATING)
        self.synthesized = synthesize_register_automaton(self.original, bank_a=1, bank_b=1)


def setup(seed):
    return Prepared(seed)


def _reference(prepared):
    """The brute-force set and the original's constrained runs, as canonical traces."""
    brute = oracle.brute_force_traces(ALTERNATING, LENGTH, prepared.pool)
    constrained = {
        oracle.canonical_trace(run.data)
        for run in generate_finite_runs(
            prepared.original.automaton, prepared.database, LENGTH, pool=prepared.pool)
        if prepared.original.satisfies_constraints(run)
    }
    return brute, constrained


def run_round(prepared, rec, index=0):
    brute, constrained = _reference(prepared)
    specs.fresh_caches()
    runs = generate_finite_runs(prepared.synthesized, prepared.database, LENGTH, pool=prepared.pool)
    projected = set()
    first = itemgetter(0)

    def page():
        pulled = 0
        for run in runs:
            projected.add(tuple(map(first, run.data)))
            pulled += 1
            if pulled == PAGE:
                break
        return pulled

    total = 0
    error = None
    while True:
        pulled, error = rec.call("page", page)
        if error is not None:
            break
        total += pulled
        if pulled < PAGE:
            break
    projected = {oracle.canonical_trace((value,) for value in word) for word in projected}
    if error is None and not (projected == constrained == brute):
        error = "projected %d traces, original %d, brute force %d" % (
            len(projected), len(constrained), len(brute))
    rec.outcome(total, 0 if error is None else total, error)
