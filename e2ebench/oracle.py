"""Independent reference computations for the workloads' correctness checks.

Nothing here calls into ``repro``: specifications are plain descriptions
(see :mod:`specs`), guards are evaluated literal by literal over a dict
valuation, and global-constraint factors are matched with Python's ``re``
over the state word.  The workloads compare the program's answers against
these computations, never against stored output of the program.

A description is a dict::

    {"k": 2, "states": ["a", "b"], "initial": ["a"], "accepting": ["a"],
     "transitions": [("a", guard, "b"), ...],
     "constraints": [("neq", i, j, "a[bc]*b"), ...],
     "relations": {"P": 1}}

with single-letter state names, and guards as tuples of literals
``("eq", "x1", "y2")``, ``("neq", "x1", "x2")``, ``("P", "y1")`` or
``("notP", "x1")``.
"""

import itertools
import re


def canonical_trace(rows):
    """Rename data values by first occurrence (isomorphism-invariant form)."""
    names = {}
    return tuple(tuple(names.setdefault(value, len(names)) for value in row) for row in rows)


def literal_holds(literal, valuation, facts):
    kind = literal[0]
    if kind == "eq":
        return valuation[literal[1]] == valuation[literal[2]]
    if kind == "neq":
        return valuation[literal[1]] != valuation[literal[2]]
    if kind.startswith("not"):
        return (valuation[literal[1]],) not in facts.get(kind[3:], ())
    return (valuation[literal[1]],) in facts.get(kind, ())


def guard_holds(guard, before, after, facts):
    """Whether *guard* holds on the step from register tuple *before* to *after*."""
    valuation = {}
    for index, value in enumerate(before, 1):
        valuation["x%d" % index] = value
    for index, value in enumerate(after, 1):
        valuation["y%d" % index] = value
    return all(literal_holds(literal, valuation, facts) for literal in guard)


def _compiled(spec):
    return [(kind, i, j, re.compile(pattern)) for kind, i, j, pattern in spec["constraints"]]


def constraint_error(spec, states, data, compiled=None):
    """The first constraint factor of the finite run that is violated, else ``None``."""
    word = "".join(states)
    for kind, i, j, pattern in compiled if compiled is not None else _compiled(spec):
        for start in range(len(word)):
            for end in range(start + 1, len(word)):
                if not pattern.fullmatch(word, start, end + 1):
                    continue
                equal = data[start][i - 1] == data[end][j - 1]
                if equal != (kind == "eq"):
                    return "%s(%d,%d) %r violated on factor [%d,%d]" % (
                        kind, i, j, pattern.pattern, start, end)
    return None


def run_error(spec, states, data, facts, compiled=None):
    """Why (*states*, *data*) is not a run prefix of *spec* over *facts*, else ``None``.

    Checks the initial state, the register arity, that every step follows
    some transition whose guard holds, and every global constraint on
    every factor of the prefix.
    """
    if not states or len(states) != len(data):
        return "empty run or length mismatch"
    if states[0] not in spec["initial"]:
        return "state %r is not initial" % (states[0],)
    if any(len(row) != spec["k"] for row in data):
        return "register arity differs from k=%d" % spec["k"]
    for position in range(len(states) - 1):
        source, target = states[position], states[position + 1]
        if not any(
            src == source and dst == target
            and guard_holds(guard, data[position], data[position + 1], facts)
            for src, guard, dst in spec["transitions"]
        ):
            return "no transition %r -> %r fits the data at position %d" % (
                source, target, position)
    return constraint_error(spec, states, data, compiled)


def original_state(state, originals):
    """Peel ``(state, guard)`` pairs of the normal form back to an original state."""
    while state not in originals and isinstance(state, tuple) and len(state) == 2:
        state = state[0]
    return state


def brute_force_traces(spec, length, pool):
    """Canonical register traces of every constrained run prefix of *length*.

    Enumerates every state path through the transitions and every data
    word in ``pool ** (k * length)``; keeps the ones that are runs (over an
    empty database) and satisfy every constraint.
    """
    k = spec["k"]
    compiled = _compiled(spec)
    paths = [[state] for state in spec["initial"]]
    for _ in range(length - 1):
        paths = [path + [dst] for path in paths
                 for src, _guard, dst in spec["transitions"] if src == path[-1]]
    rows = list(itertools.product(pool, repeat=k))
    traces = set()
    for path in {tuple(path) for path in paths}:
        for data in itertools.product(rows, repeat=length):
            if run_error(spec, path, data, {}, compiled) is None:
                traces.add(canonical_trace(data))
    return traces
