"""Seeded specification generators and their translation into ``repro`` objects.

Generators return plain descriptions (the format documented in
:mod:`oracle`), so the correctness checks can read the same input the
program received without going through the program.  Every guard is
sampled as a random subset of the facts true in a random model (a
partition of the register variables, plus a truth value of each unary
relation per block), so every guard is satisfiable by construction.
"""

import gc
import random

from repro import (
    Database,
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eq,
    neq,
    nrel,
    rel,
)
from repro.automata.regex import any_of, concat, literal, plus, star
from repro.foundations.interning import clear_intern_tables
from repro.foundations.memo import clear_value_caches

LETTERS = "abcdefgh"


def random_guard(rng, k, relations=(), density=0.5):
    """A random satisfiable guard over ``x1..xk, y1..yk`` (and unary relations)."""
    variables = ["x%d" % i for i in range(1, k + 1)] + ["y%d" % i for i in range(1, k + 1)]
    block = {}
    blocks = 0
    for variable in variables:
        if blocks and rng.random() < 0.5:
            block[variable] = rng.randrange(blocks)
        else:
            block[variable] = blocks
            blocks += 1
    truth = {(name, b): rng.random() < 0.5 for name in relations for b in range(blocks)}
    literals = []
    for index, left in enumerate(variables):
        for right in variables[index + 1:]:
            if rng.random() >= density / 2:
                continue
            literals.append(("eq" if block[left] == block[right] else "neq", left, right))
    for name in relations:
        for variable in variables:
            if rng.random() < density / 2:
                holds = truth[(name, block[variable])]
                literals.append((name if holds else "not" + name, variable))
    return tuple(literals)


def random_constraint(rng, k, states):
    """An inequality constraint over an anchored factor shape ``a b``, ``a X* b`` or ``a X+ b``."""
    first, last = rng.choice(states), rng.choice(states)
    middle = "".join(sorted(rng.sample(states, rng.randrange(1, len(states) + 1))))
    op = rng.choice(("", "*", "+"))
    pattern = first + ("[%s]%s" % (middle, op) if op else "") + last
    return ("neq", rng.randrange(1, k + 1), rng.randrange(1, k + 1), pattern)


def random_spec(rng, k, n_states, n_transitions, n_constraints, relations=()):
    """A random automaton whose states all lie on one cycle through the initial state."""
    states = list(LETTERS[:n_states])
    transitions = [
        (states[i], random_guard(rng, k, relations), states[(i + 1) % n_states])
        for i in range(n_states)
    ]
    while len(transitions) < n_transitions:
        transitions.append((rng.choice(states), random_guard(rng, k, relations), rng.choice(states)))
    accepting = {states[0]}
    if rng.random() < 0.5:
        accepting.add(rng.choice(states))
    return {
        "k": k,
        "states": states,
        "initial": [states[0]],
        "accepting": sorted(accepting),
        "transitions": transitions,
        "constraints": [random_constraint(rng, k, states) for _ in range(n_constraints)],
        "relations": {name: 1 for name in relations},
    }


def _term(name):
    return (X if name[0] == "x" else Y)(int(name[1:]))


def build_guard(guard):
    literals = []
    for lit in guard:
        if lit[0] == "eq":
            literals.append(eq(_term(lit[1]), _term(lit[2])))
        elif lit[0] == "neq":
            literals.append(neq(_term(lit[1]), _term(lit[2])))
        elif lit[0].startswith("not"):
            literals.append(nrel(lit[0][3:], _term(lit[1])))
        else:
            literals.append(rel(lit[0], _term(lit[1])))
    return SigmaType(literals)


def build_regex(pattern):
    """The ``repro`` regex for a factor pattern made by :func:`random_constraint`."""
    first, last = literal(pattern[0]), literal(pattern[-1])
    if len(pattern) == 2:
        return concat(first, last)
    middle = any_of(sorted(pattern[2:pattern.index("]")]))
    op = pattern[pattern.index("]") + 1]
    return concat(first, (star if op == "*" else plus)(middle), last)


def signature_of(spec):
    return Signature(relations=dict(spec["relations"])) if spec["relations"] else Signature.empty()


def build_automaton(spec):
    return RegisterAutomaton(
        spec["k"],
        signature_of(spec),
        spec["states"],
        spec["initial"],
        spec["accepting"],
        [(src, build_guard(guard), dst) for src, guard, dst in spec["transitions"]],
    )


def build_extended(spec):
    constraints = [
        GlobalConstraint(kind, i, j, build_regex(pattern))
        for kind, i, j, pattern in spec["constraints"]
    ]
    return ExtendedAutomaton(build_automaton(spec), constraints)


def empty_database(spec):
    return Database(signature_of(spec))


def rng_for(seed, *labels):
    """A generator seeded from the run seed and a workload label (stable across runs)."""
    return random.Random("%s/%s" % (seed, "/".join(map(str, labels))))


def fresh_caches():
    """Cold caches: empty every value cache and intern table, then collect."""
    clear_value_caches()
    clear_intern_tables()
    gc.collect()
