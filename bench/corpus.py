"""Seeded inputs for the three benchmark workloads.

Every model is defined here, never imported from the test suite, so that
editing a test cannot change what the benchmark measures.  Models are
plain dicts in the CLI's JSON formats; ``write_model`` stores one as the
pair of files the ``prioclose`` CLI reads.

Nothing in this module imports ``prioclose``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ORDERS = ("subword", "priority", "block")

# test_4's draw: seed, size and stability filter.
VERIFY_DRAW_SEED = 20260822
VERIFY_DRAW_SIZE = 50
VERIFY_BOUND = 6
VERIFY_DOM = 14
FILTER_DEEP = 18
FILTER_SHALLOW = 12
FILTER_MAX_WORDS = 200


def alphabet_json(priorities: dict[str, int]) -> dict:
    items = sorted(priorities.items(), key=lambda e: (e[1], e[0]))
    return {"letters": [{"symbol": a, "priority": p} for a, p in items]}


def write_model(workdir: Path, name: str, model: dict) -> tuple[str, str]:
    """Write ``model`` as CLI JSON; return (alphabet path, input path)."""
    alpha = workdir / f"{name}.alphabet.json"
    body = workdir / f"{name}.model.json"
    alpha.write_text(json.dumps(alphabet_json(model["alphabet"])), encoding="utf-8")
    body.write_text(json.dumps(model["data"]), encoding="utf-8")
    return str(alpha), str(body)


# --- models -----------------------------------------------------------------
# A model is {"kind": "nfa"|"cfg"|"oca", "alphabet": {letter: priority},
# "data": <the CLI's JSON for that kind>}.


def nfa_model(alphabet, states, edges, initial, finals) -> dict:
    return {
        "kind": "nfa",
        "alphabet": dict(alphabet),
        "data": {
            "states": list(states),
            "initial": initial,
            "finals": list(finals),
            "edges": [list(e) for e in edges],
        },
    }


def cfg_model(alphabet, start, productions) -> dict:
    nts = sorted({lhs for lhs, _ in productions})
    return {
        "kind": "cfg",
        "alphabet": dict(alphabet),
        "data": {
            "start": start,
            "nonterminals": nts,
            "terminals": sorted(alphabet),
            "productions": [[lhs, list(rhs)] for lhs, rhs in productions],
        },
    }


def oca_model(alphabet, states, edges, initial, finals) -> dict:
    """Counter machine accepting in a final state with counter zero."""
    return {
        "kind": "oca",
        "alphabet": dict(alphabet),
        "data": {
            "states": list(states),
            "initial": initial,
            "finals": list(finals),
            "acceptMode": "zeroCounter",
            "edges": [list(e) for e in edges],
        },
    }


def simple_oca_model(alphabet, states, edges, initial, final) -> dict:
    return {
        "kind": "oca",
        "alphabet": dict(alphabet),
        "data": {
            "simple": True,
            "states": list(states),
            "initial": initial,
            "final": final,
            "edges": [list(e) for e in edges],
        },
    }


def flagship() -> dict:
    """X -> 1X1 | 2 over priorities 1 < 2; its block closure is 1*21*."""
    return cfg_model({"1": 1, "2": 2}, "X", [("X", ("1", "X", "1")), ("X", ("2",))])


def anbn(pa: int, pb: int) -> dict:
    return cfg_model(
        {"a": pa, "b": pb}, "S", [("S", ("a", "S", "b")), ("S", ("a", "b"))]
    )


def ring(pa: int, pb: int, pc: int, pd: int) -> dict:
    """X -> abXc | d: nested pairs with a two-letter opening."""
    return cfg_model(
        {"a": pa, "b": pb, "c": pc, "d": pd},
        "X",
        [("X", ("a", "b", "X", "c")), ("X", ("d",))],
    )


def oca_anbnc() -> dict:
    return oca_model(
        {"a": 0, "b": 0, "c": 1},
        ("q0", "q1", "f"),
        (
            ("q0", "a", "inc", "q0"),
            ("q0", "b", "dec", "q1"),
            ("q1", "b", "dec", "q1"),
            ("q1", "c", "zero", "f"),
            ("q0", "c", "zero", "f"),
        ),
        "q0",
        ("f",),
    )


def oca_anbn(pa: int, pb: int) -> dict:
    return oca_model(
        {"a": pa, "b": pb},
        ("q0", "q1"),
        (
            ("q0", "a", "inc", "q0"),
            ("q0", None, "noop", "q1"),
            ("q1", "b", "dec", "q1"),
        ),
        "q0",
        ("q1",),
    )


def oca_droppable() -> dict:
    """A single zero test, so the closure must keep the empty word only."""
    return oca_model({"c": 0}, ("q0", "f"), (("q0", "c", "zero", "f"),), "q0", ("f",))


def cycle(k: int) -> dict:
    """Simple counter machine on a k-cycle: a increments one step on,
    b decrements two steps on."""
    states = [f"q{i}" for i in range(k)]
    edges = []
    for i in range(k):
        edges.append((f"q{i}", "a", "inc", f"q{(i + 1) % k}"))
        edges.append((f"q{i}", "b", "dec", f"q{(i + 2) % k}"))
    return simple_oca_model({"a": 0, "b": 1}, states, edges, "q0", "q0")


# --- regular workload -------------------------------------------------------

REGULAR_SIZES = (8, 16, 24, 32)
REGULAR_TOP_PRIORITIES = (1, 2, 3, 4, 5)
REGULAR_PER_CELL = 4


def random_regular_nfa(rng: random.Random, n: int, d: int) -> dict:
    """An n-state NFA whose alphabet has priorities 0..d.

    The draw is stratified so that output sizes vary little between
    seeds: the letter count is fixed per d (1 or 2 letters per priority,
    about half with 2), every state is reachable through a random
    spanning tree, each state gets two more random letter edges, and the
    numbers of epsilon edges and final states are fixed per n.
    """
    twos = set(rng.sample(range(d + 1), (d + 2) // 2))
    alphabet = {
        f"{'ab'[j]}{p}": p for p in range(d + 1) for j in range(2 if p in twos else 1)
    }
    letters = sorted(alphabet)
    states = [f"s{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        edges.add((states[rng.randrange(i)], rng.choice(letters), states[i]))
    for src in states:
        for _ in range(2):
            edges.add((src, rng.choice(letters), rng.choice(states)))
    for _ in range(n // 8):
        edges.add((rng.choice(states), None, rng.choice(states)))
    finals = sorted(rng.sample(states, max(1, n // 4)))
    ordered = sorted(edges, key=lambda e: (e[0], e[1] or "", e[2]))
    return nfa_model(alphabet, states, ordered, "s0", finals)


def regular_models(seed: int) -> dict[str, dict]:
    rng = random.Random(seed)
    models = {}
    for d in REGULAR_TOP_PRIORITIES:
        for n in REGULAR_SIZES:
            for j in range(REGULAR_PER_CELL):
                models[f"r-d{d}-n{n}-{j}"] = random_regular_nfa(rng, n, d)
    return models


# --- pipeline workload ------------------------------------------------------


def pipeline_models() -> dict[str, dict]:
    models = {
        "flagship": flagship(),
        "anbn-AB0": anbn(0, 0),
        "anbn-AB01": anbn(0, 1),
        "anbn-AB10": anbn(1, 0),
        # test_6's all-zero ring.
        "ring-0": ring(0, 0, 0, 0),
        # The slowest closure measured at the seed, in priority order.
        "ring-a0b1c2d0": ring(0, 1, 2, 0),
        "oca-anbnc": oca_anbnc(),
        "oca-anbn01": oca_anbn(0, 1),
        "oca-anbn10": oca_anbn(1, 0),
    }
    for k in range(2, 7):
        models[f"cycle-{k}"] = cycle(k)
    return models


# (model, order) pairs of the pipeline workload.  ring-0's priority closure
# is left out: it costs as much as ring-a0b1c2d0's and would add a second
# 24-second item to every pass.
PIPELINE_ITEMS = tuple(
    [(m, o) for m in ("flagship", "anbn-AB0", "anbn-AB01", "anbn-AB10") for o in ("block", "priority")]
    + [("ring-0", "block"), ("ring-a0b1c2d0", "block"), ("ring-a0b1c2d0", "priority")]
    + [(m, o) for m in ("oca-anbnc", "oca-anbn01", "oca-anbn10") for o in ("block", "priority")]
    + [(f"cycle-{k}", "block") for k in range(2, 7)]
)

# Oracle bounds for the untimed check of each pipeline item:
# (bound, dominator depth, exact).  With ``exact`` the oracle's bounded
# closure at these depths equals the true closure up to the bound (the
# seed construction matches it word for word), so the output must equal
# it.  Without it the depth is too shallow to decide, and only the
# oracle's words are required to be accepted.  The bounds are those of
# tests/test_acceptance.py where it checks the model, or smaller.
PIPELINE_CHECKS = {
    ("flagship", "block"): (6, 13, True),
    ("flagship", "priority"): (7, 15, True),
    ("anbn-AB0", "block"): (6, 12, True),
    ("anbn-AB0", "priority"): (6, 12, True),
    ("anbn-AB01", "block"): (6, 12, True),
    ("anbn-AB01", "priority"): (6, 12, True),
    ("anbn-AB10", "block"): (6, 12, True),
    ("anbn-AB10", "priority"): (6, 12, True),
    ("ring-0", "block"): (5, 16, True),
    ("ring-a0b1c2d0", "block"): (5, 16, True),
    ("ring-a0b1c2d0", "priority"): (5, 16, True),
    ("oca-anbnc", "block"): (6, 12, True),
    ("oca-anbnc", "priority"): (6, 12, True),
    ("oca-anbn01", "block"): (6, 12, True),
    ("oca-anbn01", "priority"): (6, 12, True),
    ("oca-anbn10", "block"): (6, 12, True),
    ("oca-anbn10", "priority"): (6, 12, True),
    ("cycle-2", "block"): (5, 12, True),
    ("cycle-3", "block"): (5, 10, True),
    ("cycle-4", "block"): (4, 12, True),
    ("cycle-5", "block"): (5, 10, True),
    ("cycle-6", "block"): (5, 12, True),
}


# --- verify workload --------------------------------------------------------


def test4_random_nfa(rng: random.Random) -> dict:
    """test_4's generator, call for call, so the same seed gives the same NFA:
    up to five states over {a, b} with priorities drawn from {0, 1}."""
    n = rng.randint(1, 5)
    states = [f"q{i}" for i in range(n)]
    pa, pb = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1)])
    edges = []
    for src in states:
        for letter in ("a", "b"):
            for dst in states:
                if rng.random() < 0.18:
                    edges.append((src, letter, dst))
        for dst in states:
            if rng.random() < 0.05:
                edges.append((src, None, dst))
    finals = [s for s in states if rng.random() < 0.4] or [states[-1]]
    return nfa_model({"a": pa, "b": pb}, states, edges, "q0", finals)


def verify_machines() -> dict[str, tuple[dict, tuple[str, ...], int, int]]:
    """test_5's and test_6's oracle comparisons: model, orders, bound, depth."""
    both = ("block", "priority")
    return {
        "oca-anbnc": (oca_anbnc(), both, 6, 12),
        "oca-anbn01": (oca_anbn(0, 1), both, 6, 12),
        "oca-anbn10": (oca_anbn(1, 0), both, 6, 12),
        "oca-droppable": (oca_droppable(), both, 6, 12),
        "flagship": (flagship(), ("priority",), 7, 15),
    }


# Draw members whose deep enumeration is timed, and the (member, order)
# pairs that get a seeded fault.  They are the same for every seed, so
# that the seed changes which word a fault drops or adds but not how much
# work the pass does.
VERIFY_DEEP_ENUMERATIONS = (0, 10, 20, 30, 40)
VERIFY_FAULTS = tuple((i, ORDERS[i % 3]) for i in range(2, 50, 5))
