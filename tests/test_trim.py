"""Closure outputs are trimmed: every state lies on an accepting path."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from prioclose.automata import (
    Nfa,
    closure_regular,
    nfa_concat,
    nfa_enumerate,
    nfa_for_words,
    nfa_parse,
    nfa_serialize,
    nfa_union,
)
from prioclose.cfg import (
    Cfg,
    acyclic_nfa,
    cfg_block_closure,
    cfg_closure,
    cfg_priority_closure,
    cfg_serialize,
)
from prioclose.cli import main
from prioclose.core import OrderKind, PriorityAlphabet
from prioclose.oca import (
    AcceptMode,
    CounterOp,
    Oca,
    SimpleOca,
    _glue_nfa,
    oca_block_closure,
    oca_closure,
    oca_priority_closure,
    soca_closure_nfa,
)

from reference import KleeneSteps

ROOT = Path(__file__).resolve().parents[1]
ORDERS = [OrderKind.SUBWORD, OrderKind.PRIORITY, OrderKind.BLOCK]
AB01 = PriorityAlphabet.from_map({"a": 0, "b": 1})
FLAT3 = PriorityAlphabet.from_map({"a": 0, "b": 1, "c": 2})
P12 = PriorityAlphabet.from_map({"1": 1, "2": 2})


def _reach(start, adj):
    seen = set(start)
    stack = list(start)
    while stack:
        for nxt in adj.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def assert_trimmed(nfa: Nfa) -> None:
    if not nfa.finals:
        data = nfa_serialize(nfa)
        assert data["states"] == [data["initial"]] and data["edges"] == []
        return
    fwd, bwd = {}, {}
    for src, _, dst in nfa.edges:
        fwd.setdefault(src, []).append(dst)
        bwd.setdefault(dst, []).append(src)
    assert _reach([nfa.initial], fwd) == set(nfa.states)
    assert _reach(nfa.finals, bwd) == set(nfa.states)


def random_nfa(alphabet, rng, n_states):
    states = tuple(f"q{i}" for i in range(n_states))
    labels = list(alphabet.letters) + [None]
    edges = tuple(
        (rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(2 * n_states)
    )
    data = {"states": states, "initial": "q0", "finals": [rng.choice(states)], "edges": edges}
    return nfa_parse(data, alphabet)


@pytest.mark.parametrize("order", ORDERS)
def test_regular_closures_are_trimmed(order):
    rng = random.Random(7)
    for alphabet in (AB01, FLAT3):
        for n_states in (3, 5, 8):
            for _ in range(4):
                assert_trimmed(closure_regular(random_nfa(alphabet, rng, n_states), order))


def assert_deterministic(nfa: Nfa) -> None:
    moves = [(src, label) for src, label, _ in nfa.edges]
    assert None not in {label for _, label in moves}
    assert len(moves) == len(set(moves))


def test_grammar_and_counter_closures_are_trimmed():
    """Every grammar and counter-machine closure is a trimmed DFA."""
    flagship = Cfg(
        P12, ("X",), (("X", ("1", "X", "1")), ("X", ("2",))), "X"
    )
    anbn = Oca(
        AB01,
        ("q0", "q1"),
        (
            ("q0", "a", CounterOp.INC, "q0"),
            ("q0", None, CounterOp.NOOP, "q1"),
            ("q1", "b", CounterOp.DEC, "q1"),
        ),
        "q0",
        ("q1",),
        AcceptMode.ZERO_COUNTER,
    )
    closures = [
        cfg_block_closure(flagship),
        cfg_priority_closure(flagship),
        oca_block_closure(anbn),
        oca_priority_closure(anbn),
        oca_block_closure(OCA_ANBNC),
        oca_priority_closure(OCA_ANBNC),
    ]
    for closure, model in ((cfg_closure, RING), (oca_closure, SOCA_ANBN)):
        by_order = {order: closure(model, order) for order in ORDERS}
        closures += by_order.values()
        # Subword order closes the skeleton itself.  That must agree with block
        # order on an all-zero alphabet, and with closing the block closure.
        zeroed = PriorityAlphabet(tuple((a, 0) for a in model.alphabet.letters))
        via_zeroed = closure(replace(model, alphabet=zeroed), OrderKind.BLOCK)
        subword = by_order[OrderKind.SUBWORD]
        assert subword == replace(via_zeroed, alphabet=model.alphabet)
        assert subword == closure_regular(by_order[OrderKind.BLOCK], OrderKind.SUBWORD)
    for closed in closures:
        assert closed.finals
        assert_trimmed(closed)
        assert_deterministic(closed)


def _closures_under_hash_seeds(tmp_path, kind, order, alphabet, data) -> set[bytes]:
    alpha = tmp_path / "alphabet.json"
    alpha.write_text(alphabet.to_json(), encoding="utf-8")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data), encoding="utf-8")
    outputs = set()
    for seed in ("0", "1", "2"):
        out = tmp_path / f"closure-{seed}.json"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
        subprocess.run(
            [sys.executable, "-m", "prioclose.cli", "closure", "--type", kind,
             "--order", order, "--alphabet", str(alpha), "--input", str(model),
             "--output", str(out)],
            env=env,
            capture_output=True,
            timeout=120,
            check=True,
        )
        outputs.add(out.read_bytes())
    return outputs


def test_cli_grammar_closure_ignores_hash_seed(tmp_path):
    outputs = _closures_under_hash_seeds(
        tmp_path, "cfg", "priority", RING.alphabet, cfg_serialize(RING)
    )
    assert len(outputs) == 1


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
def test_cli_nfa_closure_ignores_hash_seed(tmp_path, order):
    nfa = random_nfa(FLAT3, random.Random(11), 6)
    outputs = _closures_under_hash_seeds(
        tmp_path, "nfa", order.value, FLAT3, nfa_serialize(nfa)
    )
    assert len(outputs) == 1
    closed = json.loads(outputs.pop())
    assert closed["finals"] and closed["initial"] == "q0"


NO_FINALS = nfa_parse(
    {
        "states": ["q0", "q1"],
        "initial": "q0",
        "finals": [],
        "edges": [["q0", "a", "q1"], ["q1", "c", "q0"], ["q0", "b", "q0"]],
    },
    FLAT3,
)
ONE_STATE_NO_FINALS = {"states": ["q0"], "initial": "q0", "finals": [], "edges": []}


@pytest.mark.parametrize("order", ORDERS)
def test_empty_language_closes_to_one_state(order):
    closed = closure_regular(NO_FINALS, order)
    assert nfa_serialize(closed) == ONE_STATE_NO_FINALS


def test_cli_writes_and_rereads_empty_closure(tmp_path, capsys):
    alpha = tmp_path / "alphabet.json"
    alpha.write_text(FLAT3.to_json(), encoding="utf-8")
    model = tmp_path / "empty.json"
    model.write_text(json.dumps(nfa_serialize(NO_FINALS)), encoding="utf-8")
    out = tmp_path / "closure.json"
    code = main(
        [
            "closure",
            "--type",
            "nfa",
            "--order",
            "block",
            "--alphabet",
            str(alpha),
            "--input",
            str(model),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("states=1 ")
    closed = nfa_parse(json.loads(out.read_text(encoding="utf-8")), FLAT3)
    assert nfa_serialize(closed) == ONE_STATE_NO_FINALS
    assert nfa_enumerate(closed, 4) == []


# q2 is reachable but cannot reach the final state q1.
WITH_DEAD = nfa_parse(
    {
        "states": ["q0", "q1", "q2"],
        "initial": "q0",
        "finals": ["q1"],
        "edges": [["q0", "a", "q1"], ["q0", "b", "q2"], ["q1", "b", "q1"], ["q2", "a", "q2"]],
    },
    AB01,
)
FLAGSHIP = Cfg(P12, ("X",), (("X", ("1", "X", "1")), ("X", ("2",))), "X")
RING = Cfg(
    PriorityAlphabet.from_map({"a": 0, "b": 1, "c": 2, "d": 0}),
    ("X",),
    (("X", ("a", "b", "X", "c")), ("X", ("d",))),
    "X",
)
# Loops anchored at q0 that have moved on to q1 never return.
SOCA_ANBN = SimpleOca(
    AB01,
    ("q0", "q1"),
    (
        ("q0", "a", CounterOp.INC, "q0"),
        ("q0", None, CounterOp.NOOP, "q1"),
        ("q1", "b", CounterOp.DEC, "q1"),
    ),
    "q0",
    "q1",
)
OCA_ANBNC = Oca(
    PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 1}),
    ("q0", "q1", "f"),
    (
        ("q0", "a", CounterOp.INC, "q0"),
        ("q0", "b", CounterOp.DEC, "q1"),
        ("q1", "b", CounterOp.DEC, "q1"),
        ("q1", "c", CounterOp.ZERO, "f"),
        ("q0", "c", CounterOp.ZERO, "f"),
    ),
    "q0",
    ("f",),
    AcceptMode.ZERO_COUNTER,
)
BUILDERS = {
    "acyclic-flagship": lambda: acyclic_nfa(KleeneSteps(FLAGSHIP).kleene()),
    "acyclic-ring": lambda: acyclic_nfa(KleeneSteps(RING).kleene()),
    "soca": lambda: soca_closure_nfa(SOCA_ANBN),
    "glue": lambda: _glue_nfa(OCA_ANBNC),
    "union": lambda: nfa_union(WITH_DEAD, nfa_for_words(AB01, [("b", "b")])),
    "concat": lambda: nfa_concat(WITH_DEAD, WITH_DEAD),
    "words": lambda: nfa_for_words(AB01, [("a", "b"), (), ("a", "b"), ("b",)]),
    "no-words": lambda: nfa_for_words(AB01, []),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_skeleton_builders_are_trimmed(build):
    assert_trimmed(build())
