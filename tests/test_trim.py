"""Closure outputs are trimmed: every state lies on an accepting path."""

import json
import random

import pytest

from prioclose.automata import (
    Nfa,
    closure_regular,
    nfa_enumerate,
    nfa_parse,
    nfa_serialize,
)
from prioclose.cfg import Cfg, cfg_block_closure, cfg_priority_closure
from prioclose.cli import main
from prioclose.core import OrderKind, PriorityAlphabet
from prioclose.oca import (
    AcceptMode,
    CounterOp,
    Oca,
    oca_block_closure,
    oca_priority_closure,
)

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
        assert nfa.states == (nfa.initial,) and nfa.edges == ()
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
    return Nfa(alphabet, states, edges, "q0", (rng.choice(states),))


@pytest.mark.parametrize("order", ORDERS)
def test_regular_closures_are_trimmed(order):
    rng = random.Random(7)
    for alphabet in (AB01, FLAT3):
        for n_states in (3, 5, 8):
            for _ in range(4):
                assert_trimmed(closure_regular(random_nfa(alphabet, rng, n_states), order))


def test_grammar_and_counter_closures_are_trimmed():
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
    for closed in (
        cfg_block_closure(flagship),
        cfg_priority_closure(flagship),
        oca_block_closure(anbn),
        oca_priority_closure(anbn),
    ):
        assert closed.finals
        assert_trimmed(closed)


NO_FINALS = Nfa(
    FLAT3, ("q0", "q1"), (("q0", "a", "q1"), ("q1", "c", "q0"), ("q0", "b", "q0")), "q0", ()
)


@pytest.mark.parametrize("order", ORDERS)
def test_empty_language_closes_to_one_state(order):
    closed = closure_regular(NO_FINALS, order)
    assert (closed.states, closed.edges, closed.finals) == (("q0",), (), ())


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
    assert (closed.states, closed.finals) == (("q0",), ())
    assert nfa_enumerate(closed, 4) == []
