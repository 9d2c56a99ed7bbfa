"""The minimal block controller against the stack controller it replaces.

``closure_regular`` builds block closures through ``_block_controller``,
whose minimal controller ``_minimal_controller`` builds level by level,
once per priority profile.  These tests pin its sizes, check it against
the minimal DFA of ``reference.stack_controller`` and check that it
closes exactly as the stack controller does.  They also check that the
state cap applies whether or not the profile is already cached.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest

from prioclose import automata
from prioclose.automata import (
    _minimal_controller,
    _product,
    closure_regular,
    nfa_for_words,
    nfa_parse,
    nfa_reduce,
    nfa_serialize,
)
from prioclose.cli import main
from prioclose.core import OrderKind, PriorityAlphabet
from reference import minimal_stack_controller, stack_controller
from test_automata import CYCLE_BESIDE_1, random_nfa

CAP = 1_000_000


@pytest.mark.parametrize("d, states", [(0, 1), (1, 3), (2, 8), (3, 13), (4, 19), (5, 26)])
def test_controller_sizes(d, states):
    _, rows = _minimal_controller(tuple(range(d + 1)), CAP)
    assert len(rows) == states


@pytest.mark.parametrize("d", range(7))
def test_levels_give_the_minimal_stack_controller(d):
    # every profile whose top priority is d, and the empty one with d = 0
    profiles = [()] if d == 0 else []
    for k in range(d + 1):
        profiles += [(*lower, d) for lower in combinations(range(d), k)]
    for profile in profiles:
        _, rows = _minimal_controller(profile, CAP)
        assert rows == minimal_stack_controller(profile), profile


@pytest.mark.parametrize(
    "priorities",
    [{"a": 0, "b": 1, "c": 1, "d": 2}, {"a": 0, "c": 2}, {}],
    ids=["two-letters-on-1", "gap-at-1", "empty"],
)
@pytest.mark.parametrize("seed", [3, 17, 58])
def test_block_closure_matches_stack_controller(priorities, seed):
    alphabet = PriorityAlphabet.from_map(priorities)
    rng = random.Random(seed)
    nfas = [random_nfa(alphabet, rng, n_states=rng.randint(2, 6)) for _ in range(6)]
    # larger draws, with more cycles for the product to merge
    nfas += [
        random_nfa(alphabet, rng, n_states=rng.randint(6, 10), n_edges=rng.randint(12, 20))
        for _ in range(3)
    ]
    if {"a", "b"} <= set(priorities):
        nfas.append(nfa_parse(CYCLE_BESIDE_1, alphabet))
    for nfa in nfas:
        via_stack = _product(
            nfa_reduce(nfa), *stack_controller(alphabet), CAP, "stack controller product"
        )
        assert closure_regular(nfa, OrderKind.BLOCK) == nfa_reduce(via_stack)


def test_state_cap_stops_the_controller_cold_and_cached(tmp_path, monkeypatch, capsys):
    alphabet = PriorityAlphabet.from_map({"a": 0, "b": 1, "c": 2, "d": 3})
    alpha = tmp_path / "alphabet.json"
    alpha.write_text(alphabet.to_json(), encoding="utf-8")
    model = tmp_path / "word.json"
    nfa = nfa_for_words(alphabet, [("a", "d", "b", "c")])
    model.write_text(json.dumps(nfa_serialize(nfa)), encoding="utf-8")
    argv = ["closure", "--type", "nfa", "--order", "block", "--alphabet", str(alpha),
            "--input", str(model), "--output", str(tmp_path / "out.json")]
    monkeypatch.setattr(automata, "_CONTROLLERS", {})

    def capped() -> None:
        assert main([*argv, "--state-cap", "5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: block controller exceeded 5 states\n"

    capped()
    assert automata._CONTROLLERS == {}
    assert main(argv) == 0
    assert list(automata._CONTROLLERS) == [(0, 1, 2, 3)]
    capsys.readouterr()
    capped()
