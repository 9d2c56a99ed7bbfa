"""The order tables behind ``closure_regular``, and its final reduction.

``closure_regular`` takes its moves in all three orders from
``_order_moves``, which builds one table per priority profile and expands
it to an alphabet's letters.  These tests check it against the public
transducers, cold and warm, on two alphabets with one profile, check
that a sparse priority closes like its rank, that the state cap counts
the product's merged states, that the product which reads each merged
state's component once agrees with the reference that reads every
member, and pin the minimal DFA of a product whose subset construction
passes its size.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from prioclose import automata
from prioclose.automata import (
    apply_transduction,
    closure_regular,
    nfa_equivalent,
    nfa_for_words,
    nfa_parse,
    nfa_reduce,
    nfa_serialize,
    priority_transducer,
    subword_transducer,
)
from prioclose.cli import main
from prioclose.core import DEFAULT_MAX_STATES, OrderKind, PriorityAlphabet, ResourceLimit
from prioclose.oca import soca_closure_nfa
from reference import reference_merged_product
from test_automata import CYCLE_BESIDE_1, random_nfa
from test_oca import five_cycle

# one priority profile, (0, 1), spelled with different letters
ALPHABETS = (
    PriorityAlphabet.from_map({"a": 0, "b": 1}),
    PriorityAlphabet.from_map({"x": 0, "y": 1, "z": 1}),
)
TRANSDUCERS = {OrderKind.SUBWORD: subword_transducer, OrderKind.PRIORITY: priority_transducer}


def clear_tables(monkeypatch) -> None:
    monkeypatch.setattr(automata, "_CONTROLLERS", {})
    monkeypatch.setattr(automata, "_PRIORITY_TABLES", {})


@pytest.mark.parametrize("order", [OrderKind.SUBWORD, OrderKind.PRIORITY])
@pytest.mark.parametrize("seed", [5, 23, 71])
def test_tables_match_the_transducers(order, seed, monkeypatch):
    rng = random.Random(seed)
    nfas = [
        random_nfa(alphabet, rng, n_states=rng.randint(2, 6))
        for alphabet in ALPHABETS
        for _ in range(5)
    ]
    # larger draws, with more cycles for the product to merge
    nfas += [
        random_nfa(alphabet, rng, n_states=rng.randint(6, 10), n_edges=rng.randint(12, 20))
        for alphabet in ALPHABETS
        for _ in range(3)
    ]
    nfas.append(nfa_parse(CYCLE_BESIDE_1, ALPHABETS[0]))
    cold = []
    for nfa in nfas:
        clear_tables(monkeypatch)
        cold.append(closure_regular(nfa, order))
        expect = nfa_reduce(apply_transduction(TRANSDUCERS[order](nfa.alphabet), nfa_reduce(nfa)))
        assert cold[-1] == expect
    # warm: the table now cached was built for the other alphabet's letters
    assert [closure_regular(nfa, order) for nfa in nfas] == cold


@pytest.mark.parametrize("order", list(OrderKind), ids=lambda o: o.value)
def test_sparse_priorities_close_like_their_ranks(order):
    dense = ALPHABETS[0]
    sparse = PriorityAlphabet.from_map({"a": 0, "b": 10**9})
    nfa = nfa_parse(CYCLE_BESIDE_1, dense)
    expected = replace(closure_regular(nfa, order), alphabet=sparse)
    assert closure_regular(replace(nfa, alphabet=sparse), order) == expected


@pytest.mark.parametrize("order", ["subword", "priority"])
def test_state_cap_stops_the_product_cold_and_cached(order, tmp_path, monkeypatch, capsys):
    alphabet = ALPHABETS[0]
    alpha = tmp_path / "alphabet.json"
    alpha.write_text(alphabet.to_json(), encoding="utf-8")
    model = tmp_path / "word.json"
    nfa = nfa_for_words(alphabet, [("a", "b", "b", "a", "b")])
    model.write_text(json.dumps(nfa_serialize(nfa)), encoding="utf-8")
    argv = ["closure", "--type", "nfa", "--order", order, "--alphabet", str(alpha),
            "--input", str(model), "--output", str(tmp_path / "out.json")]
    clear_tables(monkeypatch)

    def capped() -> None:
        assert main([*argv, "--state-cap", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(" closure product exceeded 5 states\n")

    capped()
    assert main(argv) == 0
    capsys.readouterr()
    capped()


# aa(b^6)*: a path into a priority-0 cycle, whose states are all live.
CYCLE = {
    "states": [f"q{i}" for i in range(8)],
    "initial": "q0",
    "finals": ["q2"],
    "edges": [["q0", "a", "q1"], ["q1", "a", "q2"]]
    + [[f"q{2 + i}", "b", f"q{2 + (i + 1) % 6}"] for i in range(6)],
}


def test_state_cap_counts_merged_product_states(tmp_path, capsys):
    # Subword order's one table state drops every letter in place, so the
    # cycle's six product states are one: the product has 3 states, not 8.
    alphabet = PriorityAlphabet.from_map({"a": 0, "b": 0})
    nfa = nfa_parse(CYCLE, alphabet)
    unmerged = apply_transduction(subword_transducer(alphabet), nfa_reduce(nfa))
    assert len(unmerged.states) == 8
    closed = closure_regular(nfa, OrderKind.SUBWORD, max_states=3)
    assert closed == nfa_reduce(unmerged)
    assert len(closed.states) == 3
    with pytest.raises(ResourceLimit, match="^subword closure product exceeded 2 states$"):
        closure_regular(nfa, OrderKind.SUBWORD, max_states=2)

    alpha = tmp_path / "alphabet.json"
    alpha.write_text(alphabet.to_json(), encoding="utf-8")
    model = tmp_path / "cycle.json"
    model.write_text(json.dumps(CYCLE), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["closure", "--type", "nfa", "--order", "subword", "--alphabet", str(alpha),
            "--input", str(model), "--output", str(out)]
    assert main([*argv, "--state-cap", "3"]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == nfa_serialize(closed)
    capsys.readouterr()
    assert main([*argv, "--state-cap", "2"]) == 2
    assert capsys.readouterr().err == "error: subword closure product exceeded 2 states\n"


# The 6-state NFA whose closure products in subword and block order have 4
# states, as has their minimal DFA, but whose subset construction needs 5
# subsets: past the product's own size, the closure is still its minimal DFA.
FALLBACK = {
    "states": [f"q{i}" for i in range(6)],
    "initial": "q0",
    "finals": ["q0", "q2"],
    "edges": [
        ["q0", None, "q5"], ["q0", "a", "q3"], ["q0", "b", "q1"], ["q0", "c", "q2"],
        ["q1", None, "q5"], ["q3", "b", "q2"], ["q4", "a", "q4"], ["q4", "b", "q1"],
        ["q5", None, "q2"], ["q5", "c", "q5"],
    ],
}
STATES = ["q0", "q1", "q2", "q3"]
EPS_PRODUCT = {
    "states": STATES,
    "initial": "q0",
    "finals": ["q0", "q2", "q3"],
    "edges": [
        ["q0", None, "q1"], ["q0", None, "q2"], ["q0", "a", "q1"], ["q0", "b", "q2"],
        ["q0", "c", "q2"], ["q1", None, "q3"], ["q1", "b", "q3"], ["q2", None, "q2"],
        ["q2", "c", "q2"],
    ],
}
DFA = {
    "states": STATES,
    "initial": "q0",
    "finals": ["q0", "q2", "q3"],
    "edges": [
        ["q0", "a", "q1"], ["q0", "b", "q2"], ["q0", "c", "q2"], ["q1", "b", "q3"],
        ["q2", "c", "q2"],
    ],
}


# in subword and block order "a" lies below "ab", so q1 is final too
CLOSED_DFA = {**DFA, "finals": STATES}


@pytest.mark.parametrize(
    "order, expect",
    [(OrderKind.SUBWORD, CLOSED_DFA), (OrderKind.BLOCK, CLOSED_DFA), (OrderKind.PRIORITY, DFA)],
)
def test_reduction_fallback_returns_the_trimmed_product(order, expect):
    alphabet = PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 0})
    nfa = nfa_parse(FALLBACK, alphabet)
    closed = closure_regular(nfa, order)
    assert nfa_serialize(closed) == expect
    if order is not OrderKind.PRIORITY:
        # the same language as the product that the closure once returned unreduced
        assert nfa_equivalent(closed, nfa_parse(EPS_PRODUCT, alphabet))
        # the reduced input's product fits in 4 states, and the subset construction does not
        with pytest.raises(ResourceLimit, match=f"^{order.value} closure DFA exceeded 4 states$"):
            closure_regular(nfa_reduce(nfa), order, 4)
        # the closure does not reduce its input, whose product does not fit
        with pytest.raises(ResourceLimit, match=f"^{order.value} closure product exceeded 4 states$"):
            closure_regular(nfa, order, 4)
    assert nfa_serialize(nfa_reduce(nfa)) == DFA


def product_inputs() -> list:
    """Seeded draws with epsilon moves, the cycles above, and a glued
    counter-machine skeleton whose in-place cycles have many members."""
    rng = random.Random(13)
    nfas = [
        random_nfa(alphabet, rng, n_states=rng.randint(2, 10), n_edges=rng.randint(4, 20))
        for alphabet in ALPHABETS
        for _ in range(20)
    ]
    nfas.append(nfa_parse(CYCLE_BESIDE_1, ALPHABETS[0]))
    nfas.append(nfa_parse(CYCLE, ALPHABETS[0]))
    nfas.append(nfa_parse(FALLBACK, PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 0})))
    nfas.append(soca_closure_nfa(five_cycle()))
    return nfas


@pytest.mark.parametrize("order", list(OrderKind), ids=lambda o: o.value)
def test_product_reads_components_like_their_members(order):
    for nfa in product_inputs():
        initial, moves = automata._order_moves(order, nfa.alphabet, DEFAULT_MAX_STATES)
        dfas = []
        sizes = []
        for build in (reference_merged_product, automata._merged_product):
            rows, finals = build(nfa, initial, moves, DEFAULT_MAX_STATES, "product")
            sizes.append(len(rows))
            dfas.append(automata._minimal_dfa(nfa.alphabet, rows, 0, finals, DEFAULT_MAX_STATES))
        # the same merged states, so --state-cap counts the same, and the same language
        assert sizes[0] == sizes[1]
        assert dfas[0] == dfas[1]
