"""``nfa_reduce``: the canonical minimal DFA when the subset construction
stays within the NFA's own size, the NFA itself otherwise."""

import random

from prioclose.automata import (
    Nfa,
    nfa_equivalent,
    nfa_equivalent_up_to,
    nfa_for_words,
    nfa_parse,
    nfa_reduce,
    nfa_serialize,
)
from prioclose.core import PriorityAlphabet
from test_trim import assert_deterministic, assert_trimmed

AB01 = PriorityAlphabet.from_map({"a": 0, "b": 1})
FLAT3 = PriorityAlphabet.from_map({"a": 0, "b": 1, "c": 2})


def random_nfa(alphabet, rng, n_states):
    """Edges drawn with epsilon as one more label, and one to three finals."""
    states = tuple(f"q{i}" for i in range(n_states))
    labels = list(alphabet.letters) + [None]
    edges = tuple(
        (rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(2 * n_states)
    )
    finals = tuple(rng.sample(states, rng.randint(1, min(3, n_states))))
    return nfa_parse(
        {"states": states, "initial": "q0", "finals": finals, "edges": edges}, alphabet
    )


def draw():
    rng = random.Random(20261018)
    return [
        random_nfa(alphabet, rng, n_states)
        for alphabet in (AB01, FLAT3)
        for n_states in (2, 3, 5, 8)
        for _ in range(8)
    ]


def disguised(nfa: Nfa, rng) -> Nfa:
    """The same language with shuffled state names and an epsilon detour
    into the initial state."""
    data = nfa_serialize(nfa)
    names = list(data["states"])
    rng.shuffle(names)
    rename = {q: f"p{names.index(q)}" for q in data["states"]}
    edges = [[rename[s], label, rename[d]] for s, label, d in data["edges"]]
    edges.append(["entry", None, rename[data["initial"]]])
    return nfa_parse(
        {
            "states": list(rename.values()) + ["entry"],
            "initial": "entry",
            "finals": [rename[f] for f in data["finals"]],
            "edges": edges,
        },
        nfa.alphabet,
    )


def test_reduced_is_deterministic_trimmed_and_equal():
    reduced = 0
    for nfa in draw():
        out = nfa_reduce(nfa)
        assert len(out.states) <= len(nfa.states)
        assert nfa_equivalent_up_to(nfa, out, 7) is None
        if out is nfa:
            continue
        reduced += 1
        assert_deterministic(out)
        assert_trimmed(out)
    assert reduced >= 48  # of 64


def test_reduced_is_canonical():
    rng = random.Random(7)
    compared = 0
    for nfa in draw():
        out = nfa_reduce(nfa)
        if out is nfa:
            continue
        other = nfa_reduce(disguised(nfa, rng))
        assert nfa_serialize(other) == nfa_serialize(out)
        assert nfa_serialize(nfa_reduce(out)) == nfa_serialize(out)
        compared += 1
    assert compared >= 48


def test_canonical_numbering_is_breadth_first():
    # a*b, once as a DFA and once bloated with a dead state and a choice
    plain = nfa_parse(
        {
            "states": ["x", "y"],
            "initial": "x",
            "finals": ["y"],
            "edges": [["x", "b", "y"], ["x", "a", "x"]],
        },
        AB01,
    )
    bloated = nfa_parse(
        {
            "states": ["s0", "s1", "s2", "dead"],
            "initial": "s0",
            "finals": ["s2"],
            "edges": [
                ["s0", "a", "s1"],
                ["s1", "a", "s1"],
                ["s0", "a", "s0"],
                ["s0", "b", "s2"],
                ["s1", "b", "s2"],
                ["dead", "a", "dead"],
            ],
        },
        AB01,
    )
    expect = {
        "states": ["q0", "q1"],
        "initial": "q0",
        "finals": ["q1"],
        "edges": [["q0", "a", "q0"], ["q0", "b", "q1"]],
    }
    assert nfa_serialize(nfa_reduce(plain)) == expect
    assert nfa_serialize(nfa_reduce(bloated)) == expect


def test_nfa_past_its_own_size_comes_back_unchanged():
    # (a|b)* a (a|b)^3 needs 16 subsets; the NFA has 5 states
    ab = PriorityAlphabet.from_map({"a": 0, "b": 0})
    edges = [("s0", "a", "s0"), ("s0", "b", "s0"), ("s0", "a", "s1")]
    for i in range(1, 4):
        edges += [(f"s{i}", "a", f"s{i + 1}"), (f"s{i}", "b", f"s{i + 1}")]
    nfa = nfa_parse(
        {"states": [f"s{i}" for i in range(5)], "initial": "s0", "finals": ["s4"], "edges": edges},
        ab,
    )
    assert nfa_reduce(nfa) is nfa
    assert nfa_equivalent(nfa, nfa)


def test_empty_language_and_empty_word():
    def two_states(edges, finals):
        data = {"states": ["q0", "q1"], "initial": "q0", "finals": finals, "edges": edges}
        return nfa_parse(data, FLAT3)

    no_finals = two_states([["q0", "a", "q1"], ["q1", None, "q0"]], [])
    dead_end = two_states([["q0", "b", "q1"]], ["q0"])
    only_eps = two_states([["q0", None, "q1"], ["q1", None, "q0"]], ["q1"])
    one_state = {"states": ["q0"], "initial": "q0", "edges": []}
    for nfa in (no_finals, nfa_for_words(FLAT3, [])):
        assert nfa_serialize(nfa_reduce(nfa)) == {**one_state, "finals": []}
    for nfa in (only_eps, dead_end, nfa_for_words(FLAT3, [()])):
        assert nfa_serialize(nfa_reduce(nfa)) == {**one_state, "finals": ["q0"]}
