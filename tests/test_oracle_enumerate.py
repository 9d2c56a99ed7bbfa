"""Differential tests: the oracle's enumerators against plain versions.

The functions named ``plain_*`` below are the straightforward
breadth-first and fixpoint enumerators the package used before its
enumerators were memoised and pruned.  They keep no cache and prune
nothing, so every answer of the fast versions is compared with them on
seeded random models, word for word and in the same order.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from prioclose import automata
from prioclose.automata import Nfa, nfa_enumerate, nfa_parse, nfa_serialize
from prioclose.cfg import Cfg, cfg_enumerate
from prioclose.core import PriorityAlphabet, Word
from prioclose.oca import (
    AcceptMode,
    CounterOp,
    Oca,
    SimpleOca,
    _apply_op,
    _counter_cap,
    _oca_adjacency,
    oca_accepts_bounded,
    oca_enumerate,
)
from prioclose.oracle import subwords_up_to

AB = PriorityAlphabet.from_map({"a": 0, "b": 1})
ABC = PriorityAlphabet.from_map({"a": 0, "b": 1, "c": 2})


def _key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def plain_nfa_enumerate(nfa: Nfa, bound: int) -> list[Word]:
    def close(states):
        seen = set(states)
        stack = list(seen)
        while stack:
            q = stack.pop()
            for src, label, dst in nfa.edges:
                if src == q and label is None and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def step(states, letter):
        return close(
            {dst for src, label, dst in nfa.edges if src in states and label == letter}
        )

    finals = set(nfa.finals)
    frontier = {(): close([nfa.initial])}
    found = []
    for _ in range(bound + 1):
        for word in sorted(frontier):
            if frontier[word] & finals:
                found.append(word)
        nxt = {}
        for word, states in frontier.items():
            for letter in nfa.alphabet.letters:
                stepped = step(states, letter)
                if stepped:
                    nxt[word + (letter,)] = stepped
        frontier = nxt
        if not frontier:
            break
    return sorted(set(found), key=_key)


def plain_subwords_up_to(word: Word, bound: int) -> set[Word]:
    out = set()
    n = len(word)
    for k in range(0, min(bound, n) + 1):
        for pick in combinations(range(n), k):
            out.add(tuple(word[i] for i in pick))
    return out


def plain_oca_enumerate(machine, bound: int, counter_cap: int | None = None):
    if counter_cap is None:
        counter_cap = _counter_cap(len(machine.states), bound)
    adj = _oca_adjacency(machine.edges)
    final_set = set(machine.finals)
    mode = machine.accept_mode

    def close(configs):
        seen = set(configs)
        stack = list(configs)
        while stack:
            state, counter = stack.pop()
            for label, op, dst in adj.get(state, ()):
                if label is not None:
                    continue
                nxt_counter = _apply_op(op, counter, counter_cap)
                if nxt_counter is None or (dst, nxt_counter) in seen:
                    continue
                seen.add((dst, nxt_counter))
                stack.append((dst, nxt_counter))
        return frozenset(seen)

    def accepted(configs):
        return any(
            state in final_set and (mode is AcceptMode.ANY_COUNTER or counter == 0)
            for state, counter in configs
        )

    frontier = {(): close(frozenset([(machine.initial, 0)]))}
    found = []
    for _ in range(bound + 1):
        for word in sorted(frontier):
            if accepted(frontier[word]):
                found.append(word)
        nxt = {}
        for word, configs in frontier.items():
            for letter in machine.alphabet.letters:
                stepped = set()
                for state, counter in configs:
                    for label, op, dst in adj.get(state, ()):
                        if label != letter:
                            continue
                        nxt_counter = _apply_op(op, counter, counter_cap)
                        if nxt_counter is not None:
                            stepped.add((dst, nxt_counter))
                if stepped:
                    nxt[word + (letter,)] = close(frozenset(stepped))
        frontier = nxt
        if not frontier:
            break
    return sorted(set(found), key=_key)


def plain_cfg_enumerate(g: Cfg, bound: int) -> list[Word]:
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    letters = set(g.alphabet.letters)
    yields = {nt: set() for nt in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            words = {()}
            for sym in rhs:
                options = {(sym,)} if sym in letters else yields[sym]
                words = {
                    prefix + extra
                    for prefix in words
                    for extra in options
                    if len(prefix) + len(extra) <= bound
                }
                if not words:
                    break
            new = words - yields[lhs]
            if new:
                yields[lhs] |= new
                changed = True
    return sorted(yields[g.start], key=_key)


def random_nfa(rng: random.Random, alphabet: PriorityAlphabet) -> Nfa:
    """Small NFA with ε-edges; may have dead, unreachable or no finals."""
    n = rng.randint(1, 6)
    states = [f"q{i}" for i in range(n)]
    labels = list(alphabet.letters) + [None]
    edges = [
        (rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(0, 2 * n + 2))
    ]
    if n > 1 and rng.random() < 0.3:  # an ε-cycle
        a, b = rng.sample(states, 2)
        edges += [(a, None, b), (b, None, a)]
    finals = rng.sample(states, rng.randint(0, min(3, n)))
    return nfa_parse(
        {"states": states, "initial": rng.choice(states), "finals": finals, "edges": edges},
        alphabet,
    )


def test_letters_to_final_treats_epsilon_edges_as_free():
    n = nfa_parse(
        {
            "states": ["p", "q", "r", "s", "t"],
            "initial": "p",
            "finals": ["s"],
            "edges": [["p", None, "q"], ["q", "a", "r"], ["r", None, "s"], ["t", "b", "t"]],
        },
        AB,
    )
    data = nfa_serialize(n)
    dist = automata._letters_to_final(data["edges"], data["finals"])
    assert dist == {"s": 0, "r": 0, "q": 1, "p": 1}


def test_nfa_enumerate_matches_plain_on_shaped_cases():
    chain = nfa_parse(
        {
            "states": ["p", "q", "r"],
            "initial": "p",
            "finals": ["r"],
            "edges": [["p", None, "q"], ["q", "a", "r"], ["r", None, "p"]],
        },
        AB,
    )
    dead = nfa_parse(
        {"states": ["p", "q"], "initial": "p", "finals": [], "edges": [["p", "a", "q"], ["q", "b", "q"]]},
        AB,
    )
    initial_final = nfa_parse(
        {"states": ["p"], "initial": "p", "finals": ["p"], "edges": [["p", "b", "p"]]}, AB
    )
    for nfa in (chain, dead, initial_final):
        for bound in range(-1, 11):
            assert nfa_enumerate(nfa, bound) == plain_nfa_enumerate(nfa, bound)


@pytest.mark.parametrize("seed", range(4))
def test_nfa_enumerate_matches_plain_on_random_nfas(seed):
    rng = random.Random(8000 + seed)
    for i in range(40):
        alphabet = ABC if i % 4 == 0 else AB
        nfa = random_nfa(rng, alphabet)
        top = 7 if alphabet is ABC else 10
        for bound in range(-1, top + 1):
            got = nfa_enumerate(nfa, bound)
            assert got == plain_nfa_enumerate(nfa, bound), (seed, i, bound, nfa)


def test_nfa_enumerate_steps_nothing_beyond_reach(monkeypatch):
    # The only word is a,a,a: a bound of 2 must be settled by the
    # distance alone, and a bound of 3 steps along that one word only.
    chain = nfa_parse(
        {
            "states": ["q0", "q1", "q2", "q3"],
            "initial": "q0",
            "finals": ["q3"],
            "edges": [["q0", "a", "q1"], ["q1", "a", "q2"], ["q2", "a", "q3"]],
        },
        AB,
    )
    stepped = []
    real_walk = automata._enumerate_walk

    def counting_walk(letters, start, step, lower, accepting, bound):
        def counting_step(states, letter):
            stepped.append((states, letter))
            return step(states, letter)

        return real_walk(letters, start, counting_step, lower, accepting, bound)

    monkeypatch.setattr(automata, "_enumerate_walk", counting_walk)
    assert nfa_enumerate(chain, 2) == []
    assert stepped == []
    assert nfa_enumerate(chain, 3) == [("a", "a", "a")]
    assert len(stepped) == 3 * len(AB.letters)


def test_subwords_up_to_matches_plain_on_every_short_word():
    # plain_subwords_up_to at a bound keeps exactly the subwords of at
    # most that length, so it is run once per word and cut per bound.
    for n in range(9):
        for word in product("abc", repeat=n):
            every = plain_subwords_up_to(word, n)
            assert subwords_up_to(word, -1) == plain_subwords_up_to(word, -1)
            for bound in range(10):
                want = {u for u in every if len(u) <= bound}
                assert subwords_up_to(word, bound) == want, (word, bound)


def random_oca(rng: random.Random, alphabet: PriorityAlphabet):
    n = rng.randint(1, 4)
    states = [f"s{i}" for i in range(n)]
    labels = list(alphabet.letters) + [None]
    simple = rng.random() < 0.3
    ops = [CounterOp.INC, CounterOp.DEC, CounterOp.NOOP]
    if not simple:
        ops.append(CounterOp.ZERO)
    edges = [
        (rng.choice(states), rng.choice(labels), rng.choice(ops), rng.choice(states))
        for _ in range(rng.randint(1, 3 * n + 1))
    ]
    if simple:
        return SimpleOca(alphabet, tuple(states), tuple(edges), states[0], rng.choice(states))
    mode = rng.choice((AcceptMode.ANY_COUNTER, AcceptMode.ZERO_COUNTER))
    finals = rng.sample(states, rng.randint(0, n))
    return Oca(alphabet, tuple(states), tuple(edges), rng.choice(states), tuple(finals), mode)


def test_oca_enumerate_matches_plain_on_shaped_cases():
    # Each letter is followed by an ε-move that the last letter's
    # closure does not already cover, and zero mode needs the counter
    # drained by ε-moves.
    letter_then_eps = Oca(
        AB,
        ("q", "p", "f"),
        (
            ("q", "a", CounterOp.INC, "p"),
            ("p", None, CounterOp.DEC, "f"),
            ("f", "b", CounterOp.NOOP, "q"),
        ),
        "q",
        ("f",),
    )
    zero_mode = Oca(
        AB,
        ("q", "p", "f"),
        (
            ("q", "a", CounterOp.INC, "q"),
            ("q", "b", CounterOp.NOOP, "p"),
            ("p", None, CounterOp.DEC, "p"),
            ("p", None, CounterOp.ZERO, "f"),
        ),
        "q",
        ("f",),
        AcceptMode.ZERO_COUNTER,
    )
    anbn = SimpleOca(
        AB,
        ("q0", "q1"),
        (
            ("q0", "a", CounterOp.INC, "q0"),
            ("q0", None, CounterOp.NOOP, "q1"),
            ("q1", "b", CounterOp.DEC, "q1"),
        ),
        "q0",
        "q1",
    )
    for machine in (letter_then_eps, zero_mode, anbn):
        for bound in range(-1, 9):
            got = oca_enumerate(machine, bound)
            assert got == plain_oca_enumerate(machine, bound), (machine, bound)


@pytest.mark.parametrize("seed", range(3))
def test_oca_enumerate_matches_plain_on_random_machines(seed):
    rng = random.Random(8100 + seed)
    for i in range(40):
        machine = random_oca(rng, AB)
        for bound in range(-1, 8):
            got = oca_enumerate(machine, bound)
            assert got == plain_oca_enumerate(machine, bound), (seed, i, bound)
        for cap in (0, 1, 3):
            got = oca_enumerate(machine, 6, counter_cap=cap)
            assert got == plain_oca_enumerate(machine, 6, cap), (seed, i, cap)


@pytest.mark.parametrize("seed", range(3))
def test_oca_accepts_bounded_agrees_with_oca_enumerate(seed):
    rng = random.Random(8100 + seed)
    modes = set()
    for i in range(40):
        machine = random_oca(rng, AB)
        modes.add(machine.accept_mode)
        for cap in (0, 1, 3, None):
            for n in range(7):
                accepted = set(oca_enumerate(machine, n, cap))
                for word in product(AB.letters, repeat=n):
                    got = oca_accepts_bounded(machine, word, cap)
                    assert got == (word in accepted), (seed, i, cap, word)
    assert modes == set(AcceptMode)


def test_negative_counter_cap_is_rejected():
    machine = SimpleOca(
        AB, ("q",), (("q", "a", CounterOp.INC, "q"),), "q", "q"
    )
    with pytest.raises(ValueError, match="counter cap"):
        oca_enumerate(machine, 2, counter_cap=-1)
    with pytest.raises(ValueError, match="counter cap"):
        oca_accepts_bounded(machine, ("a",), counter_cap=-1)
    assert oca_enumerate(machine, 2, counter_cap=0) == [()]
    assert not oca_accepts_bounded(machine, ("a",), counter_cap=0)


def random_cfg(rng: random.Random, alphabet: PriorityAlphabet) -> Cfg:
    """Grammar with ε- and unit productions; may derive nothing."""
    nts = [f"N{i}" for i in range(rng.randint(1, 4))]
    symbols = nts + list(alphabet.letters)
    prods = []
    for _ in range(rng.randint(1, 3 * len(nts) + 1)):
        shape = rng.random()
        if shape < 0.15:
            rhs = ()
        elif shape < 0.35:
            rhs = (rng.choice(nts),)
        else:
            rhs = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3)))
        prods.append((rng.choice(nts), rhs))
    return Cfg(alphabet, tuple(nts), tuple(prods), rng.choice(nts))


@pytest.mark.parametrize("seed", range(3))
def test_cfg_enumerate_matches_plain_on_random_grammars(seed):
    rng = random.Random(8200 + seed)
    for i in range(40):
        g = random_cfg(rng, AB)
        for bound in range(0, 8):
            assert cfg_enumerate(g, bound) == plain_cfg_enumerate(g, bound), (seed, i, bound)
        with pytest.raises(ValueError):
            cfg_enumerate(g, -1)
