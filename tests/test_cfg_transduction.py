"""Differential checks of the grammar triple construction.

The image of a grammar under the identity transducer of an automaton is
their intersection, and the identity keeps word lengths, so up to a
length bound the image's words are exactly the grammar's words that the
automaton accepts.
"""

import random

import pytest

from prioclose.automata import Nfa, nfa_accepts
from prioclose.cfg import (
    Cfg,
    _identity,
    _pruned,
    apply_transducer_to_cfg,
    cfg_enumerate,
    cfg_intersect_regular_empty,
)
from prioclose.core import PriorityAlphabet

AB01 = PriorityAlphabet.from_map({"a": 0, "b": 1})
BOUND = 6
SEEDS = range(60)


def random_grammar(rng: random.Random) -> Cfg:
    """Up to four nonterminals, right-hand sides of length 0 to 3."""
    nts = [f"N{i}" for i in range(rng.randint(1, 4))]
    symbols = nts + list(AB01.letters)
    prods = []
    for _ in range(rng.randint(2, 7)):
        rhs = tuple(rng.choice(symbols) for _ in range(rng.choice((0, 1, 1, 2, 2, 3))))
        prods.append((rng.choice(nts), rhs))
    # a terminal rule for the start, so that most draws are not empty
    prods.append(("N0", tuple(rng.choice(AB01.letters) for _ in range(rng.randint(1, 2)))))
    return Cfg(AB01, tuple(nts), tuple(prods), "N0")


def random_nfa(rng: random.Random) -> Nfa:
    """One to four states, letter and epsilon edges, several finals."""
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    labels = list(AB01.letters) + [None]
    edges = [
        (rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(1, 3 * len(states)))
    ]
    finals = rng.sample(states, rng.randint(1, len(states)))
    return Nfa(AB01, tuple(states), tuple(edges), states[0], tuple(finals))


@pytest.mark.parametrize("seed", SEEDS)
def test_identity_image_is_the_intersection(seed):
    rng = random.Random(seed)
    g = random_grammar(rng)
    r = random_nfa(rng)
    image = apply_transducer_to_cfg(_identity(r), g)
    want = [u for u in cfg_enumerate(g, BOUND) if nfa_accepts(r, u)]
    assert cfg_enumerate(image, BOUND) == want
    if want:
        assert not cfg_intersect_regular_empty(g, r)
    assert _pruned(image) == image


def test_draws_cover_the_cases():
    """The seeds include empty words, empty intersections, epsilon edges and
    automata with several finals."""
    with_empty = empty = with_eps = many_finals = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        g = random_grammar(rng)
        r = random_nfa(rng)
        with_empty += () in cfg_enumerate(g, 0)
        empty += cfg_intersect_regular_empty(g, r)
        with_eps += any(label is None for _, label, _ in r.edges)
        many_finals += len(r.finals) > 1
    assert with_empty and empty and with_eps and many_finals
    assert len(SEEDS) - empty >= 10
