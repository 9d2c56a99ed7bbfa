"""Checks behind closing every order from one skeleton per model.

``closure_regular`` maps a grammar's or counter machine's one skeleton
through the priority transducer without taking its block closure first.
That is exact only because, on a flat alphabet, lying absorbing-block-
below a word with the same last letter implies lying priority-below it.
The first test checks that implication exhaustively; the second checks
that the three model kinds give the same automaton for one regular
language written three ways, in all three orders; the last two compare
each model's priority closure with the route that builds one skeleton
per last letter (``reference.per_letter_priority_closure``).
"""

from __future__ import annotations

import random

import pytest

from prioclose import (
    AcceptMode,
    Cfg,
    CounterOp,
    Nfa,
    Oca,
    OrderKind,
    PriorityAlphabet,
    SimpleOca,
    cfg_closure,
    closure_regular,
    flatten,
    leq_priority,
    nfa_parse,
    oca_closure,
)
from prioclose.core import DEFAULT_MAX_STATES, ResourceLimit
from reference import all_words, leq_block_absorbing_ref, per_letter_priority_closure
from test_cfg import AB0, AB01, AB10, anbn, anbn_eps, empty_grammar, flagship, gap_grammar, ring
from test_oca import oca_anbn, oca_anbnc, soca_anbn

FLAT3 = PriorityAlphabet.from_map({"0": 0, "1": 1, "2": 2})
ABC = PriorityAlphabet.from_map({"a": 0, "b": 1, "c": 2})


@pytest.mark.parametrize(
    "alphabet", [FLAT3, flatten(FLAT3)], ids=["FLAT3", "flatten-FLAT3"]
)
def test_absorbing_block_below_with_same_last_letter_is_priority_below(alphabet):
    words = [w for w in all_words(alphabet.letters, 6) if w]
    related = 0
    for u in words:
        for v in words:
            if u[-1] != v[-1] or not leq_block_absorbing_ref(alphabet, u, v):
                continue
            related += 1
            assert leq_priority(alphabet, u, v), (u, v)
    assert related == 8772


# (ab)*c | ba, written as an NFA, a right-linear grammar and a
# counter machine whose edges never touch the counter.
_EDGES = (("s", "a", "t"), ("t", "b", "s"), ("s", "c", "f"), ("s", "b", "u"), ("u", "a", "f"))


def _as_nfa() -> Nfa:
    data = {"states": ["s", "t", "u", "f"], "initial": "s", "finals": ["f"], "edges": _EDGES}
    return nfa_parse(data, ABC)


def _as_cfg() -> Cfg:
    productions = (
        ("S", ("a", "T")),
        ("T", ("b", "S")),
        ("S", ("c",)),
        ("S", ("b", "U")),
        ("U", ("a",)),
    )
    return Cfg(ABC, ("S", "T", "U"), productions, "S")


def _as_oca() -> Oca:
    edges = tuple((src, label, CounterOp.NOOP, dst) for src, label, dst in _EDGES)
    return Oca(ABC, ("s", "t", "u", "f"), edges, "s", ("f",), AcceptMode.ANY_COUNTER)


@pytest.mark.parametrize(
    "order", [OrderKind.SUBWORD, OrderKind.PRIORITY, OrderKind.BLOCK], ids=lambda o: o.value
)
def test_model_kinds_agree_on_one_regular_language(order):
    expected = closure_regular(_as_nfa(), order)
    assert cfg_closure(_as_cfg(), order) == expected
    assert oca_closure(_as_oca(), order) == expected


NAMED = {
    "flagship": flagship(),
    **{f"anbn-{name}": anbn(alphabet) for name, alphabet in
       (("AB0", AB0), ("AB01", AB01), ("AB10", AB10))},
    "anbn-eps": anbn_eps(),
    "ring": ring(),
    "gap": gap_grammar(),
    "empty": empty_grammar(),
    "regular-cfg": _as_cfg(),
    **{f"{kind.__name__}-{pa}{pb}": kind(pa, pb) for kind in (soca_anbn, oca_anbn)
       for pa, pb in ((0, 0), (0, 1), (1, 0), (1, 1))},
    "oca-anbnc": oca_anbnc(),
    "regular-oca": _as_oca(),
}


def _priority_closure(model, max_states: int) -> Nfa:
    close = cfg_closure if isinstance(model, Cfg) else oca_closure
    return close(model, OrderKind.PRIORITY, max_states)


@pytest.mark.parametrize("name", NAMED)
def test_one_skeleton_matches_the_per_letter_route_on_named_models(name):
    model = NAMED[name]
    assert _priority_closure(model, DEFAULT_MAX_STATES) == per_letter_priority_closure(model)


SAMPLE_CAP = 2000
SAMPLE_ALPHABETS = (AB01, AB10, PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 1}), ABC)


def linear_grammar(rng: random.Random, alphabet: PriorityAlphabet) -> Cfg:
    """One or two nonterminals, at most one on each right-hand side, and
    a rule of letters only for the start.

    Linear grammars still pump, as aⁿbⁿ does, but keep the Kleene
    rebuild small: with more nonterminals on a side it can run for
    seconds under any state cap.
    """
    nts = [f"N{i}" for i in range(rng.randint(1, 2))]
    prods = [("N0", tuple(rng.choice(alphabet.letters) for _ in range(rng.randint(1, 2))))]
    for _ in range(rng.randint(1, 4)):
        rhs = [rng.choice(alphabet.letters) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.7:
            rhs.insert(rng.randint(0, len(rhs)), rng.choice(nts))
        prods.append((rng.choice(nts), tuple(rhs)))
    return Cfg(alphabet, tuple(nts), tuple(prods), "N0")


def small_machine(rng: random.Random, alphabet: PriorityAlphabet) -> Oca | SimpleOca:
    """Up to four states, mostly letter edges, and at least one final state."""
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    simple = rng.random() < 0.3
    ops = [CounterOp.NOOP, CounterOp.NOOP, CounterOp.INC, CounterOp.DEC]
    if not simple:
        ops.append(CounterOp.ZERO)
    edges = tuple(
        (rng.choice(states), rng.choice(alphabet.letters) if rng.random() < 0.8 else None,
         rng.choice(ops), rng.choice(states))
        for _ in range(rng.randint(len(states), 3 * len(states) + 1))
    )
    if simple:
        return SimpleOca(alphabet, tuple(states), edges, "s0", rng.choice(states))
    finals = tuple(rng.sample(states, rng.randint(1, len(states))))
    mode = rng.choice((AcceptMode.ANY_COUNTER, AcceptMode.ZERO_COUNTER))
    return Oca(alphabet, tuple(states), edges, "s0", finals, mode)


def test_one_skeleton_matches_the_per_letter_route_on_random_models():
    """Seeded grammars and counter machines over four alphabets, one with
    a priority tie.  A model whose per-letter route passes the state cap
    is skipped."""
    rng = random.Random(20261019)
    compared = 0
    for i in range(240):
        alphabet = SAMPLE_ALPHABETS[i % len(SAMPLE_ALPHABETS)]
        model = linear_grammar(rng, alphabet) if i % 2 else small_machine(rng, alphabet)
        try:
            expected = per_letter_priority_closure(model, SAMPLE_CAP)
        except ResourceLimit:
            continue
        assert _priority_closure(model, SAMPLE_CAP) == expected, (i, model)
        compared += 1
    assert compared >= 150
