"""Checks behind building priority closures straight from skeletons.

``closure_regular`` maps the clamped skeletons that
``automata._closure_from_skeletons`` joins through the priority
transducer without taking their block closure first.  That is exact
only because, on a flat alphabet, lying absorbing-block-below a word
with the same last letter implies lying priority-below it.  The first
test checks that implication exhaustively; the second checks that the
three model kinds give the same automaton for one regular language
written three ways, in all three orders.
"""

from __future__ import annotations

import pytest

from prioclose import (
    AcceptMode,
    Cfg,
    CounterOp,
    Nfa,
    Oca,
    OrderKind,
    PriorityAlphabet,
    cfg_closure,
    closure_regular,
    flatten,
    leq_priority,
    nfa_parse,
    oca_closure,
)
from reference import all_words, leq_block_absorbing_ref

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
