"""Brute-force bounded closure oracle and comparison report tests."""

import random
from itertools import product

import pytest

from prioclose.automata import closure_regular, nfa_for_words
from prioclose.cfg import Cfg, cfg_block_closure, cfg_priority_closure
from prioclose.core import OrderKind, PriorityAlphabet, ResourceLimit, parse_word
from prioclose.oca import CounterOp, SimpleOca
from prioclose.oracle import closure_bounded, compare_closure, subwords_up_to

from reference import leq_block_absorbing_ref, reference_closure_bounded

w = parse_word

EX = PriorityAlphabet.from_map(
    {"0a": 0, "0b": 0, "1a": 1, "1b": 1, "2a": 2, "2b": 2}
)
P12 = PriorityAlphabet.from_map({"1": 1, "2": 2})
AB01 = PriorityAlphabet.from_map({"a": 0, "b": 1})

ORDERS = (OrderKind.SUBWORD, OrderKind.PRIORITY, OrderKind.BLOCK)


def flagship() -> Cfg:
    return Cfg(P12, ("X",), (("X", ("1", "X", "1")), ("X", ("2",))), "X")


def soca_anbn() -> SimpleOca:
    return SimpleOca(
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


class TestClosureBounded:
    def test_block_single_word(self):
        got = closure_bounded([w("0a,1b,0a")], OrderKind.BLOCK, EX, 3)
        assert got == [w("1b"), w("0a,1b"), w("1b,0a"), w("0a,1b,0a")]

    def test_empty_input(self):
        for order in ORDERS:
            assert closure_bounded([], order, EX, 5) == []

    def test_priority_single_word(self):
        got = closure_bounded([w("0a,1b,0a")], OrderKind.PRIORITY, EX, 3)
        assert got == [(), w("1b,0a"), w("0a,1b,0a")]

    def test_monotone(self):
        small = [w("0a,1b,0a")]
        large = small + [w("2a,0b")]
        for order in ORDERS:
            lo = set(closure_bounded(small, order, EX, 4))
            hi = set(closure_bounded(large, order, EX, 4))
            assert lo <= hi
            shallow = set(closure_bounded(large, order, EX, 2))
            assert shallow <= hi

    def test_idempotent(self):
        seed = [w("0a,1b,0a"), w("2a,0b,1a")]
        for order in ORDERS:
            once = closure_bounded(seed, order, EX, 5)
            twice = closure_bounded(once, order, EX, 5)
            assert twice == once

    def test_subwords_up_to(self):
        got = subwords_up_to(w("a,b"), 2)
        assert got == {(), ("a",), ("b",), ("a", "b")}

    def test_tiny_cap_raises(self):
        for order in ORDERS:
            with pytest.raises(ResourceLimit, match="closure_bounded exceeded 3"):
                closure_bounded([w("0a,1b,2a,0b,1a,2b")], order, EX, 6, check_cap=3)

    def test_negative_bound_is_empty(self):
        for order in ORDERS:
            assert closure_bounded([w("0a,1b")], order, EX, -1) == []

    def test_foreign_letter_is_rejected(self):
        for order in ORDERS:
            with pytest.raises(ValueError, match="not in alphabet"):
                closure_bounded([w("0a"), w("0a,x")], order, EX, 0)

    def test_unknown_order_is_rejected(self):
        with pytest.raises(ValueError, match="unknown order"):
            closure_bounded([w("0a")], "subword", EX, 2)


# Ties, distinct priorities, and priorities that carry no letter.
EXHAUSTIVE_MAPS = (
    {"a": 0, "b": 0, "c": 0},
    {"a": 0, "b": 1, "c": 2},
    {"a": 0, "b": 2, "c": 2},
    {"a": 3, "b": 1, "c": 1},
)


@pytest.mark.parametrize(
    "priorities", EXHAUSTIVE_MAPS, ids=lambda m: "".join(f"{k}{p}" for k, p in m.items())
)
def test_closure_matches_reference_on_every_short_word(priorities):
    """Each generated down-set equals the leq filter's, for every word
    of length <= 6 over three letters, every bound up to |v| + 1 and
    every order."""
    alphabet = PriorityAlphabet.from_map(priorities)
    for n in range(7):
        for v in product("abc", repeat=n):
            for bound in range(n + 2):
                for order in ORDERS:
                    got = closure_bounded([v], order, alphabet, bound)
                    assert got == reference_closure_bounded([v], order, alphabet, bound), (
                        v, order, bound,
                    )


def test_closure_matches_reference_on_seeded_word_sets():
    rng = random.Random(24)
    for _ in range(200):
        words = [
            tuple(rng.choice(EX.letters) for _ in range(rng.randint(0, 9)))
            for _ in range(rng.randint(1, 6))
        ]
        bound = rng.randint(0, 8)
        for order in ORDERS:
            got = closure_bounded(words, order, EX, bound)
            assert got == reference_closure_bounded(words, order, EX, bound), (
                words, order, bound,
            )


class TestCompareClosure:
    def test_counter_machine_equal(self):
        machine = soca_anbn()
        from prioclose.oca import soca_closure_nfa

        built = closure_regular(soca_closure_nfa(machine), OrderKind.BLOCK)
        report = compare_closure(machine, OrderKind.BLOCK, built, 6, 12)
        assert report.equal
        assert report.missing_words == () and report.extra_words == ()

    def test_grammar_priority_equal(self):
        g = flagship()
        report = compare_closure(
            g, OrderKind.PRIORITY, cfg_priority_closure(g), 7, 15
        )
        assert report.equal

    def test_grammar_block_sound(self):
        # The constructed closure may exceed the pointwise relation on
        # alphabets with two positive priorities: short runs of low
        # letters soak into larger blocks.  Every oracle word must still
        # be present, and every surplus word must be absorbed.
        g = flagship()
        report = compare_closure(g, OrderKind.BLOCK, cfg_block_closure(g), 6, 14)
        assert report.missing_words == ()
        from prioclose.cfg import cfg_enumerate

        dominators = cfg_enumerate(g, 13)
        for u in report.extra_words:
            assert any(leq_block_absorbing_ref(P12, u, v) for v in dominators)

    def test_seeded_fault(self):
        model = nfa_for_words(EX, [w("0a,1b,0a")])
        broken = nfa_for_words(EX, [w("0a,1b"), w("1b,0a"), w("0a,1b,0a")])
        report = compare_closure(model, OrderKind.BLOCK, broken, 3, 6)
        assert not report.equal
        assert report.missing_words == (w("1b"),)
        assert report.extra_words == ()

    def test_report_json_shape(self):
        model = nfa_for_words(EX, [w("1b",)])
        built = closure_regular(model, OrderKind.BLOCK)
        report = compare_closure(model, OrderKind.BLOCK, built, 2, 4, model_id="m")
        data = report.to_json()
        assert data["model"] == "m"
        assert data["equal"] is True
        assert data["missingWords"] == [] and data["extraWords"] == []
        assert data["bound"] == 2 and data["domBound"] == 4

    def test_dominator_bound_below_bound_is_rejected(self):
        # Enumerating the model to 1 would miss a,a,b and report its
        # closure words as extra.
        model = nfa_for_words(AB01, [w("a,a,b")])
        built = closure_regular(model, OrderKind.PRIORITY)
        with pytest.raises(ValueError, match="dominator bound"):
            compare_closure(model, OrderKind.PRIORITY, built, 3, dom_bound=1)

    def test_negative_bound_is_rejected(self):
        # At bound -1 both sides are empty, so even a wrong closure
        # would compare equal.
        model = nfa_for_words(AB01, [w("a,a,b")])
        wrong = nfa_for_words(AB01, [w("b,b,b,b")])
        with pytest.raises(ValueError, match="nonnegative"):
            compare_closure(model, OrderKind.PRIORITY, wrong, -1)
