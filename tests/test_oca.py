"""Counter automaton semantics and closure tests."""

import pytest

from prioclose.automata import (
    closure_regular,
    nfa_enumerate,
    nfa_equivalent_up_to,
    nfa_parse,
)
from prioclose.core import OrderKind, PriorityAlphabet, ResourceLimit, parse_word
from prioclose.oca import (
    AcceptMode,
    CounterOp,
    Oca,
    SimpleOca,
    oca_accepts_bounded,
    oca_block_closure,
    oca_enumerate,
    oca_parse,
    oca_priority_closure,
    oca_serialize,
    oca_to_dot,
    soca_closure_nfa,
)
from prioclose.oracle import closure_bounded

w = parse_word

ABC = PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 1})


def ab_alphabet(pa, pb):
    return PriorityAlphabet.from_map({"a": pa, "b": pb})


def soca_anbn(pa=0, pb=0) -> SimpleOca:
    return SimpleOca(
        ab_alphabet(pa, pb),
        ("q0", "q1"),
        (
            ("q0", "a", CounterOp.INC, "q0"),
            ("q0", None, CounterOp.NOOP, "q1"),
            ("q1", "b", CounterOp.DEC, "q1"),
        ),
        "q0",
        "q1",
    )


def five_cycle() -> SimpleOca:
    """a increments one step round a 5-cycle, b decrements two steps on."""
    edges = []
    for i in range(5):
        edges.append((f"q{i}", "a", CounterOp.INC, f"q{(i + 1) % 5}"))
        edges.append((f"q{i}", "b", CounterOp.DEC, f"q{(i + 2) % 5}"))
    states = tuple(f"q{i}" for i in range(5))
    return SimpleOca(ab_alphabet(0, 1), states, tuple(edges), "q0", "q0")


def oca_anbn(pa=0, pb=0) -> Oca:
    s = soca_anbn(pa, pb)
    return Oca(s.alphabet, s.states, s.edges, s.initial, (s.final,), AcceptMode.ZERO_COUNTER)


def oca_anbnc() -> Oca:
    return Oca(
        ABC,
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


class TestSemantics:
    def test_accepts_bounded(self):
        s = soca_anbn()
        assert oca_accepts_bounded(s, w("a,a,b,b"), 8)
        assert not oca_accepts_bounded(s, w("a,b,b"), 8)
        assert oca_accepts_bounded(s, ())
        assert not oca_accepts_bounded(s, w("a"))

    def test_zero_guard(self):
        m = oca_anbnc()
        assert oca_accepts_bounded(m, w("c"))
        assert oca_accepts_bounded(m, w("a,b,c"))
        assert not oca_accepts_bounded(m, w("a,c"))
        assert not oca_accepts_bounded(m, w("a,a,b,c"))

    def test_counter_cap_limits_runs(self):
        s = soca_anbn()
        word = w("a,a,a,a,b,b,b,b")
        assert oca_accepts_bounded(s, word, 8)
        assert not oca_accepts_bounded(s, word, 3)

    def test_accept_modes(self):
        base = dict(
            alphabet=ab_alphabet(0, 0),
            states=("q0",),
            edges=(("q0", "a", CounterOp.INC, "q0"),),
            initial="q0",
            finals=("q0",),
        )
        any_mode = Oca(**base, accept_mode=AcceptMode.ANY_COUNTER)
        zero_mode = Oca(**base, accept_mode=AcceptMode.ZERO_COUNTER)
        assert oca_accepts_bounded(any_mode, w("a,a"))
        assert not oca_accepts_bounded(zero_mode, w("a,a"))
        assert oca_accepts_bounded(zero_mode, ())

    def test_enumerate(self):
        assert oca_enumerate(soca_anbn(), 4) == [(), w("a,b"), w("a,a,b,b")]
        assert oca_enumerate(oca_anbnc(), 4) == [w("c"), w("a,b,c")]
        empty = Oca(ABC, ("q0",), (), "q0", ())
        assert oca_enumerate(empty, 5) == []

    def test_enumerate_epsilon_cycles(self):
        m = Oca(
            ab_alphabet(0, 0),
            ("q0",),
            (("q0", None, CounterOp.NOOP, "q0"), ("q0", None, CounterOp.INC, "q0")),
            "q0",
            ("q0",),
            AcceptMode.ZERO_COUNTER,
        )
        assert oca_enumerate(m, 2) == [()]

    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleOca(
                ABC,
                ("q0",),
                (("q0", "c", CounterOp.ZERO, "q0"),),
                "q0",
                "q0",
            )
        with pytest.raises(ValueError):
            Oca(ABC, ("q0",), (), "missing", ())
        with pytest.raises(ValueError):
            Oca(ABC, ("q0",), (("q0", "a", "bump", "q0"),), "q0", ())
        with pytest.raises(ValueError):
            Oca(ABC, ("q0",), (("q0", "z", CounterOp.NOOP, "q0"),), "q0", ())

    def test_serialize_round_trip(self):
        m = oca_anbnc()
        data = oca_serialize(m)
        assert data["acceptMode"] == "zeroCounter"
        assert ["q0", "a", "inc", "q0"] in data["edges"]
        assert oca_parse(data, ABC) == m

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            oca_parse({"states": ["q0"]}, ABC)
        good = oca_serialize(oca_anbnc())
        bad_mode = dict(good, acceptMode="sometimes")
        with pytest.raises(ValueError):
            oca_parse(bad_mode, ABC)
        bad_edge = dict(good, edges=[["q0", "a", "q0"]])
        with pytest.raises(ValueError):
            oca_parse(bad_edge, ABC)
        bad_op = dict(good, edges=[["q0", "a", "bump", "q0"]])
        with pytest.raises(ValueError):
            oca_parse(bad_op, ABC)

    def test_to_dot(self):
        text = oca_to_dot(oca_anbnc())
        assert text.startswith("digraph")
        assert "a / inc" in text
        assert "doublecircle" in text


def block_oracle(machine, alphabet, bound, dom_bound):
    return set(
        closure_bounded(
            oca_enumerate(machine, dom_bound), OrderKind.BLOCK, alphabet, bound
        )
    )


class TestClosureNfa:
    @pytest.mark.parametrize("pa,pb", [(0, 0), (0, 1), (1, 0)])
    def test_sandwich(self, pa, pb):
        s = soca_anbn(pa, pb)
        built = soca_closure_nfa(s)
        language = set(oca_enumerate(s, 7))
        approximation = set(nfa_enumerate(built, 7))
        assert language <= approximation
        assert approximation <= block_oracle(s, s.alphabet, 7, 14)

    @pytest.mark.parametrize("pa,pb", [(0, 0), (0, 1), (1, 0)])
    def test_state_bound(self, pa, pb):
        s = soca_anbn(pa, pb)
        k = len(s.states)
        bound = 2 * k * (k + 1) + (k * k + k) * (k * k + k + 2)
        assert len(soca_closure_nfa(s).states) <= bound

    @pytest.mark.parametrize("pa,pb", [(0, 0), (0, 1), (1, 0)])
    def test_closed_equals_oracle(self, pa, pb):
        s = soca_anbn(pa, pb)
        closed = closure_regular(soca_closure_nfa(s), OrderKind.BLOCK)
        assert set(nfa_enumerate(closed, 7)) == block_oracle(s, s.alphabet, 7, 14)

    def test_pri01_closure_shape(self):
        s = soca_anbn(0, 1)
        closed = closure_regular(soca_closure_nfa(s), OrderKind.BLOCK)
        expect = {()} | {
            ("a",) * i + ("b",) * j
            for i in range(8)
            for j in range(1, 8 - i)
        }
        assert set(nfa_enumerate(closed, 7)) == expect

    def test_state_cap(self):
        cycle = five_cycle()
        assert len(soca_closure_nfa(cycle).states) > 50
        with pytest.raises(ResourceLimit, match="one-counter skeleton exceeded 50 states"):
            soca_closure_nfa(cycle, max_states=50)
        with pytest.raises(ResourceLimit, match="skeleton exceeded 20 states"):
            oca_block_closure(oca_anbnc(), max_states=20)


class TestBlockClosure:
    def test_plain_nfa_oca(self):
        alphabet = ab_alphabet(0, 1)
        underlying = nfa_parse(
            {
                "states": ["q0", "q1"],
                "initial": "q0",
                "finals": ["q1"],
                "edges": [["q0", "a", "q0"], ["q0", "b", "q1"]],
            },
            alphabet,
        )
        as_oca = Oca(
            alphabet,
            ("q0", "q1"),
            (
                ("q0", "a", CounterOp.NOOP, "q0"),
                ("q0", "b", CounterOp.NOOP, "q1"),
            ),
            "q0",
            ("q1",),
            AcceptMode.ANY_COUNTER,
        )
        got = set(nfa_enumerate(oca_block_closure(as_oca), 6))
        expect = set(nfa_enumerate(closure_regular(underlying, OrderKind.BLOCK), 6))
        assert got == expect

    def test_drained_acceptance(self):
        alphabet = ab_alphabet(0, 0)
        m = Oca(
            alphabet,
            ("q0", "q1"),
            (
                ("q0", "a", CounterOp.INC, "q0"),
                ("q0", "b", CounterOp.DEC, "q1"),
                ("q1", "b", CounterOp.DEC, "q1"),
            ),
            "q0",
            ("q1",),
            AcceptMode.ANY_COUNTER,
        )
        got = set(nfa_enumerate(oca_block_closure(m), 5))
        assert got == block_oracle(m, alphabet, 5, 10)

    def test_zero_test_machine(self):
        m = oca_anbnc()
        got = set(nfa_enumerate(oca_block_closure(m), 6))
        assert got == block_oracle(m, ABC, 6, 12)
        assert got == {
            ("a",) * i + ("b",) * j + ("c",)
            for i in range(6)
            for j in range(6 - i)
        }

    def test_droppable_zero_letter(self):
        alphabet = PriorityAlphabet.from_map({"c": 0})
        m = Oca(
            alphabet,
            ("q0", "f"),
            (("q0", "c", CounterOp.ZERO, "f"),),
            "q0",
            ("f",),
            AcceptMode.ZERO_COUNTER,
        )
        assert set(nfa_enumerate(oca_block_closure(m), 3)) == {(), w("c")}

    def test_anbn_pri01(self):
        got = set(nfa_enumerate(oca_block_closure(oca_anbn(0, 1)), 7))
        expect = {()} | {
            ("a",) * i + ("b",) * j
            for i in range(8)
            for j in range(1, 8 - i)
        }
        assert got == expect


class TestPriorityClosure:
    def test_anbn_pri01(self):
        m = oca_anbn(0, 1)
        got = set(nfa_enumerate(oca_priority_closure(m), 6))
        oracle = set(
            closure_bounded(
                oca_enumerate(m, 12), OrderKind.PRIORITY, m.alphabet, 6
            )
        )
        assert got == oracle
        assert got == {()} | {
            ("a",) * i + ("b",) * j
            for i in range(6)
            for j in range(1, 7 - i)
        }

    def test_empty(self):
        m = Oca(ab_alphabet(0, 1), ("q0",), (), "q0", ())
        assert nfa_enumerate(oca_priority_closure(m), 5) == []

    def test_epsilon_only(self):
        m = Oca(
            ab_alphabet(0, 1),
            ("q0",),
            (),
            "q0",
            ("q0",),
            AcceptMode.ZERO_COUNTER,
        )
        assert nfa_enumerate(oca_priority_closure(m), 5) == [()]

    def test_zero_test_machine(self):
        m = oca_anbnc()
        got = set(nfa_enumerate(oca_priority_closure(m), 5))
        oracle = set(
            closure_bounded(oca_enumerate(m, 12), OrderKind.PRIORITY, ABC, 5)
        )
        assert got == oracle

    def test_result_downward_closed(self):
        for m in (oca_anbn(0, 1), oca_anbnc()):
            built = oca_priority_closure(m)
            again = closure_regular(built, OrderKind.PRIORITY)
            assert nfa_equivalent_up_to(again, built, 6) is None
