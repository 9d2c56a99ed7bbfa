"""Automata, transducers, and regular closure tests."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from prioclose.automata import (
    Nfa,
    Transducer,
    apply_transduction,
    block_transducer,
    closure_regular,
    nfa_accepts,
    nfa_concat,
    nfa_enumerate,
    nfa_equivalent,
    nfa_equivalent_up_to,
    nfa_for_words,
    nfa_intersect,
    nfa_parse,
    nfa_serialize,
    nfa_to_dot,
    nfa_union,
    priority_transducer,
    subword_transducer,
)
from prioclose.core import (
    OrderKind,
    PriorityAlphabet,
    ResourceLimit,
    leq,
    parse_word,
)
from prioclose.oracle import closure_bounded

from reference import all_words, leq_block_absorbing_ref

EX = PriorityAlphabet.from_map(
    {"0a": 0, "0b": 0, "1a": 1, "1b": 1, "2a": 2, "2b": 2}
)
ABC = PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 1})
AB = PriorityAlphabet.from_map({"a": 0, "b": 1})
FLAT3 = PriorityAlphabet.from_map({"0": 0, "1": 1, "2": 2})

w = parse_word
ROOT = Path(__file__).resolve().parents[1]


def astar_b() -> Nfa:
    return nfa_parse(
        {
            "states": ["q0", "q1"],
            "initial": "q0",
            "finals": ["q1"],
            "edges": [["q0", "a", "q0"], ["q0", "b", "q1"]],
        },
        AB,
    )


class TestNfaBasics:
    def test_accepts(self):
        n = astar_b()
        assert nfa_accepts(n, w("b"))
        assert nfa_accepts(n, w("a,a,b"))
        assert not nfa_accepts(n, w("a"))
        assert not nfa_accepts(n, w("b,a"))
        assert not nfa_accepts(n, ())

    def test_enumerate(self):
        n = astar_b()
        assert nfa_enumerate(n, 3) == [w("b"), w("a,b"), w("a,a,b")]

    def test_epsilon_cycle(self):
        n = nfa_parse(
            {
                "states": ["q0", "q1"],
                "initial": "q0",
                "finals": ["q1"],
                "edges": [["q0", None, "q1"], ["q1", None, "q0"], ["q0", "a", "q0"]],
            },
            AB,
        )
        assert nfa_accepts(n, ())
        assert nfa_accepts(n, w("a,a"))
        assert nfa_enumerate(n, 2) == [(), w("a"), w("a,a")]

    def test_validation(self):
        one = {"states": ["q0"], "initial": "q0", "finals": [], "edges": []}
        with pytest.raises(ValueError):
            nfa_parse({**one, "initial": "missing"}, AB)
        with pytest.raises(ValueError):
            nfa_parse({**one, "finals": ["missing"]}, AB)
        with pytest.raises(ValueError):
            nfa_parse({**one, "edges": [["q0", "z", "q0"]]}, AB)

    def test_for_words(self):
        n = nfa_for_words(AB, [w("a,b"), w("b"), ()])
        got = set(nfa_enumerate(n, 4))
        assert got == {w("a,b"), w("b"), ()}

    def test_for_words_shares_prefixes(self):
        n = nfa_for_words(AB, [w("a,b"), (), w("a,b"), w("b")])
        assert len(n.states) == 4
        assert set(nfa_enumerate(n, 4)) == {w("a,b"), w("b"), ()}

    def test_for_words_numbering_ignores_hash_seed(self):
        script = (
            "import json\n"
            "from prioclose.automata import nfa_for_words, nfa_serialize\n"
            "from prioclose.core import PriorityAlphabet\n"
            "alpha = PriorityAlphabet.from_map({'a': 0, 'b': 1, 'c': 1})\n"
            "words = [('b', 'a'), ('c',), ('a', 'c', 'b'), ('a', 'b'), ('b', 'b')]\n"
            "print(json.dumps(nfa_serialize(nfa_for_words(alpha, words))))\n"
        )
        outputs = set()
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1

    def test_serialize_round_trip(self):
        n = astar_b()
        data = nfa_serialize(n)
        back = nfa_parse(data, AB)
        assert nfa_equivalent(n, back)
        assert data["edges"] == [["q0", "a", "q0"], ["q0", "b", "q1"]]

    def test_parse_epsilon_edge(self):
        data = {
            "states": ["q0", "q1"],
            "initial": "q0",
            "finals": ["q1"],
            "edges": [["q0", None, "q1"]],
        }
        n = nfa_parse(data, AB)
        assert nfa_accepts(n, ())

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            nfa_parse({"states": ["q0"]}, AB)
        with pytest.raises(ValueError):
            nfa_parse(
                {"states": ["q0"], "initial": "q0", "finals": [], "edges": [["q0", "a"]]},
                AB,
            )

    def test_dot(self):
        text = nfa_to_dot(astar_b())
        assert text.startswith("digraph")
        assert "doublecircle" in text
        assert '"q0" -> "q1" [label="b"]' in text


class TestAlgebra:
    def test_union(self):
        x = nfa_for_words(AB, [w("a")])
        y = nfa_for_words(AB, [w("b"), w("a,b")])
        assert set(nfa_enumerate(nfa_union(x, y), 3)) == {w("a"), w("b"), w("a,b")}

    def test_concat(self):
        x = nfa_for_words(AB, [w("a"), ()])
        y = nfa_for_words(AB, [w("b")])
        assert set(nfa_enumerate(nfa_concat(x, y), 3)) == {w("b"), w("a,b")}

    def test_intersect(self):
        x = astar_b()
        y = nfa_for_words(AB, [w("b"), w("a,b"), w("a")])
        assert set(nfa_enumerate(nfa_intersect(x, y), 4)) == {w("b"), w("a,b")}

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            nfa_union(astar_b(), nfa_for_words(ABC, [w("a")]))


class TestEquivalence:
    def test_exact_equal(self):
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
            AB,
        )
        assert nfa_equivalent(astar_b(), bloated)

    def test_exact_unequal(self):
        plus = nfa_parse(
            {
                "states": ["q0", "q1", "q2"],
                "initial": "q0",
                "finals": ["q2"],
                "edges": [["q0", "a", "q1"], ["q1", "a", "q1"], ["q1", "b", "q2"]],
            },
            AB,
        )
        assert not nfa_equivalent(astar_b(), plus)

    def test_bounded_counterexample(self):
        plus = nfa_parse(
            {
                "states": ["q0", "q1", "q2"],
                "initial": "q0",
                "finals": ["q2"],
                "edges": [["q0", "a", "q1"], ["q1", "a", "q1"], ["q1", "b", "q2"]],
            },
            AB,
        )
        assert nfa_equivalent_up_to(astar_b(), plus, 4) == w("b")
        assert nfa_equivalent_up_to(astar_b(), astar_b(), 6) is None

    def test_subset_cap(self):
        # (a|b)* a (a|b)^3 has 5 states and needs 16 subsets; size alone
        # no longer refuses, only a subset construction past the cap
        edges = [["s0", "a", "s0"], ["s0", "b", "s0"], ["s0", "a", "s1"]]
        for i in range(1, 4):
            edges += [[f"s{i}", "a", f"s{i + 1}"], [f"s{i}", "b", f"s{i + 1}"]]
        states = [f"s{i}" for i in range(5)]
        nfa = nfa_parse({"states": states, "initial": "s0", "finals": ["s4"], "edges": edges}, AB)
        with pytest.raises(ResourceLimit, match="exceeded 15 subsets"):
            nfa_equivalent(nfa, nfa, max_subsets=15)
        with pytest.raises(ResourceLimit):
            nfa_equivalent(astar_b(), nfa, max_subsets=15)
        assert nfa_equivalent(nfa, nfa, max_subsets=16)
        assert not nfa_equivalent(astar_b(), nfa, max_subsets=16)
        ring = nfa_parse(
            {
                "states": [f"q{i}" for i in range(13)],
                "initial": "q0",
                "finals": ["q0"],
                "edges": [[f"q{i}", "a", f"q{(i + 1) % 13}"] for i in range(13)],
            },
            AB,
        )
        assert nfa_equivalent(ring, ring)


class TestTransducerShapes:
    def test_sizes(self):
        for alphabet in (EX, ABC, AB, FLAT3):
            d = alphabet.max_assigned_priority
            assert len(subword_transducer(alphabet).states) == 1
            assert len(priority_transducer(alphabet).states) == d + 4
            assert len(block_transducer(alphabet).states) == d + 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Transducer(AB, ("t",), (("t", ("a", "b"), (), "t"),), "t", ("t",))


def transduce_word(transducer: Transducer, alphabet, v):
    image = apply_transduction(transducer, nfa_for_words(alphabet, [v]))
    return set(nfa_enumerate(image, len(v)))


class TestTransducerSemantics:
    @pytest.mark.parametrize(
        "order,factory",
        [
            (OrderKind.SUBWORD, subword_transducer),
            (OrderKind.PRIORITY, priority_transducer),
            (OrderKind.BLOCK, block_transducer),
        ],
    )
    def test_exhaustive_small(self, order, factory):
        t = factory(ABC)
        for v in all_words(ABC.letters, 4):
            got = transduce_word(t, ABC, v)
            expect = {
                u for u in all_words(ABC.letters, len(v)) if leq(ABC, order, u, v)
            }
            assert got == expect, (order, v)

    def test_block_example(self):
        t = block_transducer(EX)
        got = transduce_word(t, EX, w("0a,1b,0a"))
        assert got == {w("1b"), w("0a,1b"), w("1b,0a"), w("0a,1b,0a")}

    def test_block_drops_whole_segment(self):
        t = block_transducer(ABC)
        assert transduce_word(t, ABC, w("c,c")) == {w("c"), w("c,c")}

    def test_priority_always_has_empty(self):
        t = priority_transducer(EX)
        for v in (w("2a"), w("0a,1b"), w("2b,1a,0a")):
            assert () in transduce_word(t, EX, v)


def random_nfa(alphabet, rng, n_states=4, n_edges=None):
    """A random NFA; without ``n_edges`` it draws 4 to 10 edges."""
    states = tuple(f"q{i}" for i in range(n_states))
    labels = list(alphabet.letters) + [None]
    edges = tuple(
        (rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(4, 10) if n_edges is None else n_edges)
    )
    finals = tuple(rng.sample(states, rng.randint(1, 2)))
    return nfa_parse(
        {"states": states, "initial": "q0", "finals": finals, "edges": edges}, alphabet
    )


# Two priority-0 cycles of "a", joined by priority-1 "b" moves.
CYCLE_BESIDE_1 = {
    "states": ["q0", "q1", "q2", "q3"],
    "initial": "q0",
    "finals": ["q3"],
    "edges": [
        ["q0", "a", "q1"], ["q1", "a", "q0"], ["q1", "b", "q2"],
        ["q2", "a", "q3"], ["q3", "a", "q2"], ["q3", "b", "q1"],
    ],
}


def flat3_nfa(spec_edges, finals):
    states = sorted({s for s, _, _ in spec_edges} | {d for _, _, d in spec_edges})
    return nfa_parse(
        {"states": states, "initial": "i", "finals": finals, "edges": spec_edges}, FLAT3
    )


class TestClosureRegular:
    @pytest.mark.parametrize(
        "order", [OrderKind.SUBWORD, OrderKind.PRIORITY, OrderKind.BLOCK]
    )
    def test_random_low_priority_vs_oracle(self, order):
        # The sliced oracle can miss words whose shortest dominating member
        # is long, so surplus words are re-checked against a deeper slice.
        rng = random.Random(401)
        for alphabet in (AB, ABC):
            for _ in range(8):
                n = random_nfa(alphabet, rng)
                closed = closure_regular(n, order)
                got = set(nfa_enumerate(closed, 5))
                expect = set(
                    closure_bounded(nfa_enumerate(n, 10), order, alphabet, 5)
                )
                assert expect <= got, (order, alphabet.letters, n.edges)
                surplus = got - expect
                if surplus:
                    deeper = nfa_enumerate(n, 14)
                    for u in sorted(surplus):
                        assert any(
                            leq(alphabet, order, u, v) for v in deeper
                        ), (order, alphabet.letters, n.edges, u)

    def test_block_singletons_three_priorities(self):
        # At three priority levels the closure may absorb junk under empty
        # blocks, so singleton inputs are checked against that reference.
        for v in all_words(FLAT3.letters, 4):
            closed = closure_regular(nfa_for_words(FLAT3, [v]), OrderKind.BLOCK)
            got = set(nfa_enumerate(closed, len(v)))
            expect = {
                u
                for u in all_words(FLAT3.letters, len(v))
                if leq_block_absorbing_ref(FLAT3, u, v)
            }
            assert got == expect, v

    def test_block_finite_example(self):
        closed = closure_regular(nfa_for_words(EX, [w("0a,1b,0a")]), OrderKind.BLOCK)
        assert set(nfa_enumerate(closed, 5)) == {
            w("1b"),
            w("0a,1b"),
            w("1b,0a"),
            w("0a,1b,0a"),
        }

    def test_block_empty_word_rule(self):
        closed = closure_regular(nfa_for_words(ABC, [w("c,c")]), OrderKind.BLOCK)
        assert set(nfa_enumerate(closed, 3)) == {w("c"), w("c,c")}
        closed0 = closure_regular(nfa_for_words(ABC, [w("a")]), OrderKind.BLOCK)
        assert set(nfa_enumerate(closed0, 2)) == {(), w("a")}

    def test_block_pumped_language(self):
        # ones around a single two, at least one on each side, plus the
        # bare two; its closure frees both exponents independently
        pumped = flat3_nfa(
            [
                ("i", "1", "a"),
                ("a", "1", "a"),
                ("a", "2", "b"),
                ("b", "1", "c"),
                ("c", "1", "c"),
                ("i", "2", "f"),
            ],
            ["c", "f"],
        )
        target = flat3_nfa(
            [("i", "1", "i"), ("i", "2", "f"), ("f", "1", "f")], ["f"]
        )
        closed = closure_regular(pumped, OrderKind.BLOCK)
        assert nfa_equivalent_up_to(closed, target, 8) is None
        assert nfa_equivalent(closed, target)

    def test_block_idempotent(self):
        rng = random.Random(77)
        cases = [
            closure_regular(random_nfa(ABC, rng), OrderKind.BLOCK),
            closure_regular(nfa_for_words(FLAT3, [w("1,2,1"), w("0,1")]), OrderKind.BLOCK),
            closure_regular(nfa_for_words(EX, [w("0a,2a,1b,0a")]), OrderKind.BLOCK),
        ]
        for closed in cases:
            again = closure_regular(closed, OrderKind.BLOCK)
            assert nfa_equivalent_up_to(again, closed, 6) is None

    def test_subword_closure_plain(self):
        closed = closure_regular(nfa_for_words(AB, [w("a,b,a")]), OrderKind.SUBWORD)
        assert set(nfa_enumerate(closed, 3)) == {
            (),
            w("a"),
            w("b"),
            w("a,a"),
            w("a,b"),
            w("b,a"),
            w("a,b,a"),
        }
