"""Grammar constructions, Kleene closure, and CFG closure pipeline tests."""

import random
from dataclasses import replace

import pytest

import prioclose.cfg as cfg_module
from prioclose.automata import (
    Transducer,
    closure_regular,
    nfa_accepts,
    nfa_enumerate,
    nfa_equivalent,
    nfa_equivalent_up_to,
    nfa_for_words,
    nfa_parse,
    nfa_reduce,
    subword_transducer,
)
from prioclose.cfg import (
    LIT,
    STAR,
    Cfg,
    KleeneGrammar,
    _kleene,
    _pump_sides,
    _subword_nfa,
    acyclic_nfa,
    apply_transducer_to_cfg,
    cfg_block_closure,
    cfg_closure,
    cfg_enumerate,
    cfg_intersect_regular_empty,
    cfg_parse,
    cfg_priority_closure,
    cfg_serialize,
    cfg_to_dot,
    to_cnf,
)
from prioclose.core import (
    OrderKind,
    PriorityAlphabet,
    ResourceLimit,
    flatten,
    leq_block,
    parse_word,
)
from prioclose.oracle import closure_bounded

from reference import (
    KleeneSteps,
    kleene_sizes,
    leq_block_absorbing_ref,
    reference_cfg_closure,
    reference_to_cnf,
    unsettled_acyclic_nfa,
)
from test_oracle_enumerate import random_cfg

w = parse_word

P12 = PriorityAlphabet.from_map({"1": 1, "2": 2})
AB0 = PriorityAlphabet.from_map({"a": 0, "b": 0})
AB01 = PriorityAlphabet.from_map({"a": 0, "b": 1})
AB10 = PriorityAlphabet.from_map({"a": 1, "b": 0})
ABCD0 = PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 0, "d": 0})
RING_A0B1C2D0 = PriorityAlphabet.from_map({"a": 0, "b": 1, "c": 2, "d": 0})
D1 = PriorityAlphabet.from_map({"0a": 0, "1b": 1})
A0 = PriorityAlphabet.from_map({"a": 0})
A1 = PriorityAlphabet.from_map({"a": 1})
HATTEST = PriorityAlphabet.from_map({"x": 0, "r": 1})


def flagship() -> Cfg:
    return Cfg(P12, ("X",), (("X", ("1", "X", "1")), ("X", ("2",))), "X")


def anbn(alphabet=AB0) -> Cfg:
    return Cfg(
        alphabet,
        ("S",),
        (("S", ("a", "S", "b")), ("S", ("a", "b"))),
        "S",
    )


def anbn_eps() -> Cfg:
    return Cfg(AB0, ("S",), (("S", ("a", "S", "b")), ("S", ())), "S")


def ring(alphabet=ABCD0) -> Cfg:
    """X pumps ab on the left and c on the right; d sits in the middle."""
    return Cfg(
        alphabet,
        ("X",),
        (("X", ("a", "b", "X", "c")), ("X", ("d",))),
        "X",
    )


def flat_kleene(g: Cfg) -> KleeneGrammar:
    """The Kleene grammar that ``cfg_closure`` walks for g in priority order."""
    return KleeneSteps(replace(g, alphabet=flatten(g.alphabet))).kleene()


def gap_grammar() -> Cfg:
    """X -> a X a | c over a: 0, c: 2, so no letter has priority 1."""
    alphabet = PriorityAlphabet.from_map({"a": 0, "c": 2})
    return Cfg(alphabet, ("X",), (("X", ("a", "X", "a")), ("X", ("c",))), "X")


def empty_grammar(alphabet=AB0) -> Cfg:
    return Cfg(alphabet, ("S",), (("S", ("S",)),), "S")


def eps_only() -> Cfg:
    """The empty word alone, over positive priorities."""
    return Cfg(P12, ("S",), (("S", ()),), "S")


def nullable_start() -> Cfg:
    """S -> A 2 S | ε and A -> 1 A | ε: the start derives ε and pumps."""
    prods = (("S", ("A", "2", "S")), ("S", ()), ("A", ("1", "A")), ("A", ()))
    return Cfg(P12, ("A", "S"), prods, "S")


def pattern_nfa(alphabet, infix):
    """Sigma* infix Sigma* as a chain with loops on every state."""
    states = [f"n{i}" for i in range(len(infix) + 1)]
    edges = []
    for q in states:
        for a in alphabet.letters:
            edges.append((q, a, q))
    for i, a in enumerate(infix):
        edges.append((states[i], a, states[i + 1]))
    return nfa_parse(
        {"states": states, "initial": states[0], "finals": [states[-1]], "edges": edges},
        alphabet,
    )


def identity_transducer(alphabet) -> Transducer:
    edges = tuple(("q", (a,), (a,), "q") for a in alphabet.letters)
    return Transducer(alphabet, ("q",), edges, "q", ("q",))


def derived_contexts(g: Cfg, x: str, max_len: int):
    """All (u, v) with x deriving u x v, both halves terminal and short."""
    letters = set(g.alphabet.letters)
    seen = {(x,)}
    frontier = [(x,)]
    out = set()
    while frontier:
        form = frontier.pop()
        spots = [i for i, s in enumerate(form) if s not in letters]
        if len(spots) == 1 and form[spots[0]] == x:
            out.add((form[: spots[0]], form[spots[0] + 1 :]))
        for i in spots:
            for lhs, rhs in g.productions:
                if lhs != form[i]:
                    continue
                new = form[:i] + rhs + form[i + 1 :]
                if (
                    sum(1 for t in new if t in letters) <= max_len
                    and len(new) <= max_len + 4
                    and new not in seen
                ):
                    seen.add(new)
                    frontier.append(new)
    return out


class TestNormalForm:
    def test_shapes_and_empty_flag(self):
        cnf, had_empty = to_cnf(anbn_eps())
        assert had_empty
        letters = set(AB0.letters)
        for _, rhs in cnf.productions:
            if len(rhs) == 1:
                assert rhs[0] in letters
            else:
                assert len(rhs) == 2
                assert all(s not in letters for s in rhs)
        assert cfg_enumerate(cnf, 6) == [
            w("a,b"),
            w("a,a,b,b"),
            w("a,a,a,b,b,b"),
        ]

    def test_self_loop_gives_empty_grammar(self):
        cnf, had_empty = to_cnf(empty_grammar())
        assert not had_empty
        assert cnf.productions == ()

    def test_bounded_language_preserved(self):
        for g in (flagship(), anbn(), anbn_eps(), ring()):
            cnf, had_empty = to_cnf(g)
            before = set(cfg_enumerate(g, 6))
            assert had_empty == (() in before)
            assert set(cfg_enumerate(cnf, 6)) == before - {()}

    def test_start_never_on_rhs(self):
        cnf, _ = to_cnf(flagship())
        assert all(cnf.start not in rhs for _, rhs in cnf.productions)


PIPELINE_GRAMMARS = [flagship(), anbn(), ring(), ring(RING_A0B1C2D0), empty_grammar()]
RANDOM_PRIORITIES = [
    {"a": 0, "b": 1, "c": 2},
    {"a": 0, "b": 1, "c": 1, "d": 2},
    {"a": 0, "c": 2},
]


def assert_cnf_matches_reference(g: Cfg) -> None:
    assert to_cnf(g) == reference_to_cnf(g)


class TestNormalFormReference:
    """``to_cnf`` prunes before it collapses unit chains, and gives the
    same grammar and empty-word flag as the collapse-then-prune order."""

    @pytest.mark.parametrize(
        "g", PIPELINE_GRAMMARS, ids=["flagship", "anbn", "ring-0", "ring-a0b1c2d0", "empty"]
    )
    def test_pipeline_grammars(self, g):
        assert_cnf_matches_reference(g)
        assert_cnf_matches_reference(replace(g, alphabet=flatten(g.alphabet)))

    @pytest.mark.parametrize("priorities", RANDOM_PRIORITIES, ids=["abc", "abcd", "ac"])
    def test_random_grammars(self, priorities):
        alphabet = PriorityAlphabet.from_map(priorities)
        for seed in range(60):
            g = random_cfg(random.Random(seed), alphabet)
            assert to_cnf(g) == reference_to_cnf(g), seed
            flat = replace(g, alphabet=flatten(alphabet))
            assert to_cnf(flat) == reference_to_cnf(flat), seed

    @pytest.mark.parametrize(
        "grammars",
        [
            PIPELINE_GRAMMARS,
            *(
                [random_cfg(random.Random(seed), PriorityAlphabet.from_map(priorities))
                 for seed in range(60)]
                for priorities in RANDOM_PRIORITIES
            ),
        ],
        ids=["pipeline", "abc", "abcd", "ac"],
    )
    def test_inputs_inside_the_kleene_rebuild(self, grammars, monkeypatch):
        """Every grammar the rebuild normalises, captured by a wrapper
        around ``to_cnf``; the rebuild is capped at 2,000 states."""
        seen: list[Cfg] = []

        def captured(g: Cfg) -> tuple[Cfg, bool]:
            seen.append(g)
            return to_cnf(g)

        monkeypatch.setattr(cfg_module, "to_cnf", captured)
        for g in grammars:
            cnf, _ = to_cnf(replace(g, alphabet=flatten(g.alphabet)))
            if cnf.productions:
                try:
                    _kleene(cnf, max_states=2000)
                except ResourceLimit:
                    pass
        monkeypatch.undo()
        assert len(seen) >= 50
        for g in set(seen):
            assert_cnf_matches_reference(g)

    def test_only_the_empty_word(self):
        g = Cfg(AB0, ("S", "E"), (("S", ("E", "E")), ("E", ())), "S")
        assert_cnf_matches_reference(g)
        cnf, had_empty = to_cnf(g)
        assert had_empty and cnf.productions == () and cnf.nonterminals == (cnf.start,)

    def test_unit_cycle(self):
        g = Cfg(
            AB0,
            ("S", "A", "B"),
            (("S", ("A",)), ("A", ("B",)), ("B", ("A",)), ("A", ("a",)), ("B", ("b", "B"))),
            "S",
        )
        assert_cnf_matches_reference(g)
        cnf, _ = to_cnf(g)
        assert cfg_enumerate(cnf, 3) == [w("a"), w("b,a"), w("b,b,a")]

    def test_repeated_nullable_symbol(self):
        g = Cfg(
            AB0,
            ("S", "X", "A"),
            (("S", ("X", "b")), ("X", ("A", "A")), ("A", ("a",)), ("A", ())),
            "S",
        )
        assert_cnf_matches_reference(g)
        cnf, had_empty = to_cnf(g)
        assert not had_empty
        assert cfg_enumerate(cnf, 3) == [w("b"), w("a,b"), w("a,a,b")]

    def test_nullable_start(self):
        g = Cfg(
            AB0,
            ("S", "A"),
            (("S", ("a", "S")), ("S", ("A",)), ("A", ()), ("A", ("b",))),
            "S",
        )
        assert_cnf_matches_reference(g)
        cnf, had_empty = to_cnf(g)
        assert had_empty
        assert cfg_enumerate(cnf, 2) == [w("a"), w("b"), w("a,a"), w("a,b")]


class TestEnumerate:
    def test_flagship(self):
        assert cfg_enumerate(flagship(), 5) == [
            w("2"),
            w("1,2,1"),
            w("1,1,2,1,1"),
        ]

    def test_empty(self):
        assert cfg_enumerate(empty_grammar(), 4) == []

    def test_closure_contains_language(self):
        g = anbn(AB01)
        closed = cfg_block_closure(g)
        assert set(cfg_enumerate(g, 6)) <= set(nfa_enumerate(closed, 6))

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            cfg_enumerate(anbn(), -1)


class TestIntersectEmpty:
    def test_no_ba(self):
        assert cfg_intersect_regular_empty(anbn(), pattern_nfa(AB0, ("b", "a")))

    def test_has_ab(self):
        assert not cfg_intersect_regular_empty(
            anbn(), pattern_nfa(AB0, ("a", "b"))
        )

    def test_no_pure_a_word(self):
        aplus = nfa_parse(
            {
                "states": ["q0", "q1"],
                "initial": "q0",
                "finals": ["q1"],
                "edges": [["q0", "a", "q1"], ["q1", "a", "q1"]],
            },
            AB0,
        )
        assert cfg_intersect_regular_empty(anbn(), aplus)
        assert not any(set(u) == {"a"} for u in cfg_enumerate(anbn(), 6))

    def test_empty_word_counts(self):
        everything = nfa_parse(
            {"states": ["q"], "initial": "q", "finals": ["q"], "edges": [["q", a, "q"] for a in "ab"]},
            AB0,
        )
        assert not cfg_intersect_regular_empty(anbn_eps(), everything)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            cfg_intersect_regular_empty(anbn(), pattern_nfa(P12, ("1",)))


class TestPumpPairs:
    def test_flagship_matches_definition(self):
        pump = KleeneSteps(flagship()).pump("X")
        got = set(cfg_enumerate(pump, 7))
        expected = {
            u + ("#",) + v for u, v in derived_contexts(flagship(), "X", 6)
        }
        assert got == expected
        assert w("1,#,1") in got and ("#",) in got

    def test_no_self_embedding(self):
        g = Cfg(AB0, ("S",), (("S", ("a", "b")),), "S")
        pump = KleeneSteps(g).pump("S")
        assert cfg_enumerate(pump, 4) == [("#",)]

    def test_exactly_one_seam(self):
        pump = KleeneSteps(ring()).pump("X")
        for word in cfg_enumerate(pump, 9):
            assert word.count("#") == 1

    def test_seam_token_fresh_against_base(self):
        taken = PriorityAlphabet.from_map({"#": 0, "a": 0})
        g = Cfg(taken, ("S",), (("S", ("a", "S", "#")), ("S", ("a",))), "S")
        steps = KleeneSteps(g)
        pump = steps.pump("S")
        assert steps.hat.mid == "#1"
        words = cfg_enumerate(pump, 3)
        assert ("#1",) in words
        assert ("a", "#1", "#") in words


class TestApplyTransducer:
    def test_subword_image(self):
        out = apply_transducer_to_cfg(subword_transducer(AB0), anbn())
        got = set(cfg_enumerate(out, 4))
        want = set(closure_bounded(cfg_enumerate(anbn(), 8), OrderKind.SUBWORD, AB0, 4))
        assert got == want

    def test_identity(self):
        for g in (anbn(), flagship()):
            out = apply_transducer_to_cfg(identity_transducer(g.alphabet), g)
            assert set(cfg_enumerate(out, 6)) == set(cfg_enumerate(g, 6))

    def test_size_bound(self):
        cnf, _ = to_cnf(anbn())
        t = subword_transducer(AB0)
        out = apply_transducer_to_cfg(t, anbn())
        assert len(out.nonterminals) <= len(cnf.nonterminals) * len(t.states) ** 2

    def test_empty_input_image(self):
        out = apply_transducer_to_cfg(subword_transducer(AB0), anbn_eps())
        assert () in set(cfg_enumerate(out, 2))

    def test_state_cap(self):
        with pytest.raises(ResourceLimit, match="grammar transduction exceeded 2 states"):
            apply_transducer_to_cfg(subword_transducer(AB0), anbn(), max_states=2)

    def test_priority_closure_caps_the_kleene_rebuild(self):
        with pytest.raises(ResourceLimit, match="grammar transduction exceeded 3 states"):
            cfg_priority_closure(flagship(), max_states=3)

    def test_block_closure_caps_the_kleene_rebuild(self):
        with pytest.raises(ResourceLimit, match="grammar transduction exceeded 5 states"):
            cfg_block_closure(flagship(), max_states=5)

    @pytest.mark.parametrize("order", [OrderKind.BLOCK, OrderKind.PRIORITY])
    def test_cap_bounds_the_kleene_grammar(self, order):
        # each rebuild step's transductions stay small; their sum does not
        g = Cfg(
            AB10,
            ("N0",),
            (("N0", ("N0", "N0", "N0")), ("N0", ("a",)), ("N0", ("b",))),
            "N0",
        )
        with pytest.raises(ResourceLimit, match="Kleene grammar exceeded 500 states"):
            cfg_closure(g, order, max_states=500)


class TestEndsGrammar:
    def test_flagship_both_positive(self):
        e = KleeneSteps(flagship()).ends("X", 1, 1)
        assert cfg_enumerate(e, 5) == [w("#L,#,#R")]

    def test_flagship_unreachable_priority(self):
        e = KleeneSteps(flagship()).ends("X", 2, 1)
        assert cfg_enumerate(e, 6) == []

    def test_seam_pattern(self):
        steps = KleeneSteps(flagship())
        for r in range(3):
            for s in range(3):
                e = steps.ends("X", r, s)
                for word in cfg_enumerate(e, 7):
                    assert [t for t in word if t in ("#L", "#", "#R")] == [
                        "#L",
                        "#",
                        "#R",
                    ]

    def test_zero_zero_constant(self):
        e = KleeneSteps(ring()).ends("X", 0, 0)
        assert cfg_enumerate(e, 5) == [w("#L,#,#R")]

    def test_letterless_priority_gives_an_empty_grammar(self):
        # priority 1 carries no letter, so no half has top priority 1
        steps = KleeneSteps(gap_grammar())
        for r, s in ((1, 1), (1, 0), (0, 1), (2, 1)):
            e = steps.ends("X", r, s)
            assert e.productions == ()
            assert cfg_enumerate(e, 6) == []


class TestRepeatsGrammars:
    def test_flagship(self):
        # between two adjacent 1s there is only the empty run; the
        # rebuild appends the closing separator itself
        left, right = KleeneSteps(flagship()).runs("X", 1, 1)
        assert cfg_enumerate(left, 3) == [()]
        assert cfg_enumerate(right, 3) == [()]

    def test_zero_priority_letters(self):
        left, right = KleeneSteps(ring()).runs("X", 0, 0)
        assert cfg_enumerate(left, 2) == [("a",), ("b",)]
        assert cfg_enumerate(right, 2) == [("c",)]

    def test_letterless_priority_gives_empty_grammars(self):
        steps = KleeneSteps(gap_grammar())
        for r, s in ((1, 1), (1, 0), (0, 1), (2, 1)):
            left, right = steps.runs("X", r, s)
            assert left.productions == () and right.productions == ()
        left, right = steps.runs("X", 0, 0)
        assert cfg_enumerate(left, 3) == cfg_enumerate(right, 3) == [("a",)]

    def test_no_pumps(self):
        g = Cfg(AB0, ("S",), (("S", ("a", "b")),), "S")
        left, right = KleeneSteps(g).runs("S", 0, 0)
        assert cfg_enumerate(left, 3) == []
        assert cfg_enumerate(right, 3) == []


class TestSideAlphabets:
    def test_one_sided(self):
        g = Cfg(
            ABCD0,
            ("X",),
            (("X", ("a", "X", "b")), ("X", ("c",))),
            "X",
        )
        assert KleeneSteps(g).sides("X") == (("a",), ("b",))

    def test_two_pumps(self):
        g = Cfg(
            ABCD0,
            ("X",),
            (("X", ("a", "X", "a")), ("X", ("b", "X", "b")), ("X", ("c",))),
            "X",
        )
        assert KleeneSteps(g).sides("X") == (("a", "b"), ("a", "b"))

    def test_no_self_embedding(self):
        g = Cfg(AB0, ("S",), (("S", ("a", "b")),), "S")
        assert KleeneSteps(g).sides("S") == ((), ())


class TestKleeneGrammar:
    def test_flagship_sandwich(self):
        kg = KleeneSteps(flagship()).kleene()
        words = set(nfa_enumerate(acyclic_nfa(kg), 8))
        assert set(cfg_enumerate(flagship(), 8)) <= words
        dominators = cfg_enumerate(flagship(), 17)
        for u in sorted(words):
            assert any(
                leq_block_absorbing_ref(P12, u, v) for v in dominators
            ), u

    def test_all_zero_is_subword_construction(self):
        got = set(nfa_enumerate(_subword_nfa(to_cnf(anbn())[0]), 6))
        want = set(closure_bounded(cfg_enumerate(anbn(), 12), OrderKind.SUBWORD, AB0, 6))
        assert got == want

    def test_subword_automaton_is_its_own_closure(self):
        """``_subword_nfa`` builds a subword-closed language."""
        grammars = PIPELINE_GRAMMARS + [dense(14)] + [
            random_cfg(random.Random(seed), ALL_ZERO) for seed in range(40)
        ]
        for g in grammars:
            nfa = _subword_nfa(to_cnf(g)[0])
            assert nfa_equivalent(nfa, closure_regular(nfa, OrderKind.SUBWORD)), g

    def test_flattened_route_meets_no_pump_on_priority_0(self, monkeypatch):
        """``_kleene`` keeps a grammar of top priority 0 as it is, which is
        exact only if no nonterminal of it lies on a cycle.  On the
        flattened route its letters are seam markers, each at most once
        in a word; every such call of the block and priority closures of
        the corpus and of random grammars is checked here."""
        calls = 0

        def watched(cnf, *args, **kwargs):
            nonlocal calls
            if not cnf.alphabet.max_assigned_priority:
                calls += 1
                _, sides = _pump_sides(cnf)
                assert not any(any(side) for side in sides.values()), cnf
            return _kleene(cnf, *args, **kwargs)

        monkeypatch.setattr(cfg_module, "_kleene", watched)
        grammars = PIPELINE_GRAMMARS + [
            random_cfg(random.Random(seed), PriorityAlphabet.from_map(priorities))
            for priorities in RANDOM_PRIORITIES
            for seed in range(20)
        ]
        for g in grammars:
            for order in (OrderKind.BLOCK, OrderKind.PRIORITY):
                try:
                    cfg_closure(g, order, max_states=2000)
                except ResourceLimit:
                    pass
        assert calls >= 1000

    def test_single_word(self):
        g = Cfg(D1, ("S",), (("S", ("0a", "1b", "0a")),), "S")
        kg = KleeneSteps(g).kleene()
        words = set(nfa_enumerate(acyclic_nfa(kg), 5))
        assert w("0a,1b,0a") in words
        for u in words:
            assert leq_block(D1, u, w("0a,1b,0a"))

    def test_items_are_checked(self):
        """Any sequence of items is a right-hand side, but each item must
        be of a known kind, and name a declared nonterminal or a letter
        of the alphabet."""
        for bad in (("?", "A"), ("nt", "B"), ("star", "B"), ("t", "c")):
            with pytest.raises(ValueError):
                KleeneGrammar(AB0, ("S", "A"), (("S", (("t", "a"), bad)),), "S")
        # once outside the normal form: three items, and a letter with a nonterminal
        KleeneGrammar(AB0, ("S", "A"), (("S", (("nt", "A"), ("nt", "A"), ("nt", "A"))),), "S")
        KleeneGrammar(AB0, ("S", "A"), (("S", (("t", "a"), ("nt", "A"))),), "S")

    def test_letters_between_items(self):
        h = KleeneGrammar(
            AB0,
            ("S", "A"),
            (("S", (("t", "a"), ("star", "A"), ("t", "b"))), ("A", (("t", "a"),))),
            "S",
        )
        assert nfa_enumerate(acyclic_nfa(h), 4) == [w("a,b"), w("a,a,b"), w("a,a,a,b")]

    def test_open_nonterminal_between_letters(self):
        """S is open while its own right-hand side is walked, so only c."""
        h = KleeneGrammar(
            ALL_ZERO,
            ("S",),
            (("S", (("t", "a"), ("nt", "S"), ("t", "b"))), ("S", (("t", "c"),))),
            "S",
        )
        assert nfa_enumerate(acyclic_nfa(h), 4) == [w("c")]

    def test_separators_written_in_place(self):
        """The rebuild names no nonterminal for a separator or the empty
        word: each new one is a run wrapper W... or part of a copy k..."""
        for g in (flagship(), ring(RING_A0B1C2D0)):
            cnf, _ = to_cnf(replace(g, alphabet=flatten(g.alphabet)))
            h = flat_kleene(g)
            made = set(h.nonterminals) - set(cnf.nonterminals)
            assert all(n[0] in "Wk" for n in made), sorted(made)

    def test_every_nonterminal_is_live(self, monkeypatch):
        """The rebuild writes only what it keeps: in every ``_kleene``
        result of the block and priority closures of the corpus, of
        random grammars and of the shared family, each nonterminal but
        the start heads a production, and each plain or starred item
        names a nonterminal that does."""
        results: list[KleeneGrammar] = []

        def watched(*args, **kwargs):
            h = _kleene(*args, **kwargs)
            results.append(h)
            return h

        monkeypatch.setattr(cfg_module, "_kleene", watched)
        grammars = PIPELINE_GRAMMARS + [shared(6)] + [
            random_cfg(random.Random(seed), PriorityAlphabet.from_map(priorities))
            for priorities in RANDOM_PRIORITIES
            for seed in range(15)
        ]
        for g in grammars:
            for order in (OrderKind.BLOCK, OrderKind.PRIORITY):
                try:
                    cfg_closure(g, order, max_states=2000)
                except ResourceLimit:
                    pass
        starred = 0
        for h in results:
            heads = {lhs for lhs, _ in h.productions}
            assert set(h.nonterminals) - heads <= {h.start}, h
            items = [item for _, rhs in h.productions for item in rhs if item[0] != LIT]
            assert all(sym in heads for _, sym in items), h
            starred += sum(kind == STAR for kind, _ in items)
        assert len(results) >= 1000 and starred


class TestAcyclicNfa:
    def test_two_leaves(self):
        h = KleeneGrammar(
            AB0,
            ("S", "A"),
            (("S", (("nt", "A"), ("nt", "A"))), ("A", (("t", "a"),))),
            "S",
        )
        assert nfa_enumerate(acyclic_nfa(h), 4) == [("a", "a")]

    def test_star(self):
        h = KleeneGrammar(
            AB0,
            ("S", "A"),
            (("S", (("star", "A"),)), ("A", (("t", "a"),))),
            "S",
        )
        assert nfa_enumerate(acyclic_nfa(h), 3) == [
            (),
            ("a",),
            ("a", "a"),
            ("a", "a", "a"),
        ]

    def test_state_cap(self):
        kg = KleeneSteps(flagship()).kleene()
        with pytest.raises(ResourceLimit):
            acyclic_nfa(kg, max_states=10)

    def test_settled_sizes(self):
        """Pinned: forced ε-moves settle inside the walk (396 and 2,392
        states unsettled), over Kleene grammars of 37 and 66 nonterminals
        (49 and 82 productions)."""
        for g, states, nonterminals, productions in (
            (flagship(), 144, 37, 49),
            (ring(RING_A0B1C2D0), 823, 66, 82),
        ):
            h = flat_kleene(g)
            assert (len(h.nonterminals), len(h.productions)) == (nonterminals, productions)
            assert len(acyclic_nfa(h).states) == states


def assert_settled_walk_equivalent(h: KleeneGrammar) -> None:
    settled = acyclic_nfa(h)
    unsettled = unsettled_acyclic_nfa(h)
    assert len(settled.states) <= len(unsettled.states)
    assert nfa_reduce(settled) == nfa_reduce(unsettled)


class TestSettledWalk:
    """Settling forced ε-moves keeps every skeleton's language."""

    @pytest.mark.parametrize(
        "g",
        [flagship(), anbn(), ring(RING_A0B1C2D0)],
        ids=["flagship", "anbn", "ring-a0b1c2d0"],
    )
    def test_pipeline_grammars(self, g):
        assert_settled_walk_equivalent(flat_kleene(g))

    def test_star_over_an_empty_nonterminal(self):
        """The pop back to S's star lands on the branch it left."""
        h = KleeneGrammar(
            AB0,
            ("S", "E", "A"),
            (("S", (("star", "E"), ("nt", "A"))), ("E", ()), ("A", (("t", "a"),))),
            "S",
        )
        assert_settled_walk_equivalent(h)
        assert nfa_enumerate(acyclic_nfa(h), 3) == [("a",)]

    def test_chain_of_single_productions(self):
        h = KleeneGrammar(
            AB0,
            ("S", "A", "B", "C"),
            (
                ("S", (("nt", "A"), ("nt", "A"))),
                ("A", (("nt", "B"),)),
                ("B", (("nt", "C"),)),
                ("C", (("t", "a"),)),
                ("C", (("t", "b"),)),
            ),
            "S",
        )
        assert_settled_walk_equivalent(h)
        assert len(nfa_enumerate(acyclic_nfa(h), 2)) == 4

    def test_nested_stars(self):
        """C's star over the open S is a forced advance."""
        h = KleeneGrammar(
            AB0,
            ("S", "A", "B", "C"),
            (
                ("S", (("star", "A"),)),
                ("A", (("star", "B"), ("nt", "C"))),
                ("B", (("t", "a"),)),
                ("C", (("t", "b"),)),
                ("C", (("star", "S"), ("star", "B"))),
            ),
            "S",
        )
        assert_settled_walk_equivalent(h)

    @pytest.mark.parametrize(
        "priorities",
        [{"a": 0, "b": 1, "c": 2}, {"a": 0, "b": 1, "c": 1, "d": 2}, {"a": 0, "c": 2}],
        ids=["abc", "abcd", "ac"],
    )
    def test_random_grammars(self, priorities):
        """Settling only removes states, so both walks get one cap, and
        the settled walk must close wherever the unsettled one does."""
        alphabet = flatten(PriorityAlphabet.from_map(priorities))
        cap = 2000
        compared = 0
        for seed in range(60):
            cnf, _ = to_cnf(random_cfg(random.Random(seed), alphabet))
            if not cnf.productions:
                continue
            try:
                h = _kleene(cnf, max_states=cap)
            except ResourceLimit:
                continue
            try:
                unsettled = nfa_reduce(unsettled_acyclic_nfa(h, cap))
            except ResourceLimit:
                continue
            assert nfa_reduce(acyclic_nfa(h, cap)) == unsettled, seed
            compared += 1
        assert compared >= 10


class TestBlockClosure:
    def test_flagship_pipeline(self):
        target = nfa_parse(
            {
                "states": ["q0", "q1"],
                "initial": "q0",
                "finals": ["q1"],
                "edges": [["q0", "1", "q0"], ["q0", "2", "q1"], ["q1", "1", "q1"]],
            },
            P12,
        )
        assert nfa_equivalent_up_to(cfg_block_closure(flagship()), target, 8) is None

    def test_two_letter_word(self):
        g = Cfg(AB0, ("S",), (("S", ("a", "b")),), "S")
        want = nfa_for_words(AB0, [(), ("a",), ("b",), ("a", "b")])
        assert nfa_equivalent_up_to(cfg_block_closure(g), want, 4) is None

    def test_pinned_word_closure(self):
        g = Cfg(D1, ("S",), (("S", ("0a", "1b", "0a")),), "S")
        want = nfa_for_words(
            D1,
            [w("1b"), w("0a,1b"), w("1b,0a"), w("0a,1b,0a")],
        )
        assert nfa_equivalent_up_to(cfg_block_closure(g), want, 5) is None

    def test_all_zero_matches_subword(self):
        got = cfg_block_closure(anbn())
        want = set(closure_bounded(cfg_enumerate(anbn(), 12), OrderKind.SUBWORD, AB0, 6))
        assert set(nfa_enumerate(got, 6)) == want

    def test_empty_grammar(self):
        assert nfa_enumerate(cfg_block_closure(empty_grammar()), 4) == []

    def test_empty_word_grammar(self):
        g = Cfg(AB0, ("S",), (("S", ()),), "S")
        assert nfa_enumerate(cfg_block_closure(g), 3) == [()]


class TestPriorityClosure:
    def test_flagship_matches_oracle(self):
        got = set(nfa_enumerate(cfg_priority_closure(flagship()), 7))
        want = set(
            closure_bounded(
                cfg_enumerate(flagship(), 15), OrderKind.PRIORITY, P12, 7
            )
        )
        assert got == want

    def test_empty(self):
        assert nfa_enumerate(cfg_priority_closure(empty_grammar()), 4) == []

    def test_idempotent(self):
        closed = cfg_priority_closure(flagship())
        again = closure_regular(closed, OrderKind.PRIORITY)
        assert nfa_equivalent_up_to(closed, again, 6) is None


ALL_ZERO = PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 0})


class TestSkeletonByOrder:
    """Subword order, and block order on priority 0 alone, take the
    subword closure per component; the other orders rebuild over the
    flattened alphabet.  Both give the closures of the flattened route
    in every order (``reference_cfg_closure``)."""

    @pytest.mark.parametrize(
        "g",
        PIPELINE_GRAMMARS + [eps_only(), nullable_start()],
        ids=["flagship", "anbn", "ring-0", "ring-a0b1c2d0", "empty", "eps-only", "nullable-start"],
    )
    def test_pipeline_grammars(self, g):
        """In every order, so the empty word takes both routes; the
        reference adds it to the skeleton by a union."""
        for order in OrderKind:
            assert cfg_closure(g, order) == reference_cfg_closure(g, order), order

    @pytest.mark.parametrize(
        "alphabet",
        [*(PriorityAlphabet.from_map(p) for p in RANDOM_PRIORITIES), ALL_ZERO],
        ids=["abc", "abcd", "ac", "abc-0"],
    )
    def test_random_grammars(self, alphabet):
        """Capped at 2,000 states; a seed is skipped when the flattened
        route stops."""
        orders = [OrderKind.SUBWORD]
        if not alphabet.max_assigned_priority:
            orders.append(OrderKind.BLOCK)
        compared = 0
        for seed in range(40):
            g = random_cfg(random.Random(seed), alphabet)
            for order in orders:
                try:
                    want = reference_cfg_closure(g, order, max_states=2000)
                except ResourceLimit:
                    continue
                assert cfg_closure(g, order, max_states=2000) == want, (seed, order)
                compared += 1
        assert compared >= 30

    def test_priority_order_keeps_the_last_letter_on_priority_0(self):
        """a is not priority-below ab, though it is a subword of it."""
        g = Cfg(AB0, ("S",), (("S", ("a", "b")),), "S")
        closed = cfg_priority_closure(g)
        assert nfa_accepts(closed, ("b",)) and not nfa_accepts(closed, ("a",))
        assert nfa_accepts(cfg_closure(g, OrderKind.SUBWORD), ("a",))

    def test_block_order_on_one_positive_priority_is_not_subword_order(self):
        """The empty word lies block-below no word with a positive letter."""
        alphabet = PriorityAlphabet.from_map({"a": 1, "b": 1, "c": 1})
        g = Cfg(alphabet, ("S",), (("S", ("a", "S", "c")), ("S", ("b",))), "S")
        block = cfg_block_closure(g)
        subword = cfg_closure(g, OrderKind.SUBWORD)
        assert nfa_accepts(subword, ()) and not nfa_accepts(block, ())
        assert block == reference_cfg_closure(g, OrderKind.BLOCK)


def renamed(g: Cfg, names: dict[str, str]) -> Cfg:
    """g with each nonterminal N in ``names`` renamed names[N]."""
    def name(sym: str) -> str:
        return names.get(sym, sym)

    prods = tuple((name(lhs), tuple(map(name, rhs))) for lhs, rhs in g.productions)
    return Cfg(g.alphabet, tuple(map(name, g.nonterminals)), prods, name(g.start))


def generated_names(g: Cfg) -> Cfg:
    """g with its nonterminals renamed, in sorted order, to names of the
    renamed copies that the rebuild of the flattened grammar makes.

    The names are read off the rebuild of g under neutral names n00,
    n01, ..., leaving out those that contain a neutral name.  The
    mapping keeps the nonterminals' sorted order, so the rebuild of the
    result visits them as it did, and would give its copies the same
    names again."""
    neutral = {n: f"n{i:02d}" for i, n in enumerate(g.nonterminals)}
    g0 = renamed(g, neutral)
    cnf, _ = to_cnf(replace(g0, alphabet=flatten(g.alphabet)))
    copies = sorted(
        n for n in _kleene(cnf).nonterminals
        if n.startswith("k") and not set(n.split(".")) & set(neutral.values())
    )
    return renamed(g0, dict(zip(sorted(neutral.values()), copies)))


class TestGeneratedNames:
    """A nonterminal of the input may carry a name that the rebuild
    gives one of its renamed copies; the copy then takes another name."""

    @pytest.mark.parametrize(
        "g",
        PIPELINE_GRAMMARS[:4] + [gap_grammar(), nullable_start()],
        ids=["flagship", "anbn", "ring-0", "ring-a0b1c2d0", "gap", "nullable-start"],
    )
    def test_closures_keep_their_names_apart(self, g):
        clashing = generated_names(g)
        rebuilt = flat_kleene(clashing).nonterminals
        assert any(f"{n}.2" in rebuilt for n in clashing.nonterminals)
        for order in OrderKind:
            assert cfg_closure(clashing, order) == cfg_closure(g, order), order

    def test_copy_names_are_fresh(self):
        """X -> 1 X 1 | N 0 and N -> 2 | 0 N, with N named as the ends
        copy of the fifth pump pair names its lifted left marker."""
        n = "k5.T.#L"
        prods = (("X", ("1", "X", "1")), ("X", (n, "0")), (n, ("2",)), (n, ("0", n)))
        g = Cfg(PriorityAlphabet.from_map({"0": 0, "1": 1, "2": 2}), ("X", n), prods, "X")
        assert f"{n}.2" in flat_kleene(g).nonterminals
        assert cfg_priority_closure(g) == cfg_priority_closure(renamed(g, {n: "Y"}))

    @pytest.mark.parametrize("n", ["#", "#L", "#R"])
    @pytest.mark.parametrize("order", list(OrderKind), ids=lambda order: order.value)
    def test_seam_markers_avoid_nonterminals(self, n, order):
        """X -> 1 X 1 | N 0 and N -> 2 | 0 N, with N named as a seam marker."""
        prods = (("X", ("1", "X", "1")), ("X", (n, "0")), (n, ("2",)), (n, ("0", n)))
        g = Cfg(PriorityAlphabet.from_map({"0": 0, "1": 1, "2": 2}), ("X", n), prods, "X")
        assert cfg_closure(g, order) == cfg_closure(renamed(g, {n: "Y"}), order)


DENSE_LETTERS = PriorityAlphabet.from_map({"a0": 0, "a1": 0, "a2": 0})


def dense(k: int) -> Cfg:
    """N_i -> N_(i+1) a_(i mod 3) N_(i+3) | a_(i mod 3), indices mod k."""
    prods = []
    for i in range(k):
        a = f"a{i % 3}"
        prods += [(f"N{i}", (f"N{(i + 1) % k}", a, f"N{(i + 3) % k}")), (f"N{i}", (a,))]
    return Cfg(DENSE_LETTERS, tuple(f"N{i}" for i in range(k)), tuple(prods), "N0")


class TestDenseFamily:
    """One non-linear component holds every nonterminal and every letter,
    so the closure loops on every letter at one state."""

    @pytest.mark.parametrize("order", [OrderKind.SUBWORD, OrderKind.BLOCK])
    @pytest.mark.parametrize("k", [14, 18])
    def test_closure_is_one_state(self, k, order):
        loops = [["q", a, "q"] for a in DENSE_LETTERS.letters]
        one_state = nfa_parse(
            {"states": ["q"], "initial": "q", "finals": ["q"], "edges": loops}, DENSE_LETTERS
        )
        assert cfg_closure(dense(k), order) == one_state


def shared(k: int) -> Cfg:
    """X_i -> X_(i+1) X_(i+1) for i < k, and X_k -> X_k a | a."""
    prods = [(f"X{i}", (f"X{i + 1}", f"X{i + 1}")) for i in range(k)]
    prods += [(f"X{k}", (f"X{k}", "a")), (f"X{k}", ("a",))]
    return Cfg(A0, tuple(f"X{i}" for i in range(k + 1)), tuple(prods), "X0")


class TestSharedFamily:
    """Each X_(i+1) is one component that X_i uses twice; its automaton
    is built once, so k = 40 closes to a loop on a under 100 states."""

    @pytest.mark.parametrize("order", [OrderKind.SUBWORD, OrderKind.BLOCK])
    def test_closure_is_one_state(self, order):
        one_state = nfa_parse(
            {"states": ["q"], "initial": "q", "finals": ["q"], "edges": [["q", "a", "q"]]}, A0
        )
        assert cfg_closure(shared(40), order, max_states=100) == one_state


FULL_SANDWICH = [
    Cfg(D1, ("S",), (("S", ("0a", "1b", "0a")),), "S"),
    Cfg(AB01, ("S",), (("S", ("a", "b")), ("S", ("b",))), "S"),
    Cfg(A1, ("S",), (("S", ("a", "S")), ("S", ("a",))), "S"),
    Cfg(AB0, ("S",), (("S", ("a", "S")), ("S", ("a",))), "S"),
]

CONTAINMENT_ONLY = [
    anbn(AB0),
    anbn(AB01),
    anbn(AB10),
    ring(),
]


class TestClosureInvariants:
    def test_sandwich_full(self):
        for g in FULL_SANDWICH:
            lang6 = set(cfg_enumerate(g, 6))
            mid = set(nfa_enumerate(cfg_block_closure(g), 6))
            upper = set(
                closure_bounded(cfg_enumerate(g, 10), OrderKind.BLOCK, g.alphabet, 6)
            )
            lower_closed = set(
                closure_bounded(sorted(lang6), OrderKind.BLOCK, g.alphabet, 6)
            )
            assert lang6 <= mid <= upper
            assert lower_closed == upper

    def test_sandwich_containment(self):
        for g in CONTAINMENT_ONLY:
            lang6 = set(cfg_enumerate(g, 6))
            mid = set(nfa_enumerate(cfg_block_closure(g), 6))
            assert lang6 <= mid
            dominators = cfg_enumerate(g, 26)
            for u in sorted(mid):
                assert any(
                    leq_block_absorbing_ref(g.alphabet, u, v) for v in dominators
                ), (g.start, u)

    def test_exact_bounded_equality(self):
        for g in FULL_SANDWICH + [anbn(AB01), anbn(AB10), anbn(AB0)]:
            got = set(nfa_enumerate(cfg_block_closure(g), 6))
            want = set(
                closure_bounded(cfg_enumerate(g, 12), OrderKind.BLOCK, g.alphabet, 6)
            )
            assert got == want, g.productions

    def test_seam_separates_block_order(self):
        base = PriorityAlphabet.from_map({"x": 0, "s": 1})
        hat = PriorityAlphabet.from_map({"x": 0, "s": 1, "#": 0})
        words = [()]
        for n in range(1, 5):
            fresh = []
            for u in words:
                if len(u) == n - 1:
                    fresh.extend([u + ("x",), u + ("s",)])
            words.extend(fresh)
        pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= 4]
        for u, v in pairs:
            for uu, vv in pairs:
                joined = leq_block(hat, u + ("#",) + v, uu + ("#",) + vv)
                split = leq_block(base, u, uu) and leq_block(base, v, vv)
                assert joined == split, (u, v, uu, vv)

    def test_nonterminal_recurrence(self):
        from prioclose.core import flatten

        for g in (flagship(), anbn(AB01), ring()):
            flat = flatten(g.alphabet)
            cnf, _ = to_cnf(g)
            fcnf = Cfg(flat, cnf.nonterminals, cnf.productions, cnf.start)
            n, p, inner, result = kleene_sizes(fcnf)
            biggest = max(inner, default=1)
            allowed = n + n * (p + 1) ** 2 * (3 * biggest + 2) + p + 2
            assert result <= allowed, (n, p, inner, result)

    def test_expanded_seams_dominated_by_pumps(self):
        cases = [
            (flagship(), "X", 1, 1),
            (ring(), "X", 0, 0),
        ]
        for g, x, r, s in cases:
            steps = KleeneSteps(g)
            seam_words = cfg_enumerate(steps.ends(x, r, s), 8)
            left_g, right_g = steps.runs(x, r, s)
            left_reps = cfg_enumerate(left_g, 4)
            right_reps = cfg_enumerate(right_g, 4)
            pumps = derived_contexts(g, x, 10)

            def expansions(pri, reps):
                # a marker becomes its separator, each repeat a run and one more
                if pri >= 1:
                    sep = (g.alphabet.letters_of(pri)[0],)
                else:
                    sep = ()
                out = {sep}
                for first in reps:
                    out.add(sep + first + sep)
                    for second in reps:
                        out.add(sep + first + sep + second + sep)
                return out

            for word in seam_words:
                i, j, k = word.index("#L"), word.index("#"), word.index("#R")
                for mid_l in expansions(r, left_reps):
                    for mid_r in expansions(s, right_reps):
                        u = word[:i] + mid_l + word[i + 1 : j]
                        v = word[j + 1 : k] + mid_r + word[k + 1 :]
                        if len(u) + len(v) > 6:
                            continue
                        assert any(
                            leq_block(g.alphabet, u, uu)
                            and leq_block(g.alphabet, v, vv)
                            for uu, vv in pumps
                        ), (u, v)


class TestSerialization:
    def test_cfg_round_trip(self):
        g = flagship()
        data = cfg_serialize(g)
        back = cfg_parse(data, P12)
        assert back == g

    def test_malformed(self):
        with pytest.raises(ValueError):
            cfg_parse({"start": "S"}, AB0)
        with pytest.raises(ValueError):
            cfg_parse(
                {
                    "start": "S",
                    "nonterminals": ["S"],
                    "terminals": ["z"],
                    "productions": [],
                },
                AB0,
            )

    def test_dot(self):
        text = cfg_to_dot(flagship())
        assert text.startswith("digraph")
        assert '"X"' in text

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Cfg(AB0, ("S",), (("S", ("Q",)),), "S")
        with pytest.raises(ValueError):
            Cfg(AB0, ("S",), (), "T")
        with pytest.raises(ValueError):
            Cfg(AB0, ("a", "S"), (), "S")
