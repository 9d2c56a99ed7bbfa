"""Differential checks of the grammar triple construction and fixpoints.

The image of a grammar under the identity transducer of an automaton is
their intersection, and the identity keeps word lengths, so up to a
length bound the image's words are exactly the grammar's words that the
automaton accepts.  The reference side-letter fixpoint is checked against
that intersection with small pattern automata, and the grammar's
component reading of the pump sides against that fixpoint.
"""

import itertools
import random

import pytest

import prioclose.cfg as cfg_module
from prioclose.automata import Nfa, nfa_accepts, nfa_parse
from prioclose.cfg import (
    Cfg,
    HatAlphabet,
    _identity,
    _pump_from_cnf,
    _pump_sides,
    apply_transducer_to_cfg,
    cfg_closure,
    cfg_enumerate,
    cfg_intersect_regular_empty,
    to_cnf,
)
from prioclose.core import OrderKind, PriorityAlphabet, flatten

from reference import KleeneSteps, mid_sides, pruned_cfg
from test_oracle_enumerate import random_cfg

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
    return nfa_parse(
        {"states": states, "initial": states[0], "finals": finals, "edges": edges}, AB01
    )


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
    assert pruned_cfg(image) == image


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


def occurrence_nfa(alphabet: PriorityAlphabet, first: str, second: str) -> Nfa:
    """Words with ``first`` somewhere before ``second``."""
    edges = [(q, a, q) for q in ("n0", "n1", "n2") for a in alphabet.letters]
    edges += [("n0", first, "n1"), ("n1", second, "n2")]
    return nfa_parse(
        {"states": ["n0", "n1", "n2"], "initial": "n0", "finals": ["n2"], "edges": edges},
        alphabet,
    )


def not_just_nfa(alphabet: PriorityAlphabet, letter: str) -> Nfa:
    """Every word except the one-letter word ``letter``."""
    edges = [("q0", a, "qq") for a in alphabet.letters if a != letter]
    edges += [(q, a, "qq") for q in ("qm", "qq") for a in alphabet.letters]
    edges.append(("q0", letter, "qm"))
    return nfa_parse(
        {
            "states": ["q0", "qm", "qq"],
            "initial": "q0",
            "finals": ["q0", "qq"],
            "edges": edges,
        },
        alphabet,
    )


def sides_by_products(g: Cfg, mid: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The letters before and after ``mid``, one emptiness check each."""

    def meets(first, second):
        return not cfg_intersect_regular_empty(g, occurrence_nfa(g.alphabet, first, second))

    return (
        tuple(a for a in AB01.letters if meets(a, mid)),
        tuple(a for a in AB01.letters if meets(mid, a)),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_side_alphabets_match_the_products(seed):
    g = random_grammar(random.Random(seed))
    steps = KleeneSteps(g)
    mid = steps.hat.mid
    for x in g.nonterminals:
        pump = steps.pump(x)
        sides = steps.sides(x)
        assert sides == sides_by_products(pump, mid)
        beyond_seam = not cfg_intersect_regular_empty(pump, not_just_nfa(pump.alphabet, mid))
        assert any(sides) == beyond_seam


@pytest.mark.parametrize("seed", SEEDS)
def test_mid_sides_on_raw_grammars(seed):
    """With a letter that may occur many times, on grammars that keep their
    empty and unit rules."""
    g = pruned_cfg(random_grammar(random.Random(seed)))
    assert mid_sides(g, "b") == sides_by_products(g, "b")


@pytest.mark.parametrize("seed", range(40))
def test_pump_sides_match_the_spine_grammar_fixpoint(seed):
    """Also: ``_kleene`` normalises the unpruned pump grammar of each x on
    a cycle to the grammar that pruning it first gives."""
    rng = random.Random(seed)
    alphabet = PriorityAlphabet.from_map({"a": 0, "b": 1, "c": 2})
    hat = HatAlphabet.extend(alphabet)
    for _ in range(10):
        cnf, _ = to_cnf(random_cfg(rng, alphabet))
        _, sides = _pump_sides(cnf)
        assert set(sides) == set(cnf.nonterminals)
        for x in cnf.nonterminals:
            raw = _pump_from_cnf(cnf, x, hat)
            pump = pruned_cfg(raw)
            assert sides[x] == mid_sides(pump, hat.mid), (cnf, x)
            if any(sides[x]):
                assert to_cnf(raw) == to_cnf(pump), (cnf, x)


def test_kleene_builds_pumps_only_for_recursive_nonterminals(monkeypatch):
    builds = []

    def counted(*args):
        builds.append(args[1])
        return _pump_from_cnf(*args)

    monkeypatch.setattr(cfg_module, "_pump_from_cnf", counted)
    g = Cfg(AB01, ("S", "A"), (("S", ("A", "b", "A")), ("A", ("a", "b")), ("A", ("a",))), "S")
    for order in OrderKind:
        assert cfg_closure(g, order).finals
    assert builds == []


def test_kleene_skips_only_empty_pump_ends():
    """``_kleene`` tries a pair (r, s) of top priorities only where r is 0
    or the priority of a letter left of x in its pumps, and s likewise on
    the right.  On a flat alphabet a half of top priority r >= 1 holds r's
    one letter, so every other pair has no pump end."""
    alphabet = flatten(PriorityAlphabet.from_map({"a": 0, "b": 1, "c": 2}))
    pairs = list(itertools.product(range(alphabet.max_assigned_priority + 1), repeat=2))
    skipped = 0
    for seed in SEEDS:
        steps = KleeneSteps(random_cfg(random.Random(seed), alphabet))
        for x in steps.cnf.nonterminals:
            sides = steps.sides(x)
            if not any(sides):
                continue
            left, right = ({0, *map(alphabet.priority, side)} for side in sides)
            for r, s in pairs:
                if r not in left or s not in right:
                    assert steps.ends(x, r, s).productions == (), (seed, x, r, s)
                    skipped += 1
    assert skipped >= 100


def test_side_draws_cover_the_cases():
    one_sided = two_sided = bare = 0
    for seed in SEEDS:
        g = random_grammar(random.Random(seed))
        steps = KleeneSteps(g)
        for x in g.nonterminals:
            left, right = steps.sides(x)
            one_sided += bool(left) != bool(right)
            two_sided += bool(left and right)
            bare += not (left or right)
    assert one_sided and two_sided and bare


def test_pruned_cfg_drops_blocked_and_unreachable_productions():
    g = Cfg(AB01, ("S", "D"), (("S", ("a", "D")), ("S", ("b",)), ("D", ("D", "a"))), "S")
    assert pruned_cfg(g) == Cfg(AB01, ("S",), (("S", ("b",)),), "S")
    # U derives a word but the start does not reach it
    g = Cfg(AB01, ("S", "U"), (("S", ("b",)), ("U", ("a",))), "S")
    assert pruned_cfg(g) == Cfg(AB01, ("S",), (("S", ("b",)),), "S")
