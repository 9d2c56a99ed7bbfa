"""Release gate: one verdict per advertised guarantee.

Each test states its own scale and time budget.  Expected values come
from the definitional enumerators in tests/reference.py or from the
bounded closure oracle, never from the constructions under test.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from itertools import product

from prioclose import (
    Cfg,
    CounterOp,
    Nfa,
    Oca,
    AcceptMode,
    OrderKind,
    PriorityAlphabet,
    SimpleOca,
    apply_transduction,
    block_transducer,
    cfg_block_closure,
    cfg_enumerate,
    cfg_priority_closure,
    closure_bounded,
    closure_regular,
    compare_closure,
    leq_block,
    leq_priority,
    nfa_enumerate,
    nfa_for_words,
    nfa_parse,
    oca_block_closure,
    oca_enumerate,
    oca_priority_closure,
    priority_transducer,
    soca_closure_nfa,
    subword_transducer,
    subwords_up_to,
    to_cnf,
)
from prioclose.core import flatten
from reference import all_words, kleene_sizes, leq_block_ref, leq_priority_ref

EX = PriorityAlphabet.from_map(
    {"0a": 0, "0b": 0, "1a": 1, "1b": 1, "2a": 2, "2b": 2}
)
FLAT3 = PriorityAlphabet.from_map({"0": 0, "1": 1, "2": 2})
FLAT4 = PriorityAlphabet.from_map({"0": 0, "1": 1, "2": 2, "3": 3})
P12 = PriorityAlphabet.from_map({"1": 1, "2": 2})
AB0 = PriorityAlphabet.from_map({"a": 0, "b": 0})
AB01 = PriorityAlphabet.from_map({"a": 0, "b": 1})
AB10 = PriorityAlphabet.from_map({"a": 1, "b": 0})
ABC = PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 1})
ABCD0 = PriorityAlphabet.from_map({"a": 0, "b": 0, "c": 0, "d": 0})

ORDERS = (OrderKind.SUBWORD, OrderKind.PRIORITY, OrderKind.BLOCK)


def w(text: str):
    return tuple(text.split(",")) if text else ()


def flagship() -> Cfg:
    return Cfg(P12, ("X",), (("X", ("1", "X", "1")), ("X", ("2",))), "X")


def anbn(alphabet=AB0) -> Cfg:
    return Cfg(
        alphabet,
        ("S",),
        (("S", ("a", "S", "b")), ("S", ("a", "b"))),
        "S",
    )


def ring() -> Cfg:
    return Cfg(
        ABCD0,
        ("X",),
        (("X", ("a", "b", "X", "c")), ("X", ("d",))),
        "X",
    )


def soca_anbn(pa=0, pb=0) -> SimpleOca:
    return SimpleOca(
        PriorityAlphabet.from_map({"a": pa, "b": pb}),
        ("q0", "q1"),
        (
            ("q0", "a", CounterOp.INC, "q0"),
            ("q0", None, CounterOp.NOOP, "q1"),
            ("q1", "b", CounterOp.DEC, "q1"),
        ),
        "q0",
        "q1",
    )


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


def random_nfa(rng) -> Nfa:
    """Up to five states over {a, b} with priorities drawn from {0, 1}."""
    n = rng.randint(1, 5)
    states = tuple(f"q{i}" for i in range(n))
    pa, pb = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1)])
    alphabet = PriorityAlphabet.from_map({"a": pa, "b": pb})
    edges = []
    for src in states:
        for letter in ("a", "b"):
            for dst in states:
                if rng.random() < 0.18:
                    edges.append((src, letter, dst))
        for dst in states:
            if rng.random() < 0.05:
                edges.append((src, None, dst))
    finals = tuple(s for s in states if rng.random() < 0.4) or (states[-1],)
    return nfa_parse(
        {"states": states, "initial": "q0", "finals": finals, "edges": edges}, alphabet
    )


def model_words(model, bound: int):
    if isinstance(model, Nfa):
        return nfa_enumerate(model, bound)
    if isinstance(model, Cfg):
        return cfg_enumerate(model, bound)
    return oca_enumerate(model, bound)


def test_1_order_decisions_match_definitional_enumerators():
    """Both decision procedures against brute-force witness enumeration.

    Full grid on the flat three-priority alphabet, words of length <= 6
    (1.19 million pairs); every pair of total length <= 7 on the
    six-letter alphabet (2.65 million pairs).  Budget five minutes.
    """
    start = time.monotonic()

    words = list(all_words(FLAT3.letters, 6))
    assert len(words) == 1093
    for u in words:
        for v in words:
            assert leq_block(FLAT3, u, v) == leq_block_ref(FLAT3, u, v), (u, v)
            assert leq_priority(FLAT3, u, v) == leq_priority_ref(FLAT3, u, v), (u, v)

    # The full <= 6 grid over six letters would be 3.1e9 pairs, so the
    # wide alphabet is swept by total length instead, which still favors
    # the asymmetric pairs where the decision procedures do real work.
    by_len = defaultdict(list)
    for word in all_words(EX.letters, 7):
        by_len[len(word)].append(word)
    for total in range(8):
        for i in range(total + 1):
            for u in by_len[i]:
                for v in by_len[total - i]:
                    assert leq_block(EX, u, v) == leq_block_ref(EX, u, v), (u, v)
                    assert leq_priority(EX, u, v) == leq_priority_ref(EX, u, v), (u, v)

    # hand-checked relations
    assert leq_block(EX, (), w("0a"))
    assert leq_block(EX, w("0a"), w("0a,0b"))
    assert leq_block(EX, w("1b,0a"), w("0a,1b,0a,0a,1a,0a,0b"))
    assert not leq_block(EX, w("1b,0a"), w("0a,1b,0a,0a,1a,0b,0b"))
    assert leq_block(EX, w("2a,1b,0a"), w("0a,2a,0a,1b,0a,0a,1a,0a,0b"))
    assert not leq_block(EX, w("2a,1b,0a"), w("0a,2b,0a,1b,0a,0a,1a,0a,0b"))
    assert not leq_block(EX, w("1a,1b"), w("1a,2a,1b"))
    assert leq_block(EX, w("1a,0a"), w("1a,1b,0a"))
    assert not leq_priority(EX, w("1a,0a"), w("1a,1b,0a"))
    assert leq_block(
        FLAT3,
        w("1,2,0,1,2,1,1,2,1,0"),
        w("1,2,0,1,0,1,2,1,1,2,1,1,2,1,1,2,1,0"),
    )

    assert time.monotonic() - start < 300.0


def test_2_block_order_laws_hold_without_exception():
    """Concatenation, pumping, and flat-alphabet refinement laws.

    Multiplicativity over every related pair of words <= 4; pumping over
    every three-way split of every word <= 6; refinement into the
    priority order on every same-final-letter pair <= 6.  Zero
    violations tolerated.
    """
    words4 = list(all_words(FLAT3.letters, 4))
    related = [(u, v) for u in words4 for v in words4 if leq_block(FLAT3, u, v)]
    assert len(related) == 431
    for (u, u_big), (v, v_big) in product(related, related):
        assert leq_block(FLAT3, u + v, u_big + v_big), (u, u_big, v, v_big)

    pairs_ex = []
    for u in all_words(EX.letters, 3):
        for v in all_words(EX.letters, 3 - len(u)):
            if leq_block(EX, u, v):
                pairs_ex.append((u, v))
    for (u, u_big), (v, v_big) in product(pairs_ex, pairs_ex):
        assert leq_block(EX, u + v, u_big + v_big), (u, u_big, v, v_big)

    # dropping one copy of a repeated factor always stays below
    for alphabet, bound in ((FLAT3, 6), (EX, 4)):
        for word in all_words(alphabet.letters, bound):
            for i in range(len(word) + 1):
                for j in range(i, len(word) + 1):
                    pumped = word[:i] + word[i:j] + word[i:j] + word[j:]
                    assert leq_block(alphabet, word, pumped), (word, i, j)

    # on a flat alphabet the block order is the finer one when the
    # words agree on their final letter
    words6 = list(all_words(FLAT3.letters, 6))
    for u in words6:
        if not u:
            continue
        for v in words6:
            if v and u[-1] == v[-1] and leq_block(FLAT3, u, v):
                assert leq_priority(FLAT3, u, v), (u, v)


def test_3_singleton_transducers_carve_exact_principal_ideals():
    """One transducer pass on {v} yields {u : u below v}, for every v <= 6.

    Exhaustive on the flat three-priority alphabet; state counts pinned
    at d+4, d+2, and 1.  On alphabets with several letters per priority
    a single pass of the block rewriter is only a sound under-
    approximation (one pass cannot drop a trailing separator whose
    block must merge leftward), so the six-letter alphabet is checked
    for soundness plus a pinned witness, and the layered closure is
    shown to recover the full ideal.
    """
    trios = [
        (priority_transducer(FLAT3), leq_priority),
        (block_transducer(FLAT3), leq_block),
        (subword_transducer(FLAT3), None),
    ]
    for v in all_words(FLAT3.letters, 6):
        singleton = nfa_for_words(FLAT3, [v])
        subs = subwords_up_to(v, len(v))
        for trans, rel in trios:
            got = set(nfa_enumerate(apply_transduction(trans, singleton), len(v)))
            want = subs if rel is None else {u for u in subs if rel(FLAT3, u, v)}
            assert got == want, (v, rel)

    for alphabet in (FLAT3, FLAT4):
        d = alphabet.max_assigned_priority
        assert len(priority_transducer(alphabet).states) == d + 4
        assert len(block_transducer(alphabet).states) == d + 2
        assert len(subword_transducer(alphabet).states) == 1

    pri_ex = priority_transducer(EX)
    sub_ex = subword_transducer(EX)
    blk_ex = block_transducer(EX)
    for v in all_words(EX.letters, 3):
        singleton = nfa_for_words(EX, [v])
        subs = subwords_up_to(v, len(v))
        got = set(nfa_enumerate(apply_transduction(pri_ex, singleton), len(v)))
        assert got == {u for u in subs if leq_priority(EX, u, v)}, (v,)
        got = set(nfa_enumerate(apply_transduction(sub_ex, singleton), len(v)))
        assert got == subs, (v,)
        got = set(nfa_enumerate(apply_transduction(blk_ex, singleton), len(v)))
        assert got <= {u for u in subs if leq_block(EX, u, v)}, (v,)

    witness = w("1a,1b")
    single_pass = set(
        nfa_enumerate(apply_transduction(blk_ex, nfa_for_words(EX, [witness])), 2)
    )
    assert leq_block(EX, w("1a"), witness)
    assert w("1a") not in single_pass
    layered = closure_regular(nfa_for_words(EX, [witness]), OrderKind.BLOCK)
    assert set(nfa_enumerate(layered, 2)) == {w("1a"), w("1b"), witness}


def test_4_random_nfa_closures_agree_with_oracle():
    """Fifty seeded random NFAs, all three orders, bound 6, depth 12.

    The draw is filtered on oracle data alone: machines are redrawn
    until words of length <= 18 add nothing to the bounded closure that
    words of length <= 12 had not already covered, so depth 12 provably
    suffices for the comparison.  Budget ten minutes.
    """
    start = time.monotonic()
    rng = random.Random(20260822)
    machines = []
    redrawn = 0
    while len(machines) < 50:
        m = random_nfa(rng)
        # Word counts only grow with the bound, so a machine with more
        # than 200 words up to length 12 fails the test below anyway.
        if len(nfa_enumerate(m, 12)) > 200:
            redrawn += 1
            continue
        deep = nfa_enumerate(m, 18)
        if len(deep) > 200:
            redrawn += 1
            continue
        shallow = [v for v in deep if len(v) <= 12]
        stable = all(
            closure_bounded(shallow, order, m.alphabet, 6)
            == closure_bounded(deep, order, m.alphabet, 6)
            for order in ORDERS
        )
        if not stable:
            redrawn += 1
            continue
        machines.append(m)
    assert redrawn < 200

    for i, m in enumerate(machines):
        for order in ORDERS:
            report = compare_closure(m, order, closure_regular(m, order), 6, dom_bound=12)
            assert report.equal, (i, order, report.missing_words, report.extra_words)

    assert time.monotonic() - start < 600.0


def test_5_counter_machine_closures_verify():
    """Counter machines: overapproximation sandwich, size bound, closures.

    The no-zero-test translation is sandwiched between the machine's
    language and its block closure at bound 7 under three priority
    assignments, within 2K(K+1) + (K^2+K)(K^2+K+2) states.  Machines
    with zero tests close correctly at bound 6, depth 12, in both the
    block and the priority order.
    """
    for pa, pb in ((0, 0), (0, 1), (1, 0)):
        s = soca_anbn(pa, pb)
        built = soca_closure_nfa(s)
        language = set(oca_enumerate(s, 7))
        approximation = set(nfa_enumerate(built, 7))
        assert language <= approximation, (pa, pb)
        oracle = set(
            closure_bounded(
                oca_enumerate(s, 14), OrderKind.BLOCK, s.alphabet, 7
            )
        )
        assert approximation <= oracle, (pa, pb)
        k = len(s.states)
        assert len(built.states) <= 2 * k * (k + 1) + (k * k + k) * (k * k + k + 2)

    closed = closure_regular(soca_closure_nfa(soca_anbn(0, 1)), OrderKind.BLOCK)
    expect = {()} | {
        ("a",) * i + ("b",) * j for i in range(8) for j in range(1, 8 - i)
    }
    assert set(nfa_enumerate(closed, 7)) == expect

    droppable = Oca(
        PriorityAlphabet.from_map({"c": 0}),
        ("q0", "f"),
        (("q0", "c", CounterOp.ZERO, "f"),),
        "q0",
        ("f",),
        AcceptMode.ZERO_COUNTER,
    )
    corpus = [oca_anbnc(), oca_anbn(0, 1), oca_anbn(1, 0), droppable]
    for machine in corpus:
        for order, close in (
            (OrderKind.BLOCK, oca_block_closure),
            (OrderKind.PRIORITY, oca_priority_closure),
        ):
            report = compare_closure(machine, order, close(machine), 6, dom_bound=12)
            assert report.equal, (machine.states, order, report.missing_words, report.extra_words)


def test_6_grammar_closures_verify():
    """Grammar pipeline on the nested-pair corpus, desk scale.

    The two-priority nested grammar closes to 1*21* (checked to length
    8) in the block order and verifies against the oracle at bound 7 in
    the priority order; with every priority at zero the pipeline
    reproduces the classical scattered-subword closure.  Every grammar
    stays within 3 priorities and 5 nonterminals, and the nonterminal
    count of each starred normal form obeys the stated recurrence.
    """
    g = flagship()
    closed = cfg_block_closure(g)
    expect = {
        ("1",) * i + ("2",) + ("1",) * j
        for i in range(8)
        for j in range(8 - i)
    }
    assert set(nfa_enumerate(closed, 8)) == expect

    report = compare_closure(g, OrderKind.PRIORITY, cfg_priority_closure(g), 7, dom_bound=15)
    assert report.equal, (report.missing_words, report.extra_words)

    plain = anbn(AB0)
    degenerate = set(nfa_enumerate(cfg_block_closure(plain), 6))
    classical = set(
        closure_bounded(cfg_enumerate(plain, 12), OrderKind.SUBWORD, AB0, 6)
    )
    assert degenerate == classical

    corpus = [flagship(), anbn(AB0), anbn(AB01), anbn(AB10), ring()]
    for grammar in corpus:
        assert grammar.alphabet.max_assigned_priority <= 3
        assert len(grammar.nonterminals) <= 5
        flat = flatten(grammar.alphabet)
        cnf, _ = to_cnf(grammar)
        fcnf = Cfg(flat, cnf.nonterminals, cnf.productions, cnf.start)
        n, p, inner, result = kleene_sizes(fcnf)
        biggest = max(inner, default=1)
        allowed = n + n * (p + 1) ** 2 * (3 * biggest + 2) + p + 2
        assert result <= allowed, (n, p, inner, result)


def test_7_closures_idempotent_and_sound():
    """Re-closing any constructed closure gives the same automaton, and
    every model's language sits inside its closure up to length 6.
    """
    rng = random.Random(7)
    corpus: list[tuple[object, OrderKind, Nfa]] = [
        (flagship(), OrderKind.BLOCK, cfg_block_closure(flagship())),
        (flagship(), OrderKind.PRIORITY, cfg_priority_closure(flagship())),
        (anbn(AB01), OrderKind.BLOCK, cfg_block_closure(anbn(AB01))),
        (oca_anbnc(), OrderKind.BLOCK, oca_block_closure(oca_anbnc())),
        (oca_anbnc(), OrderKind.PRIORITY, oca_priority_closure(oca_anbnc())),
        (
            soca_anbn(0, 1),
            OrderKind.BLOCK,
            closure_regular(soca_closure_nfa(soca_anbn(0, 1)), OrderKind.BLOCK),
        ),
    ]
    pearl = nfa_for_words(EX, [w("0a,1b,0a")])
    for order in ORDERS:
        corpus.append((pearl, order, closure_regular(pearl, order)))
    for _ in range(3):
        m = random_nfa(rng)
        for order in ORDERS:
            corpus.append((m, order, closure_regular(m, order)))

    for model, order, closed in corpus:
        assert closure_regular(closed, order) == closed, (order,)
        assert set(model_words(model, 6)) <= set(nfa_enumerate(closed, 6)), (order,)
