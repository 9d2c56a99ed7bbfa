"""Context-free grammars, Kleene grammars, and their downward closures.

``cfg_closure`` normalizes a grammar to a binary normal form and
builds its skeleton, which ``automata.closure_regular`` closes.
Subword order, and block order on priority 0 alone, get the subword
closure as one automaton per strongly connected component
(``_subword_nfa``).  The orders that see priorities single out, over
the flattened alphabet, the letter runs that can repeat around a
self-embedding nonterminal, rebuild them as starred productions of a
Kleene grammar (``_kleene``), give that grammar the empty word if the
language has it, and turn its acyclic derivations into an NFA.

The rebuild works per nonterminal x on a cycle.  The letters on either
side of x's pumps come from one pass over the grammar's strongly
connected components (``_pump_sides``); only their priorities, and
zero, can be a pump half's top priority, so only those pairs of
priorities are tried.  For each pair, the pump ends and the runs that
repeat on each side are the images of the seam-marked pump grammar
(``_pump_from_cnf``) under letter transducers over a marker-extended
alphabet (``HatAlphabet``), one per part (``_pump_part``).  Each
transducer joins two half-pump gadgets at the seam: ``_outer`` keeps a
half's ends, ``_pick`` one of its repeatable runs, and ``_check`` only
checks its top priority.  The state cap bounds every transduction, the
rebuilt grammar, the acyclic automaton and each component automaton.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Mapping

from .automata import (
    Nfa,
    Transducer,
    _components,
    _moves,
    _name,
    _names,
    _state_names,
    _walk,
    closure_regular,
    nfa_for_words,
    nfa_reduce,
)
from .core import (
    DEFAULT_MAX_STATES,
    OrderKind,
    PriorityAlphabet,
    ResourceLimit,
    Word,
    _word_key,
    flatten,
)

# Kleene grammar right-hand sides are sequences of tagged items.
NT = "nt"
STAR = "star"
LIT = "t"
KItem = tuple[str, str]


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    i = 2
    while name in taken:
        name = f"{base}.{i}"
        i += 1
    taken.add(name)
    return name


@dataclass(frozen=True)
class Cfg:
    """Context-free grammar over a priority alphabet.

    Right-hand sides mix nonterminals and letters; the two name spaces
    must be disjoint.  Size is measured in nonterminals throughout.
    """

    alphabet: PriorityAlphabet
    nonterminals: tuple[str, ...]
    productions: tuple[tuple[str, tuple[str, ...]], ...]
    start: str

    def __post_init__(self) -> None:
        nts = tuple(sorted(set(self.nonterminals)))
        known = set(nts)
        letters = set(self.alphabet.letters)
        clash = known & letters
        if clash:
            raise ValueError(f"nonterminals also appear as letters: {sorted(clash)}")
        if self.start not in known:
            raise ValueError(f"start symbol {self.start!r} not declared")
        prods = tuple(sorted({(lhs, tuple(rhs)) for lhs, rhs in self.productions}))
        for lhs, rhs in prods:
            if lhs not in known:
                raise ValueError(f"production head {lhs!r} not declared")
            for sym in rhs:
                if sym not in known and sym not in letters:
                    raise ValueError(f"production symbol {sym!r} unknown")
        object.__setattr__(self, "nonterminals", nts)
        object.__setattr__(self, "productions", prods)


@dataclass(frozen=True)
class KleeneGrammar:
    """Grammar whose right-hand sides may carry starred nonterminals.

    Normal form: a right-hand side is either a single letter item or a
    sequence of at most two nonterminal items, each optionally starred.
    """

    alphabet: PriorityAlphabet
    nonterminals: tuple[str, ...]
    productions: tuple[tuple[str, tuple[KItem, ...]], ...]
    start: str

    def __post_init__(self) -> None:
        nts = tuple(sorted(set(self.nonterminals)))
        known = set(nts)
        letters = set(self.alphabet.letters)
        if self.start not in known:
            raise ValueError(f"start symbol {self.start!r} not declared")
        prods = tuple(sorted({(lhs, tuple(rhs)) for lhs, rhs in self.productions}))
        for lhs, rhs in prods:
            if lhs not in known:
                raise ValueError(f"production head {lhs!r} not declared")
            kinds = [kind for kind, _ in rhs]
            if kinds == [LIT]:
                if rhs[0][1] not in letters:
                    raise ValueError(f"letter {rhs[0][1]!r} not in alphabet")
            else:
                if len(rhs) > 2 or any(kind not in (NT, STAR) for kind in kinds):
                    raise ValueError(f"right-hand side {rhs!r} not in normal form")
                for _, sym in rhs:
                    if sym not in known:
                        raise ValueError(f"item symbol {sym!r} not declared")
        object.__setattr__(self, "nonterminals", nts)
        object.__setattr__(self, "productions", prods)


@dataclass(frozen=True)
class HatAlphabet:
    """Priority alphabet extended with three priority-0 marker letters.

    ``mid`` marks the seam of a pump pair, ``left`` and ``right`` stand
    for the replaced runs on either side.  Marker tokens are chosen
    fresh against the base and the names in ``taken``, so nested
    extensions never collide, nor do markers and nonterminals.
    """

    base: PriorityAlphabet
    alphabet: PriorityAlphabet
    mid: str
    left: str
    right: str

    @classmethod
    def extend(cls, base: PriorityAlphabet, taken: Iterable[str] = ()) -> "HatAlphabet":
        present = set(base.letters).union(taken)
        k = 0
        while True:
            suffix = "" if k == 0 else str(k)
            mid, left, right = "#" + suffix, "#L" + suffix, "#R" + suffix
            if not {mid, left, right} & present:
                break
            k += 1
        full = PriorityAlphabet(base.entries + ((mid, 0), (left, 0), (right, 0)))
        return cls(base=base, alphabet=full, mid=mid, left=left, right=right)


def _items(rhs: tuple[str, ...], letters: set[str]) -> tuple[KItem, ...]:
    return tuple((LIT, s) if s in letters else (NT, s) for s in rhs)


def _closed_heads(rules: list[tuple[str, tuple[str, ...]]]) -> set[str]:
    """Least set of heads that holds every head one of whose rules has
    all its body symbols in the set.

    A counter worklist, linear in the rules' size: each rule counts the
    body symbols not in the set yet, one per occurrence, and its head
    joins when the count reaches zero.  A symbol that heads no rule
    never joins, so callers leave out of a body what may never block it.
    """
    missing = [len(body) for _, body in rules]
    waiting: dict[str, list[int]] = {}
    for i, (_, body) in enumerate(rules):
        for sym in body:
            waiting.setdefault(sym, []).append(i)
    queue = [lhs for lhs, body in rules if not body]
    done: set[str] = set()
    while queue:
        sym = queue.pop()
        if sym in done:
            continue
        done.add(sym)
        for i in waiting.get(sym, ()):
            missing[i] -= 1
            if not missing[i]:
                queue.append(rules[i][0])
    return done


def _prune(
    prods: list[tuple[str, tuple[KItem, ...]]], start: str
) -> tuple[set[str], list[tuple[str, tuple[KItem, ...]]]]:
    """Nonterminals and productions of the productive, reachable part.

    Productions are over tagged items.  A production counts once every
    plain nonterminal item in it derives a word; starred items never
    block it, since they may repeat zero times, and starred items that
    derive nothing are dropped.  The start always stays, so a grammar
    with an empty language comes back production-free.
    """
    productive = _closed_heads(
        [(lhs, tuple(sym for kind, sym in rhs if kind == NT)) for lhs, rhs in prods]
    )
    by_head: dict[str, list[tuple[KItem, ...]]] = {}
    for lhs, rhs in prods:
        if all(kind != NT or sym in productive for kind, sym in rhs):
            by_head.setdefault(lhs, []).append(
                tuple(item for item in rhs if item[0] != STAR or item[1] in productive)
            )
    reachable = {start}
    frontier = [start]
    while frontier:
        for rhs in by_head.get(frontier.pop(), ()):
            for kind, sym in rhs:
                if kind != LIT and sym not in reachable:
                    reachable.add(sym)
                    frontier.append(sym)
    return reachable, [
        (lhs, rhs) for lhs in reachable for rhs in by_head.get(lhs, ())
    ]


def to_cnf(g: Cfg) -> tuple[Cfg, bool]:
    """Normalize to binary rules for the empty-word-free language.

    Returns the normalized grammar together with a flag telling whether
    the original language contained the empty word.  The fresh start
    symbol never occurs on a right-hand side, and useless symbols are
    pruned.  An empty language comes back as a production-free grammar.

    The work follows the output.  Letters are lifted out of long rules
    and the rules binarized, the empty rules expanded away, and then a
    walk from the fresh start collapses the unit chain of each head it
    reaches, emitting only the rules whose nonterminals all derive a
    word.  This keeps exactly the rules that collapsing every head's
    chain and then pruning would keep: collapsing unit chains keeps
    every nonterminal's language, so the nonterminals that derive a
    word are the same before and after, and a rule of the collapsed
    grammar is kept just when its head is reached through kept rules
    from the start, which is what the walk follows.  The chains skip
    unproductive symbols, which loses nothing: every symbol on the unit
    chain of an unproductive one is unproductive too.
    """
    taken = set(g.nonterminals) | set(g.alphabet.letters)
    letters = set(g.alphabet.letters)
    start = _fresh("S0", taken)
    prods: list[tuple[str, tuple[str, ...]]] = [(start, (g.start,))]
    prods.extend(g.productions)

    # Lift letters out of long rules, then binarize.
    lifted: dict[str, str] = {}
    step1: list[tuple[str, tuple[str, ...]]] = []
    for lhs, rhs in prods:
        if len(rhs) >= 2:
            new_rhs = []
            for sym in rhs:
                if sym in letters:
                    if sym not in lifted:
                        lifted[sym] = _fresh(f"T.{sym}", taken)
                        step1.append((lifted[sym], (sym,)))
                    new_rhs.append(lifted[sym])
                else:
                    new_rhs.append(sym)
            rhs = tuple(new_rhs)
        step1.append((lhs, rhs))
    step2: list[tuple[str, tuple[str, ...]]] = []
    for lhs, rhs in step1:
        while len(rhs) > 2:
            mid = _fresh(f"B.{lhs}", taken)
            step2.append((lhs, (rhs[0], mid)))
            lhs, rhs = mid, rhs[1:]
        step2.append((lhs, rhs))

    # Remove empty rules, remembering whether the start was nullable;
    # a letter heads no rule, so it never counts as nullable.
    nullable = _closed_heads(step2)
    had_empty = start in nullable
    step3: set[tuple[str, tuple[str, ...]]] = set()
    for lhs, rhs in step2:
        options = [((sym,), ()) if sym in nullable else ((sym,),) for sym in rhs]
        for picks in itertools.product(*options):
            flat = tuple(s for part in picks for s in part)
            if flat:
                step3.add((lhs, flat))

    # Collapse the unit chains of the productive heads the start reaches.
    productive = _closed_heads(
        [(lhs, tuple(s for s in rhs if s not in letters)) for lhs, rhs in step3]
    )
    unit_next: dict[str, list[str]] = {}
    solid: dict[str, list[tuple[str, ...]]] = {}
    for lhs, rhs in step3:
        if len(rhs) == 1 and rhs[0] not in letters:
            if rhs[0] in productive:
                unit_next.setdefault(lhs, []).append(rhs[0])
        elif all(s in letters or s in productive for s in rhs):
            solid.setdefault(lhs, []).append(rhs)
    final: list[tuple[str, tuple[str, ...]]] = []
    reached = {start}
    heads = [start]
    while heads:
        lhs = heads.pop()
        seen = {lhs}
        chain = [lhs]
        while chain:
            cur = chain.pop()
            for rhs in solid.get(cur, ()):
                final.append((lhs, rhs))
                for sym in rhs:
                    if sym not in letters and sym not in reached:
                        reached.add(sym)
                        heads.append(sym)
            for nxt in unit_next.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    chain.append(nxt)
    return Cfg(g.alphabet, tuple(reached), tuple(final), start), had_empty


def cfg_enumerate(g: Cfg, bound: int) -> list[Word]:
    """All derivable words of length at most ``bound``, shortest first.

    A semi-naive fixpoint: each round joins a production only where one
    of its nonterminals takes a word that was new in the previous round.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    letters = set(g.alphabet.letters)

    def join(options: list[set[Word]]) -> set[Word]:
        words: set[Word] = {()}
        for extras in options:
            words = {
                prefix + extra
                for prefix in words
                for extra in extras
                if len(prefix) + len(extra) <= bound
            }
            if not words:
                break
        return words

    yields: dict[str, set[Word]] = {nt: set() for nt in g.nonterminals}
    fresh: dict[str, set[Word]] = {nt: set() for nt in g.nonterminals}
    for lhs, rhs in g.productions:
        if len(rhs) <= bound and all(sym in letters for sym in rhs):
            fresh[lhs].add(rhs)
    while any(fresh.values()):
        older = yields
        yields = {nt: older[nt] | fresh[nt] for nt in g.nonterminals}
        found: dict[str, set[Word]] = {nt: set() for nt in g.nonterminals}
        for lhs, rhs in g.productions:
            for i, sym in enumerate(rhs):
                if sym in letters or not fresh[sym]:
                    continue
                # the first fresh position is i: older words before it
                options = [
                    {(s,)} if s in letters
                    else older[s] if j < i
                    else fresh[s] if j == i
                    else yields[s]
                    for j, s in enumerate(rhs)
                ]
                found[lhs] |= join(options)
        fresh = {nt: found[nt] - yields[nt] for nt in g.nonterminals}
    return sorted(yields[g.start], key=_word_key)


def _identity(nfa: Nfa) -> Transducer:
    """The transducer that copies the automaton's words and nothing else;
    its states are the names ``nfa_serialize`` writes."""
    names = _state_names(nfa)
    edges = []
    for src, label, dst in nfa.edges:
        word = () if label is None else (label,)
        edges.append((names[src], word, word, names[dst]))
    finals = tuple(names[f] for f in nfa.finals)
    return Transducer(nfa.alphabet, names, tuple(edges), names[nfa.initial], finals)


def cfg_intersect_regular_empty(g: Cfg, r: Nfa) -> bool:
    """Decide whether the grammar and the automaton share no word."""
    return not apply_transducer_to_cfg(_identity(r), g).productions


def _pump_from_cnf(cnf: Cfg, x: str, hat: HatAlphabet) -> Cfg:
    """Spine-doubled grammar for the pump pairs of ``x``, seam marked.

    ``to_cnf``'s start never occurs on a right-hand side, so no pump
    passes through it and its rules are left out.  The rest is not
    pruned, as the caller normalises it with ``to_cnf``, which prunes.
    """
    taken = set(cnf.nonterminals) | set(hat.alphabet.letters)
    spine = {y: _fresh(f"P.{y}", taken) for y in cnf.nonterminals}
    kept = [(lhs, rhs) for lhs, rhs in cnf.productions if lhs != cnf.start]
    prods = list(kept)
    for lhs, rhs in kept:
        if len(rhs) == 2:
            a, b = rhs
            prods.append((spine[lhs], (a, spine[b])))
            prods.append((spine[lhs], (spine[a], b)))
    start = spine[x] if x in spine else _fresh("P", taken)
    prods.append((start, (hat.mid,)))
    nts = set(cnf.nonterminals) - {cnf.start}
    return Cfg(hat.alphabet, tuple(nts | {spine[y] for y in nts} | {start}), tuple(prods), start)


def apply_transducer_to_cfg(
    t: Transducer, g: Cfg, max_states: int = DEFAULT_MAX_STATES
) -> Cfg:
    """Image of a grammar under a letter transducer, as a grammar.

    Triple construction: the nonterminal ``I.p.A.q`` derives what the
    transducer emits while it reads, from state p to state q, a word of
    the normalized source nonterminal A.  Only triples that derive a word
    are built.  A worklist seeds them from the letter rules and the
    consuming edges, joins each new triple through the binary rules with
    the triples already derived, and moves its entry and exit along the
    spontaneous edges.  The start triple also takes the productions of
    the other finals' start triples.  The output keeps the triples
    reachable from the start, so it is pruned; there are at most the
    normalized source size times the squared state count.  More than
    ``max_states`` derived triples raise ResourceLimit; its message
    counts them as states, like every other cap.
    """
    if t.alphabet != g.alphabet:
        raise ValueError("alphabet mismatch")
    return _transduce_cnf(t, to_cnf(g), max_states)


def _transduce_cnf(
    t: Transducer, normal: tuple[Cfg, bool], max_states: int
) -> Cfg:
    """``apply_transducer_to_cfg`` on a grammar already normalised.

    ``normal`` is what ``to_cnf`` returns: the binary grammar and whether
    the language held the empty word.  One normalisation thus serves
    every transduction of the same grammar.
    """
    cnf, had_empty = normal
    if not t.finals:
        return Cfg(cnf.alphabet, (cnf.start,), (), cnf.start)
    eats: dict[str, list[tuple[str, Word, str]]] = {}
    leaving: dict[str, list[tuple[Word, str]]] = {}
    entering: dict[str, list[tuple[str, Word]]] = {}
    for src, consumed, emitted, dst in t.edges:
        if consumed:
            eats.setdefault(consumed[0], []).append((src, emitted, dst))
        else:
            leaving.setdefault(src, []).append((emitted, dst))
            entering.setdefault(dst, []).append((src, emitted))
    as_left: dict[str, list[tuple[str, str]]] = {}
    as_right: dict[str, list[tuple[str, str]]] = {}
    for lhs, rhs in cnf.productions:
        if len(rhs) == 2:
            as_left.setdefault(rhs[0], []).append((lhs, rhs[1]))
            as_right.setdefault(rhs[1], []).append((lhs, rhs[0]))

    start = (t.initial, cnf.start, t.finals[0])  # finals are sorted
    aliases = {(t.initial, cnf.start, f) for f in t.finals[1:]}
    prods: dict[tuple[str, str, str], list[tuple]] = {}
    queue: list[tuple[str, str, str]] = []

    def derive(trip: tuple[str, str, str], rhs: tuple) -> None:
        # the other finals' start triples hand their productions to the start
        for head in (trip, start) if trip in aliases else (trip,):
            if head not in prods:
                prods[head] = []
                queue.append(head)
                if len(prods) > max_states:
                    raise ResourceLimit(f"grammar transduction exceeded {max_states} states")
            prods[head].append(rhs)

    for lhs, rhs in cnf.productions:
        if len(rhs) == 1:
            for src, emitted, dst in eats.get(rhs[0], ()):
                derive((src, lhs, dst), emitted)
    if had_empty:
        for w in _empty_input_image(t):
            derive(start, w)
    ends_at: dict[tuple[str, str], list[str]] = {}  # (A, q) -> entries p
    starts_at: dict[tuple[str, str], list[str]] = {}  # (p, A) -> exits q
    while queue:
        trip = queue.pop()
        p, a, q = trip
        ends_at.setdefault((a, q), []).append(p)
        starts_at.setdefault((p, a), []).append(q)
        for lhs, c in as_left.get(a, ()):
            for r in starts_at.get((q, c), ()):
                derive((p, lhs, r), (trip, (q, c, r)))
        for lhs, b in as_right.get(a, ()):
            for m in ends_at.get((b, p), ()):
                derive((m, lhs, q), ((m, b, p), trip))
        for src, emitted in entering.get(p, ()):
            derive((src, a, q), emitted + (trip,))
        for emitted, dst in leaving.get(q, ()):
            derive((p, a, dst), (trip,) + emitted)

    reachable = {start}
    frontier = [start]
    while frontier:
        for rhs in prods.get(frontier.pop(), ()):
            for sym in rhs:
                if isinstance(sym, tuple) and sym not in reachable:
                    reachable.add(sym)
                    frontier.append(sym)
    taken = set(cnf.alphabet.letters)
    names = {trip: _fresh("I.{}.{}.{}".format(*trip), taken) for trip in sorted(reachable)}
    out = [
        (names[lhs], tuple(names[s] if isinstance(s, tuple) else s for s in rhs))
        for lhs in reachable
        for rhs in prods.get(lhs, ())
    ]
    return Cfg(cnf.alphabet, tuple(names.values()), tuple(out), names[start])


def _empty_input_image(t: Transducer) -> set[Word]:
    """Outputs reachable without consuming input; bails on emitting loops."""
    limit = len(t.states)
    out: set[Word] = set()
    seen = {(t.initial, ())}
    frontier: list[tuple[str, Word]] = [(t.initial, ())]
    finals = set(t.finals)
    while frontier:
        state, emitted = frontier.pop()
        if state in finals:
            out.add(emitted)
        for src, consumed, extra, dst in t.edges:
            if src != state or consumed:
                continue
            nxt = (dst, emitted + extra)
            if len(nxt[1]) > limit:
                raise ResourceLimit("transducer emits unboundedly on empty input")
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return out


def _low_letters(alphabet: PriorityAlphabet, cutoff: int) -> list[str]:
    return [a for a in alphabet.letters if alphabet.priority(a) <= cutoff]


# The pump transducers read a seam-marked pump word u # v.  A gadget reads
# one half: it takes its state names from the caller and returns its edges
# and the state it leaves by.  The seam edge joins a left and a right gadget.
# A positive priority that no letter carries has no separator, so a gadget
# for it has no way to its exit and the transducer accepts nothing.
Gadget = tuple[list[tuple[str, Word, Word, str]], str]


def _loops(base: PriorityAlphabet, cutoff: int, state: str, copy: bool) -> list:
    """Loops at ``state`` on the letters up to ``cutoff``, copied or dropped."""
    return [(state, (a,), (a,) if copy else (), state) for a in _low_letters(base, cutoff)]


def _outer(base: PriorityAlphabet, names: tuple[str, ...], pri: int, marker: str) -> Gadget:
    """Copy a half of top priority ``pri`` with its run from the first
    separator to the last replaced by ``marker``; for zero, all of it."""
    start, inside, after = names
    if pri == 0:
        return [(start, (), (marker,), inside)] + _loops(base, 0, inside, False), inside
    edges = _loops(base, pri - 1, start, True) + _loops(base, pri - 1, after, True)
    edges += _loops(base, pri - 1, inside, False)
    for sep in base.letters_of(pri):
        for dst in (inside, after):
            edges.append((start, (sep,), (marker,), dst))
            edges.append((inside, (sep,), (), dst))
    return edges, after


def _pick(base: PriorityAlphabet, names: tuple[str, ...], pri: int) -> Gadget:
    """Drop a half of top priority ``pri`` except one run strictly between
    two adjacent separators; for zero, except one letter."""
    before, run, after = names
    if pri == 0:
        edges = [(before, (a,), (a,), after) for a in _low_letters(base, 0)]
        return edges + _loops(base, 0, before, False) + _loops(base, 0, after, False), after
    edges = _loops(base, pri, before, False) + _loops(base, pri, after, False)
    edges += _loops(base, pri - 1, run, True)
    for sep in base.letters_of(pri):
        edges.append((before, (sep,), (), run))
        edges.append((run, (sep,), (), after))
    return edges, after


def _check(base: PriorityAlphabet, names: tuple[str, ...], pri: int) -> Gadget:
    """Drop a half whose top priority is exactly ``pri`` (at most zero for zero)."""
    before, after = names
    if pri == 0:
        return _loops(base, 0, before, False), before
    edges = _loops(base, pri, before, False) + _loops(base, pri, after, False)
    return edges + [(before, (sep,), (), after) for sep in base.letters_of(pri)], after


def _seamed(
    hat: HatAlphabet, initial: str, left: Gadget, entry: str, right: Gadget, keep_mid: bool
) -> Transducer:
    """Read the left gadget from ``initial``, the seam into ``entry``, then
    the right gadget, whose exit is the final state."""
    (left_edges, seam), (right_edges, final) = left, right
    mid = (hat.mid,)
    edges = left_edges + [(seam, mid, mid if keep_mid else (), entry)] + right_edges
    states = {initial, final}.union(*((src, dst) for src, _, _, dst in edges))
    return Transducer(hat.alphabet, tuple(states), tuple(edges), initial, (final,))


def _ends_transducer(hat: HatAlphabet, r: int, s: int) -> Transducer:
    """Replace the outermost separator runs of both halves by markers.

    The left half must have top priority exactly ``r`` (at most zero
    when r is zero); everything from the first separator to the last is
    replaced by the left marker.  Symmetrically on the right with ``s``.
    """
    left = _outer(hat.base, ("l0", "l1", "l2"), r, hat.left)
    right = _outer(hat.base, ("m0", "r1", "r2"), s, hat.right)
    return _seamed(hat, "l0", left, "m0", right, keep_mid=True)


def _repeat_transducer(hat: HatAlphabet, r: int, s: int, side: str) -> Transducer:
    """Pick one repeatable run from one half of a pump-pair word.

    On the picking side a run strictly between two adjacent separators
    is copied out; the other half is only checked for its top priority.
    """
    if side == "left":
        left = _pick(hat.base, ("a", "b", "c"), r)
        entry, right = "d", _check(hat.base, ("d", "e"), s)
    else:
        left = _check(hat.base, ("a", "b"), r)
        entry, right = "c", _pick(hat.base, ("c", "d", "e"), s)
    return _seamed(hat, "a", left, entry, right, keep_mid=False)


def _pump_part(
    pump: tuple[Cfg, bool], t: Transducer, letters: PriorityAlphabet, max_states: int
) -> tuple[Cfg, bool]:
    """``to_cnf`` of the normalised pump grammar's image under the pump
    transducer ``t``, over ``letters``, the letters that part may hold."""
    return to_cnf(replace(_transduce_cnf(t, pump, max_states), alphabet=letters))


def _pump_sides(
    cnf: Cfg,
) -> tuple[dict[str, str], dict[str, tuple[tuple[str, ...], tuple[str, ...]]]]:
    """Strongly connected components of a pruned binary grammar
    (``to_cnf``'s), each named by one member, and per nonterminal x the
    letters left respectively right of x in its pumps x =>+ u x v.

    A pump's spine, from x down to the x it derives, stays in x's
    strongly connected component, as each spine symbol reaches x and is
    reached from it.  So a rule y -> A B with y and B in the component
    puts A's letters on the left, one with y and A in it B's on the
    right, and no other rule lies on a spine.  The sets are exact, since
    every symbol of a pruned grammar derives a word: x some u y v, A one
    with any of its letters, B some u' x v'.  Both are empty exactly when
    x lies on no cycle, as every nonterminal derives a nonempty word.
    ``automata._components`` yields each component after those it
    reaches, so the same pass collects the letters ``occurs`` in words
    and returns the components bottom-up, successor-free ones first.
    """
    nts = cnf.nonterminals
    index = {n: i for i, n in enumerate(nts)}
    occurs: list[set[str]] = [set() for _ in nts]
    succ: list[list[int]] = [[] for _ in nts]
    for lhs, rhs in cnf.productions:
        if len(rhs) == 1:
            occurs[index[lhs]].add(rhs[0])
        else:
            succ[index[lhs]] += (index[rhs[0]], index[rhs[1]])
    # a nonterminal with no successor is a component that is never yielded
    component = list(range(len(nts)))
    bottom_up = [i for i, s in enumerate(succ) if not s]
    sides = [(set(), set()) for _ in nts]
    for members in _components(succ):
        seen = set().union(*(occurs[w] for m in members for w in (m, *succ[m])))
        for m in members:
            component[m] = members[0]
            occurs[m] = seen
        bottom_up += members
    for y, targets in enumerate(succ):
        left, right = sides[component[y]]
        for a, b in zip(targets[::2], targets[1::2]):
            if component[b] == component[y]:
                left |= occurs[a]
            if component[a] == component[y]:
                right |= occurs[b]
    letters = cnf.alphabet.letters
    return {nts[i]: nts[component[i]] for i in bottom_up}, {
        n: tuple(tuple(a for a in letters if a in side) for side in sides[component[i]])
        for i, n in enumerate(nts)
    }


def _subword_nfa(cnf: Cfg, max_states: int = DEFAULT_MAX_STATES) -> Nfa:
    """Subword closure, with the empty word, of a pruned binary grammar's
    language, as one reduced automaton per strongly connected component.

    Take a component C with pump sides Lc and Rc.  The closure of each
    member's language is Lc*·E·Rc*, where E joins C's exit rules: {ε, a}
    for y -> a, and the closures of A and B in turn for y -> A B with A
    and B outside C (van Leeuwen 1978; Bachmeier, Luttenberger and
    Schlund, LATA 2015).  Pumps place any sequence of Lc letters before
    an exit word and of Rc letters after it, and every other rule lies
    on a spine.  ``_pump_sides`` gives the components bottom-up.  C's
    walk loops on Lc at "L" and on Rc at the final "R"; "L" reaches "R"
    by ε, by each exit letter, and through each exit A B: by ε into A's
    reduced automaton, from its finals by ε into B's, and from B's by ε
    to "R".  Only the components that the start reaches through exits
    are built, each once, and more than ``max_states`` states in one
    walk raise ResourceLimit.
    """
    component, sides = _pump_sides(cnf)
    # per component: its exits' letters, or the components of their two halves
    exits: dict[str, dict[tuple[str, ...], None]] = {c: {} for c in component.values()}
    for lhs, rhs in cnf.productions:
        c = component[lhs]
        if len(rhs) == 1 or c not in (component[rhs[0]], component[rhs[1]]):
            exits[c][tuple(component.get(s, s) for s in rhs)] = None
    needed = {component[cnf.start]}
    for c in reversed(exits):
        if c in needed:
            needed.update(s for e in exits[c] if len(e) == 2 for s in e)
    built: dict[str, tuple[Nfa, set[int]]] = {}  # an automaton and its finals
    for c in filter(needed.__contains__, exits):
        left, right = sides[c]
        pairs = [(built[a], built[b]) for a, b in (e for e in exits[c] if len(e) == 2)]
        entries = [(None, (i, 0, a.initial)) for i, ((a, _), _) in enumerate(pairs)]
        entries += [(None, "R")] + [(e[0], "R") for e in exits[c] if len(e) == 1]

        def successors(key):
            if key == "L":
                return False, [(a, "L") for a in left] + entries
            if key == "R":
                return True, [(a, "R") for a in right]
            i, half, q = key
            nfa, finals = pairs[i][half]
            moves = [(label, (i, half, dst)) for label, dst in _moves(nfa.adjacency[q])]
            if q in finals:
                moves.append((None, "R" if half else (i, 1, pairs[i][1][0].initial)))
            return False, moves

        nfa = nfa_reduce(_walk(cnf.alphabet, "L", successors, max_states, "component automaton"))
        built[c] = nfa, set(nfa.finals)
    return built[component[cnf.start]][0]


def _renamed(
    h: KleeneGrammar, prefix: str, taken: set[str]
) -> tuple[str, list[tuple[str, tuple[KItem, ...]]]]:
    """Start and productions of h with each nonterminal N renamed
    ``prefix.N``, made fresh against ``taken``; the new names join it."""
    names = {n: _fresh(f"{prefix}.{n}", taken) for n in h.nonterminals}
    prods = [
        (names[lhs], tuple((kind, sym if kind == LIT else names[sym]) for kind, sym in rhs))
        for lhs, rhs in h.productions
    ]
    return names[h.start], prods


def _kleene(cnf: Cfg, max_states: int = DEFAULT_MAX_STATES) -> KleeneGrammar:
    """Starred grammar whose acyclic derivations cover the language.

    The result derives every word of the normalised grammar over a flat
    alphabet (each positive priority carried by exactly one letter) and
    nothing outside its block closure.  Repetition along derivation
    paths is traded for starred side runs, one level of recursion per
    priority, so acyclic derivations already reach everything needed
    before the regular closure step.  A half of a pump with top
    priority r >= 1 holds r's one letter, so only the priorities of the
    letters on that side of x, and zero, can give a pump end.
    ``max_states`` caps every grammar transduction inside, as in
    ``apply_transducer_to_cfg``, and the productions of the result.
    The pump transducers depend only on the priorities and the side, so
    one call builds each once and shares it among its nonterminals.
    Each part of a pump pair is one image under them (``_pump_part``):
    the ends over the markers and the letters below both separators, a
    side's runs over the letters below its separator, or of priority 0
    on a side of top priority 0.  The left marker becomes z[r] W*, with
    W the wrapper of the left runs, and the right one z[s] W* likewise;
    a side with no run leaves W without a production, and ``_prune``
    drops the starred item.  Each closed part is copied under names made
    fresh against every name taken so far (``_renamed``), so no copy
    shares a nonterminal with the input or another copy.
    The only priority-0 letters of a flat grammar are the seam markers
    of the calls around it, each at most once in a word.  So a grammar
    with top priority 0 has a finite language and no nonterminal on a
    cycle, and it comes back as it is.
    """
    alpha = cnf.alphabet
    p = alpha.max_assigned_priority
    letters = set(alpha.letters)
    taken = set(cnf.nonterminals) | letters
    prods: list[tuple[str, tuple[KItem, ...]]] = [
        (lhs, _items(rhs, letters)) for lhs, rhs in cnf.productions
    ]
    z: dict[int, str] = {}
    for pri in range(p + 1):
        z[pri] = _fresh(f"Z{pri}", taken)
        if pri == 0:
            prods.append((z[0], ()))
        elif alpha.letters_of(pri):
            prods.append((z[pri], ((LIT, alpha.letters_of(pri)[0]),)))
    hat = HatAlphabet.extend(alpha, taken)
    transducers: dict[tuple, Transducer] = {}

    def transducer(*key) -> Transducer:
        """The ends transducer of (r, s), or the repeat one of (r, s, side)."""
        built = transducers.get(key)
        if built is None:
            build = _ends_transducer if len(key) == 2 else _repeat_transducer
            built = transducers[key] = build(hat, *key)
        return built

    def low(cutoff: int, *extra: tuple[str, int]) -> PriorityAlphabet:
        """The letters up to ``cutoff``, then ``extra``."""
        return PriorityAlphabet(tuple((a, q) for a, q in alpha.entries if q <= cutoff) + extra)

    markers = ((hat.mid, 0), (hat.left, 0), (hat.right, 0))

    counter = 0
    _, sides = _pump_sides(cnf)
    for x in cnf.nonterminals:
        # only a nonterminal on a cycle has a pump other than the bare seam
        if not any(sides[x]):
            continue
        pump = to_cnf(_pump_from_cnf(cnf, x, hat))
        seam = [_items(body, letters) for lhs, body in cnf.productions if lhs == x]
        left, right = ({0, *map(alpha.priority, side)} for side in sides[x])
        for r in sorted(left):
            for s in sorted(right):
                ends = low(max(r, s, 1) - 1, *markers)
                ends_cnf, _ = _pump_part(pump, transducer(r, s), ends, max_states)
                if not ends_cnf.productions:
                    continue
                counter += 1
                tag = f"k{counter}"
                ends_closed = _kleene(ends_cnf, max_states)
                # A positive-priority run leaves its closing separator out,
                # because the wrapper below appends z[pri] itself.
                wrappers = {}
                for side, pri in (("left", r), ("right", s)):
                    run_cnf, run_empty = _pump_part(
                        pump, transducer(r, s, side), low(max(pri - 1, 0)), max_states
                    )
                    wrapper = wrappers[side] = _fresh(f"W{counter}.{side}", taken)
                    if run_cnf.productions:
                        closed = _kleene(run_cnf, max_states)
                        run_start, run_prods = _renamed(closed, f"{tag}.{side}", taken)
                        prods += run_prods
                        tail = ((NT, z[pri]),) if pri else ()
                        prods.append((wrapper, ((NT, run_start),) + tail))
                    if pri >= 1 and run_empty:
                        prods.append((wrapper, ((NT, z[pri]),)))
                # the markers' runs become z[r] W*, and the seam x's own rules
                splice = {
                    ((LIT, hat.left),): ((NT, z[r]), (STAR, wrappers["left"])),
                    ((LIT, hat.right),): ((NT, z[s]), (STAR, wrappers["right"])),
                }
                ends_start, ends_prods = _renamed(ends_closed, tag, taken)
                for head, rhs in ends_prods:
                    if rhs == ((LIT, hat.mid),):
                        prods += [(head, body) for body in seam]
                    else:
                        prods.append((head, splice.get(rhs, rhs)))
                prods.append((x, ((NT, ends_start),)))
                if len(prods) > max_states:
                    raise ResourceLimit(f"Kleene grammar exceeded {max_states} states")
    kept, pruned = _prune(prods, cnf.start)
    return KleeneGrammar(alpha, tuple(kept), tuple(pruned), cnf.start)


def acyclic_nfa(h: KleeneGrammar, max_states: int = DEFAULT_MAX_STATES) -> Nfa:
    """Automaton for the words with a repetition-free derivation path.

    A walk's position is a stack of open productions with their cursors
    in a preorder walk, or None for the final position; a nonterminal
    already on the stack cannot be opened again, while starred items may
    open any number of children.  ``successors`` is one raw step.  A
    stack whose raw step is exactly one ε-move is forced, and ``settle``
    follows forced stacks to the first that is not; the automaton's
    states are the settled stacks, where a letter is read, the walk
    branches, or None.  Settling drops only forced ε-moves, so the
    language is unchanged.  ``settle`` keeps the raw step of the stack
    it stops at, and the walk takes it from there rather than stepping
    that stack again.

    A forced chain always ends.  Read a stack's cursors from the bottom
    as a sequence.  A forced push opens the one production of a
    nonterminal not on the stack yet, so it appends a cursor.  A forced
    advance (a starred item whose nonterminal is already open or has no
    production) or a forced pop to an unstarred parent moves a cursor
    forward, the pop after dropping the top one.  Each makes the
    sequence lexicographically larger, and stacks of distinct
    nonterminals are finitely many.  The one step that makes it smaller,
    a pop back to a starred parent, is never forced: the parent may open
    the popped child again, as that child is off the stack and has a
    production, so it branches.

    States materialize lazily, and more than ``max_states`` settled
    states raise a resource error rather than thrashing.  The result is
    trimmed.

    A stack is interned as an integer, 0 for the empty one, so that a
    push, pop or advance costs one lookup, and the node of a nonempty
    stack keeps the bitmask of its open nonterminals, so that the test
    for an open one is constant time.  Interning is one-to-one, so the
    automaton is the same as with the stacks as keys.
    """
    by_head: dict[str, list[tuple[KItem, ...]]] = {}
    for lhs, rhs in h.productions:
        by_head.setdefault(lhs, []).append(rhs)
    bit = {nt: 1 << i for i, nt in enumerate(h.nonterminals)}
    # per stack node: the stack below the top frame, the top frame's
    # nonterminal, production and cursor, and the open nonterminals
    below, tops, opened = [0], [("", 0, 0)], [0]
    ids: dict[tuple[int, str, int, int], int] = {}

    def node(under: int, nt: str, j: int, pos: int) -> int:
        key = (under, nt, j, pos)
        stack = ids.get(key)
        if stack is None:
            stack = ids[key] = len(below)
            below.append(under)
            tops.append((nt, j, pos))
            opened.append(opened[under] | bit[nt])
        return stack

    def pushes(stack: int, nt: str) -> list[tuple[None, int]]:
        if opened[stack] & bit[nt]:
            return []
        return [(None, node(stack, nt, j, 0)) for j in range(len(by_head.get(nt, ())))]

    def successors(stack: int | None):
        if stack is None:
            return True, []
        if not stack:
            return False, pushes(0, h.start)
        nt, j, pos = tops[stack]
        rhs = by_head[nt][j]
        under = below[stack]
        if pos == len(rhs):
            if not under:
                return False, [(None, None)]
            pnt, pj, ppos = tops[under]
            if by_head[pnt][pj][ppos][0] == STAR:
                return False, [(None, under)]
            return False, [(None, node(below[under], pnt, pj, ppos + 1))]
        kind, sym = rhs[pos]
        if kind == LIT:
            return False, [(sym, node(under, nt, j, pos + 1))]
        if kind == NT:
            return False, pushes(stack, sym)
        return False, [(None, node(under, nt, j, pos + 1))] + pushes(stack, sym)

    # the raw step of each stack settle stopped at; every state of the walk is one
    stopped: dict[int | None, tuple] = {}

    def settle(stack: int | None) -> int | None:
        while True:
            step = successors(stack)
            moves = step[1]
            if len(moves) != 1 or moves[0][0] is not None:
                stopped[stack] = step
                return stack
            stack = moves[0][1]

    def settled(stack: int | None):
        final, moves = stopped.pop(stack)
        return final, [(label, settle(target)) for label, target in moves]

    return _walk(h.alphabet, settle(0), settled, max_states, "acyclic automaton")


def cfg_closure(g: Cfg, order: OrderKind, max_states: int = DEFAULT_MAX_STATES) -> Nfa:
    """NFA for the downward closure of the grammar's language under the order.

    ``automata.closure_regular`` closes a reduced skeleton, which depends
    on what the order can see.  Subword order, and block order when every
    letter has priority 0, where it is subword order, only need a
    skeleton between the language and its subword closure.  They get the
    subword closure itself (``_subword_nfa``), or for a production-free
    normal form one state, final just when the language is {ε}.

    Priority order, and block order with a positive priority, get the
    acyclic NFA of the rebuild over the flattened alphabet (``_kleene``):
    a ring grammar's skeleton of 823 states reduces to 10.  When the
    grammar derives the empty word, the Kleene grammar gets the rule
    start -> ε, which adds the empty word alone, as ``to_cnf``'s start is
    on no right-hand side and ``_kleene`` keeps it.  An empty language
    gives a production-free Kleene grammar, whose automaton is one state
    with no final.  This is a skeleton as ``closure_regular`` defines
    one for those orders, as the right marker keeps the tail after the
    last separator.  Block order on one positive priority is not subword
    order, as it anchors a word's first and last blocks.
    """
    subword = order is OrderKind.SUBWORD or (
        order is OrderKind.BLOCK and not g.alphabet.max_assigned_priority
    )
    alphabet = g.alphabet if subword else flatten(g.alphabet)
    cnf, had_empty = to_cnf(replace(g, alphabet=alphabet))
    if subword and cnf.productions:
        skeleton = _subword_nfa(cnf, max_states)
    elif subword:
        skeleton = nfa_for_words(alphabet, [()] if had_empty else [])
    else:
        h = _kleene(cnf, max_states)
        if had_empty:
            h = replace(h, productions=h.productions + ((h.start, ()),))
        skeleton = nfa_reduce(acyclic_nfa(h, max_states))
    return closure_regular(replace(skeleton, alphabet=g.alphabet), order, max_states)


cfg_block_closure = partial(cfg_closure, order=OrderKind.BLOCK)
cfg_priority_closure = partial(cfg_closure, order=OrderKind.PRIORITY)


def cfg_serialize(g: Cfg) -> dict:
    return {
        "start": g.start,
        "nonterminals": list(g.nonterminals),
        "terminals": list(g.alphabet.letters),
        "productions": [[lhs, list(rhs)] for lhs, rhs in g.productions],
    }


def _production(item) -> tuple[str, tuple[str, ...]]:
    """A production [head, [symbol, ...]] read from grammar data, shape-checked."""
    if not isinstance(item, (list, tuple)) or len(item) != 2 or not isinstance(
        item[1], (list, tuple)
    ):
        raise ValueError(f"malformed production {item!r}")
    return _name(item[0], "nonterminal"), tuple(_name(sym, "symbol") for sym in item[1])


def cfg_parse(data: Mapping, alphabet: PriorityAlphabet) -> Cfg:
    try:
        start = _name(data["start"], "nonterminal")
        nts = _names(data["nonterminals"], "nonterminal")
        terminals = _names(data.get("terminals", alphabet.letters), "terminal")
        prods = tuple(_production(item) for item in data["productions"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed grammar data: {exc}") from exc
    unknown = [a for a in terminals if a not in alphabet]
    if unknown:
        raise ValueError(f"terminals not in alphabet: {unknown}")
    return Cfg(alphabet, nts, prods, start)


def cfg_to_dot(g: Cfg, name: str = "cfg") -> str:
    """Graphviz sketch: nonterminal nodes, one edge per body symbol."""
    letters = set(g.alphabet.letters)
    lines = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        "  node [shape=box];",
        '  __start [shape=point, label=""];',
        f'  __start -> "{g.start}";',
    ]
    for idx, (lhs, rhs) in enumerate(g.productions):
        body = " ".join(rhs) if rhs else "&epsilon;"
        targets = [sym for sym in rhs if sym not in letters]
        if targets:
            for sym in targets:
                lines.append(f'  "{lhs}" -> "{sym}" [label="{body}"];')
        else:
            term = f"w{idx}"
            lines.append(f'  {term} [shape=plaintext, label="{body}"];')
            lines.append(f'  "{lhs}" -> {term};')
    lines.append("}")
    return "\n".join(lines)
