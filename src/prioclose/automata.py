"""Finite automata, letter transducers, and regular downward closures.

NFAs carry their priority alphabet and number their states 0..n-1;
names exist only in their JSON form.  Epsilon edges use the label ``None``.
Transducers read and write at most one letter per edge; applying one to
an NFA is a plain product construction, and all three closure operators
are expressed that way.  ``nfa_reduce`` turns an NFA into its canonical
minimal DFA when the subset construction stays within the NFA's size.
Every closure is the canonical minimal DFA that ``closure_regular``
makes from one product with the order's table, built once per priority
profile.  That product merges the states (t, q) whose NFA states q share
a cycle of letters that table state t drops in place: a cycle closes to
the star of its letters, so its states lie on one epsilon cycle of the
product and have one epsilon closure, and the merge keeps the language
of every subset that the subset construction builds.  A grammar or
counter machine only builds one skeleton NFA, which serves every order,
and ``closure_regular`` does the rest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .core import (
    DEFAULT_MAX_STATES,
    OrderKind,
    PriorityAlphabet,
    ResourceLimit,
    Word,
    _word_key,
)

# One state's moves: its epsilon targets, then (letter, targets) pairs
# with the letters sorted.  Every target tuple is ascending, with no repeats.
Row = tuple[tuple[int, ...], tuple[tuple[str, tuple[int, ...]], ...]]


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton over a priority alphabet.

    ``adjacency[q]`` is the ``Row`` of state q, and ``finals`` ascends.
    Nothing is checked here: ``nfa_parse`` checks what it reads, and
    keeps the names it read in ``names``, which take no part in equality.
    """

    alphabet: PriorityAlphabet
    adjacency: tuple[Row, ...]
    initial: int
    finals: tuple[int, ...]
    names: tuple[str, ...] | None = field(default=None, compare=False)

    @property
    def states(self) -> range:
        return range(len(self.adjacency))

    @property
    def edges(self) -> tuple[tuple[int, str | None, int], ...]:
        """(src, label, dst) triples by source, each in ``_moves`` order."""
        out: list[tuple[int, str | None, int]] = []
        for q, (eps, on) in enumerate(self.adjacency):
            for dst in eps:
                out.append((q, None, dst))
            for a, dsts in on:
                for dst in dsts:
                    out.append((q, a, dst))
        return tuple(out)

    @cached_property
    def _walk_tables(self) -> tuple[int, list[dict[str, int]], int, list[float]]:
        """``_subset_moves`` with each kept state's fewest letters to a
        final state in place of ``kept``.  Made once per automaton, as the
        oracle and ``nfa_accepts`` read one automaton many times."""
        start, steps, final_mask, kept = _subset_moves(self.adjacency, self.initial, self.finals)
        dist = _letters_to_final(self.edges, self.finals)
        return start, steps, final_mask, [dist.get(q, float("inf")) for q in kept]


def _moves(row: Row) -> list[tuple[str | None, int]]:
    """A row's (label, target) moves: epsilon ones first, then by letter."""
    eps, on = row
    return [(label, dst) for label, dsts in ((None, eps), *on) for dst in dsts]


def _row(moves: Iterable[tuple[str | None, int]]) -> Row:
    """The ``Row`` of a state's (label, target) moves, repeats dropped."""
    on: dict[str, list[int]] = {}
    # letters are non-empty, so "" stands for epsilon
    for label, dst in sorted({(label or "", dst) for label, dst in moves}):
        on.setdefault(label, []).append(dst)
    eps = on.pop("", ())
    return tuple(eps), tuple([(a, tuple(dsts)) for a, dsts in on.items()])


@dataclass(frozen=True)
class Transducer:
    """Letter-to-letter transducer; edges consume and emit <= 1 letter."""

    alphabet: PriorityAlphabet
    states: tuple[str, ...]
    edges: tuple[tuple[str, Word, Word, str], ...]
    initial: str
    finals: tuple[str, ...]

    def __post_init__(self) -> None:
        states = tuple(sorted(set(self.states)))
        known = set(states)
        letters = set(self.alphabet.letters)
        _check_ends(known, self.initial, self.finals)
        finals = tuple(sorted(set(self.finals)))
        edges = tuple(sorted(set(self.edges)))
        for src, consumed, emitted, dst in edges:
            if src not in known or dst not in known:
                raise ValueError("transducer edge uses unknown state")
            for part in (consumed, emitted):
                if len(part) > 1 or any(tok not in letters for tok in part):
                    raise ValueError(f"bad transducer edge word {part!r}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "finals", finals)
        object.__setattr__(self, "edges", edges)


def _check_ends(known, initial: str, finals: Iterable[str]) -> None:
    """Raise ValueError unless the initial and final states are known."""
    for what, q in (("initial", initial), *(("final", f) for f in finals)):
        if q not in known:
            raise ValueError(f"{what} state {q!r} not in states")


def _subset_walk(nfa: Nfa) -> tuple[int, Callable, Callable, Callable]:
    """The start, step, lower bound and acceptance test of a walk over
    the epsilon-closed subsets of ``_subset_moves`` (see
    ``_enumerate_walk``).  The lower bound of a subset is the fewest
    letters from any of its states to a final state."""
    start, steps, final_mask, lowest = nfa._walk_tables

    def step(subset: int, letter: str) -> int:
        out = 0
        for j in _bits(subset):
            out |= steps[j].get(letter, 0)
        return out

    return (
        start,
        step,
        lambda subset: min((lowest[j] for j in _bits(subset)), default=float("inf")),
        lambda subset: bool(subset & final_mask),
    )


def nfa_accepts(nfa: Nfa, word: Iterable[str]) -> bool:
    current, step, _, accepting = _subset_walk(nfa)
    for letter in word:
        current = step(current, letter)
        if not current:
            return False
    return accepting(current)


def _letters_to_final(
    edges: Iterable[tuple[Hashable, str | None, Hashable]], finals: Iterable[Hashable]
) -> dict[Hashable, int]:
    """Fewest letters from each state to a final state; ε-edges are free.

    A 0-1 breadth-first search over the reversed (src, label, dst)
    edges.  States that cannot reach a final state are absent.
    """
    preds: dict[Hashable, list[tuple[int, Hashable]]] = {}
    for src, label, dst in edges:
        preds.setdefault(dst, []).append((0 if label is None else 1, src))
    dist = dict.fromkeys(finals, 0)
    queue = deque(dist)
    while queue:
        q = queue.popleft()
        d = dist[q]
        for cost, p in preds.get(q, ()):
            if p not in dist or d + cost < dist[p]:
                dist[p] = d + cost
                if cost:
                    queue.append(p)
                else:
                    queue.appendleft(p)
    return dist


def _enumerate_walk(
    letters: Sequence[str],
    start: frozenset,
    step: Callable[[frozenset, str], frozenset],
    lower: Callable[[frozenset], float],
    accepting: Callable[[frozenset], bool],
    bound: int,
) -> list[Word]:
    """Words of length <= bound whose walk from ``start`` ends accepting.

    The walk is breadth first over (prefix, configuration set) pairs.
    ``step`` is called once per (set, letter) pair.  ``lower(S)`` is a
    lower bound on the letters any accepted extension of a prefix
    reaching S still needs (infinite when there is none); a prefix of
    length k is dropped when ``k + lower(S) > bound``, so only prefixes
    that might be completed within the bound are kept or stepped.
    """
    steps: dict[tuple[frozenset, str], frozenset] = {}
    lowers: dict[frozenset, float] = {}

    def fits(k: int, configs: frozenset) -> bool:
        low = lowers.get(configs)
        if low is None:
            low = lowers[configs] = lower(configs)
        return k + low <= bound

    frontier = [((), start)] if fits(0, start) else []
    found = [word for word, configs in frontier if accepting(configs)]
    for k in range(1, bound + 1):
        nxt: list[tuple[Word, frozenset]] = []
        for word, configs in frontier:
            for letter in letters:
                stepped = steps.get((configs, letter))
                if stepped is None:
                    stepped = steps[configs, letter] = step(configs, letter)
                if fits(k, stepped):
                    nxt.append((word + (letter,), stepped))
        if not nxt:
            break
        found.extend(word for word, configs in nxt if accepting(configs))
        frontier = nxt
    return sorted(found, key=_word_key)


def nfa_enumerate(nfa: Nfa, bound: int) -> list[Word]:
    """All accepted words of length <= bound, sorted by length then tokens.

    A pruned, memoised walk over prefixes and their ε-closed state
    subsets (see ``_subset_walk``).  It reads the NFA's own edges only.
    """
    return _enumerate_walk(nfa.alphabet.letters, *_subset_walk(nfa), bound)


def _walk(
    alphabet: PriorityAlphabet, initial: Hashable, successors: Callable, max_states: int, what: str
) -> Nfa:
    """Trimmed ``Nfa`` of the states reachable from ``initial``.

    States are any hashable keys.  ``successors(key)`` gives whether the
    state is final and its (label, target key) moves; it is called once
    per key, in breadth-first discovery order.  More than ``max_states``
    discovered keys raise ResourceLimit naming ``what``.  States that
    cannot reach a final state are dropped, except the initial one, so
    an empty language is one state with no finals; the survivors are
    numbered 0..n-1 in discovery order, each with the sorted ``Row`` of
    its moves.
    """
    index = {initial: 0}
    order = [initial]
    # flat, so that exploring a large automaton makes no container per state:
    # state s's moves are moves[ends[s - 1]:ends[s]], from 0 at s = 0
    moves: list[tuple[str | None, int]] = []
    ends: list[int] = []
    finals: list[int] = []
    src = 0
    while src < len(order):
        final, targets = successors(order[src])
        if final:
            finals.append(src)
        for label, key in targets:
            dst = index.get(key)
            if dst is None:
                dst = index[key] = len(order)
                order.append(key)
            moves.append((label, dst))
        ends.append(len(moves))
        if len(order) > max_states:
            raise ResourceLimit(f"{what} exceeded {max_states} states")
        src += 1

    starts = [0] + ends
    preds: list[list[int]] = [[] for _ in order]
    for s in range(len(order)):
        for _, d in moves[starts[s] : ends[s]]:
            preds[d].append(s)
    live = bytearray(len(order))
    for f in finals:
        live[f] = 1
    stack = list(finals)
    while stack:
        for p in preds[stack.pop()]:
            if not live[p]:
                live[p] = 1
                stack.append(p)
    if 0 in live:  # some state cannot reach a final state
        # a dead initial state keeps no move, as every state is then dead
        number = [-1] * len(order)
        kept = [i for i in range(len(order)) if live[i] or i == 0]
        for count, i in enumerate(kept):
            number[i] = count
        out, out_ends = [], []
        for i in kept:
            out += [(label, number[d]) for label, d in moves[starts[i] : ends[i]] if live[d]]
            out_ends.append(len(out))
        moves, ends, finals = out, out_ends, [number[f] for f in finals]
    rows = tuple(_row(moves[s:e]) for s, e in zip([0, *ends], ends))
    return Nfa(alphabet, rows, 0, tuple(finals))


def nfa_for_words(alphabet: PriorityAlphabet, words: Sequence[Iterable[str]]) -> Nfa:
    """Finite-language NFA, trimmed: the prefix tree of the words.

    The key of a state is the prefix it has read.  Children are explored
    in sorted letter order, so the numbering does not depend on hashing.
    """
    words = {tuple(w) for w in words}
    nexts: dict[Word, set[str]] = {}
    for word in words:
        for j in range(len(word)):
            nexts.setdefault(word[:j], set()).add(word[j])

    def successors(prefix: Word):
        return prefix in words, [(a, prefix + (a,)) for a in sorted(nexts.get(prefix, ()))]

    return _walk(alphabet, (), successors, 1 + sum(map(len, words)), "word automaton")


def nfa_union(a: Nfa, b: Nfa) -> Nfa:
    """NFA for the union, trimmed; the key (side, q) is state q of a or b."""
    if a.alphabet != b.alphabet:
        raise ValueError("union requires matching alphabets")
    sides = [(nfa.adjacency, set(nfa.finals)) for nfa in (a, b)]

    def successors(key):
        if key is None:
            return False, [(None, (0, a.initial)), (None, (1, b.initial))]
        side, q = key
        adj, finals = sides[side]
        return q in finals, [(label, (side, dst)) for label, dst in _moves(adj[q])]

    # the inputs bound the size, so this cap never fires
    size = 1 + len(a.states) + len(b.states)
    return _walk(a.alphabet, None, successors, size, "union")


def nfa_concat(a: Nfa, b: Nfa) -> Nfa:
    """NFA for the concatenation, trimmed; keys as in ``nfa_union``."""
    if a.alphabet != b.alphabet:
        raise ValueError("concat requires matching alphabets")
    sides = [(nfa.adjacency, set(nfa.finals)) for nfa in (a, b)]

    def successors(key):
        side, q = key
        adj, finals = sides[side]
        moves = [(label, (side, dst)) for label, dst in _moves(adj[q])]
        if side == 0 and q in finals:
            moves.append((None, (1, b.initial)))
        return side == 1 and q in finals, moves

    size = len(a.states) + len(b.states)
    return _walk(a.alphabet, (0, a.initial), successors, size, "concatenation")


def nfa_intersect(a: Nfa, b: Nfa, max_states: int = DEFAULT_MAX_STATES) -> Nfa:
    """Product NFA for the intersection, trimmed to states on accepting paths.

    ``b`` acts as the identity transducer restricted to its language, so
    this is the product engine of ``apply_transduction``.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("intersect requires matching alphabets")
    finals = set(b.finals)

    def copy(q: int) -> TMoves:
        eps, on = b.adjacency[q]
        return [(None, d) for d in eps], {x: [(x, d) for d in ds] for x, ds in on}, q in finals

    return _product(a, b.initial, copy, max_states, "intersection product")


def nfa_equivalent_up_to(a: Nfa, b: Nfa, bound: int) -> Word | None:
    """Shortest word accepted by exactly one of the two, up to ``bound``."""
    wa = set(nfa_enumerate(a, bound))
    wb = set(nfa_enumerate(b, bound))
    diff = wa ^ wb
    if not diff:
        return None
    return min(diff, key=_word_key)


def nfa_equivalent(a: Nfa, b: Nfa, max_subsets: int = DEFAULT_MAX_STATES) -> bool:
    """Exact language equivalence: the two canonical minimal DFAs agree.

    More than ``max_subsets`` subsets in either subset construction raise
    ResourceLimit; use nfa_equivalent_up_to for bounded checks.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("equivalence requires matching alphabets")
    dfas = [
        _minimal_dfa(n.alphabet, n.adjacency, n.initial, n.finals, max_subsets) for n in (a, b)
    ]
    if any(dfa is None for dfa in dfas):
        raise ResourceLimit(f"subset construction exceeded {max_subsets} subsets")
    return dfas[0] == dfas[1]


def _components(succ: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Strongly connected components of a graph, by Tarjan's algorithm.

    ``succ[v]`` lists the successors of node v.  Each component comes
    after every component it reaches.  A node without successors is a
    component on its own; it is finished before the search starts and
    never yielded.
    """
    n = len(succ)
    index = [-1 if s else 0 for s in succ]  # finished nodes are never on the stack
    low = [0] * n
    on_stack = bytearray(n)
    spot = [0] * n  # position on the stack
    stack: list[int] = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        spot[root] = len(stack)
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    spot[w] = len(stack)
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] < index[v]:
                    continue
                members = stack[spot[v] :]
                del stack[spot[v] :]
                for w in members:
                    on_stack[w] = 0
                yield members


def _eps_closures(eps: list[list[int]], pos: list[int]) -> list[int]:
    """Per state, the bitmask of the states it reaches by epsilon.

    State q is bit ``pos[q]`` of a mask, or left out when that is -1.
    ``_components`` yields a component of the epsilon graph after every
    component it reaches, so each component's closure is one union over
    its members and their finished successors.
    """
    closure = [1 << j if j >= 0 and not e else 0 for j, e in zip(pos, eps)]
    if not any(eps):
        return closure
    for members in _components(eps):
        mask = 0
        for w in members:
            if pos[w] >= 0:
                mask |= 1 << pos[w]
            for x in eps[w]:
                mask |= closure[x]  # 0 inside this component
        for w in members:
            closure[w] = mask
    return closure


def _coarsest_partition(delta: list[list[int]], final: list[bool], k: int) -> list[int]:
    """Hopcroft's refinement of a partial DFA into language classes.

    ``delta[s][c]`` is the target of state s on letter column c, or -1.
    Missing moves go to an added sink, state ``len(delta)``; the class of
    each state is returned, the sink's included, and every state that
    accepts nothing shares the sink's class.
    """
    n = len(delta)
    sink = n
    inv: list[dict[int, list[int]]] = [{} for _ in range(k)]
    for s, row in enumerate(delta):
        for c, t in enumerate(row):
            inv[c].setdefault(t if t >= 0 else sink, []).append(s)
    for c in range(k):
        inv[c].setdefault(sink, []).append(sink)
    accepting = {s for s in range(n) if final[s]}
    blocks = [accepting, set(range(n + 1)) - accepting]
    block_of = [1] * (n + 1)
    for s in accepting:
        block_of[s] = 0
    smaller = 0 if len(blocks[0]) <= len(blocks[1]) else 1
    work = [(smaller, c) for c in range(k)]
    while work:
        b, c = work.pop()
        inv_c = inv[c]
        touched: dict[int, list[int]] = {}
        for t in blocks[b]:
            for s in inv_c.get(t, ()):
                touched.setdefault(block_of[s], []).append(s)
        for y, movers in touched.items():
            block = blocks[y]
            if len(movers) == len(block):
                continue
            if 2 * len(movers) > len(block):
                movers = list(block.difference(movers))
            # The smaller half becomes the new block.  It is the splitter to
            # add whether or not the old block is still waiting: if it is,
            # it now stands for the larger half only.
            new = len(blocks)
            block.difference_update(movers)
            blocks.append(set(movers))
            for s in movers:
                block_of[s] = new
            work.extend((new, c2) for c2 in range(k))
    return block_of


def _subset_moves(rows: Sequence, initial: int, finals: Iterable[int]) -> tuple:
    """Epsilon-closed state subsets as bitmasks: the initial one, per bit
    the nonempty one each letter leads to, the final bits, and ``kept``.

    ``rows[q]`` holds state q's epsilon targets and its (letter, targets)
    pairs, one pair per letter, as in a ``Row``.  Only states with a
    letter move and final states decide a subset's future, so only they
    get a bit: state ``kept[j]`` is bit j.
    """
    final = set(finals)
    pos = [-1] * len(rows)
    kept: list[int] = []
    for q, (_, on) in enumerate(rows):
        if on or q in final:
            pos[q] = len(kept)
            kept.append(q)
    closure = _eps_closures([eps for eps, _ in rows], pos)
    steps = []
    for q in kept:
        row = {}
        for a, dsts in rows[q][1]:
            mask = closure[dsts[0]]  # shared, not copied, when it is the only one
            for d in dsts[1:]:
                mask |= closure[d]
            if mask:
                row[a] = mask
        steps.append(row)
    final_mask = sum(1 << pos[q] for q in final)
    return closure[initial], steps, final_mask, kept


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits, highest first."""
    bits = bin(mask)  # "0b..." with the highest bit first
    top = len(bits) - 1
    i = bits.find("1", 2)
    while i >= 0:
        yield top - i
        i = bits.find("1", i + 1)


def _minimal_dfa(alphabet: PriorityAlphabet, rows, initial: int, finals, cap: int) -> Nfa | None:
    """Canonical minimal DFA of an automaton, or None past ``cap`` subsets.

    The subset construction runs on ``_subset_moves``' bitmasks of the
    automaton; the empty subset, the dead sink, is never built.
    Hopcroft's refinement then merges equivalent subsets, and ``_walk``
    numbers the classes that accept something in breadth-first order
    from the initial one, letters taken in sorted order, so one language
    always gives the same automaton.  An empty language is one state
    with no finals.
    """
    start, moves_of, final_mask, _ = _subset_moves(rows, initial, finals)
    letters = sorted(alphabet.letters)
    column = {a: c for c, a in enumerate(letters)}
    steps = [[(column[a], mask) for a, mask in row.items()] for row in moves_of]

    index = {start: 0}
    subsets = [start]
    delta: list[list[int]] = []
    k = len(letters)
    for subset in subsets:
        moves = [0] * k
        for j in _bits(subset):
            for c, mask in steps[j]:
                moves[c] |= mask
        row = []
        for mask in moves:
            t = -1
            if mask:
                t = index.get(mask, -1)
                if t < 0:
                    t = index[mask] = len(subsets)
                    subsets.append(mask)
                    if len(subsets) > cap:
                        return None
            row.append(t)
        delta.append(row)

    block_of = _coarsest_partition(delta, [bool(s & final_mask) for s in subsets], k)
    dead = block_of[len(delta)]
    member = {}
    for s in range(len(delta)):
        member.setdefault(block_of[s], s)

    def successors(b: int):
        row = delta[member[b]]
        moves = [(letters[c], block_of[t]) for c, t in enumerate(row) if t >= 0]
        return bool(subsets[member[b]] & final_mask), [m for m in moves if m[1] != dead]

    return _walk(alphabet, block_of[0], successors, len(member), "minimal DFA")


def nfa_reduce(nfa: Nfa) -> Nfa:
    """The minimal DFA of the language when it is no larger, else the NFA.

    The DFA is the canonical one of ``_minimal_dfa``: trimmed, with no
    dead sink, numbered in breadth-first order with letters sorted.  It
    is returned when the subset construction stays within the NFA's own
    state count; past that the subset construction stops and the NFA
    comes back unchanged.  The result never has more states than the
    input.
    """
    dfa = _minimal_dfa(nfa.alphabet, nfa.adjacency, nfa.initial, nfa.finals, len(nfa.states))
    return dfa or nfa


def subword_transducer(alphabet: PriorityAlphabet) -> Transducer:
    """Keep or drop every letter; one state."""
    edges = []
    for a in alphabet.letters:
        edges.append(("t0", (a,), (a,), "t0"))
        edges.append(("t0", (a,), (), "t0"))
    return Transducer(alphabet, ("t0",), tuple(edges), "t0", ("t0",))


def priority_transducer(alphabet: PriorityAlphabet) -> Transducer:
    """Dropped letters never outrank the next kept one; last letter kept.

    State p_r remembers the highest dropped priority since the last kept
    letter.  Keeping a letter requires it to reach that bar and resets it;
    a keep may instead jump to ``acc``, which closes the run at the final
    input position.  The drain branch emits the empty word from anything.
    """
    d = alphabet.max_assigned_priority
    states = ["start", "acc", "drain"] + [f"p{r}" for r in range(d + 1)]
    edges: list[tuple[str, Word, Word, str]] = [
        ("start", (), (), "p0"),
        ("start", (), (), "drain"),
    ]
    for a in alphabet.letters:
        s = alphabet.priority(a)
        edges.append(("drain", (a,), (), "drain"))
        for r in range(d + 1):
            if s < r:
                edges.append((f"p{r}", (a,), (), f"p{r}"))
            else:
                edges.append((f"p{r}", (a,), (), f"p{s}"))
                edges.append((f"p{r}", (a,), (a,), "p0"))
                edges.append((f"p{r}", (a,), (a,), "acc"))
    return Transducer(alphabet, tuple(states), tuple(edges), "start", ("acc", "drain"))


def block_transducer(alphabet: PriorityAlphabet) -> Transducer:
    """Drop letters block-wise: after dropping priority r, everything up
    to the next kept priority-r letter is dropped too.

    State b_r means a priority-r drop is pending; the machine must emit
    a priority-r letter to return to b_0, the only final state.
    """
    d = alphabet.max_assigned_priority
    states = [f"b{r}" for r in range(d + 1)] + ["sink"]
    edges: list[tuple[str, Word, Word, str]] = []
    for a in alphabet.letters:
        s = alphabet.priority(a)
        edges.append(("b0", (a,), (a,), "b0"))
        edges.append(("b0", (a,), (), "b0" if s == 0 else f"b{s}"))
        edges.append(("sink", (a,), (), "sink"))
        for r in range(1, d + 1):
            if s < r:
                edges.append((f"b{r}", (a,), (), f"b{r}"))
            elif s == r:
                edges.append((f"b{r}", (a,), (), f"b{r}"))
                edges.append((f"b{r}", (a,), (a,), "b0"))
            else:
                edges.append((f"b{r}", (a,), (), "sink"))
    return Transducer(alphabet, tuple(states), tuple(edges), "b0", ("b0",))


# A transducer state's moves: (emitted, target) pairs that consume
# nothing, the same pairs keyed by the letter they consume, and whether
# the state is final.  Emitted is a letter or None; states are ints.
TMoves = tuple[list[tuple[str | None, int]], dict[str, list[tuple[str | None, int]]], bool]


def _transducer_moves(transducer: Transducer) -> tuple[int, list[TMoves]]:
    """Initial state id and per-state moves of a materialised transducer."""
    ids = {q: i for i, q in enumerate(transducer.states)}
    finals = set(transducer.finals)
    table: list[TMoves] = [([], {}, q in finals) for q in transducer.states]
    for src, consumed, emitted, dst in transducer.edges:
        eps, on, _ = table[ids[src]]
        move = (emitted[0] if emitted else None, ids[dst])
        if consumed:
            on.setdefault(consumed[0], []).append(move)
        else:
            eps.append(move)
    return ids[transducer.initial], table


def _product(
    nfa: Nfa,
    t_initial: int,
    t_moves: Callable[[int], TMoves],
    max_states: int,
    what: str,
) -> Nfa:
    """Trimmed NFA of the NFA's image under a letter transducer, unmerged.

    ``t_moves(t)`` gives the moves of transducer state t (see ``TMoves``);
    it is called once per state, so a transducer may be built on demand.
    ``_walk`` walks the product, caps it at ``max_states`` and trims it.
    ``apply_transduction`` serves relabelling transducers with it, and it
    is the reference that ``_merged_product`` is checked against.
    """
    adjacency = nfa.adjacency
    n = len(adjacency)
    n_finals = set(nfa.finals)
    # A product state (t, q) is the key t * n + q.  Memoised moves carry
    # the target's t * n, so a product target is that plus the NFA's q.
    memo: dict[int, TMoves] = {}

    def successors(key: int):
        nq = key % n
        base = key - nq
        moves = memo.get(base)
        if moves is None:
            eps, on, final = t_moves(base // n)
            moves = memo[base] = (
                [(label, t * n) for label, t in eps],
                {a: [(label, t * n) for label, t in ms] for a, ms in on.items()},
                final,
            )
        t_eps, t_on, t_final = moves
        n_eps, n_on = adjacency[nq]
        targets = [(label, b + nq) for label, b in t_eps]
        for letter, dsts in n_on:
            t_moves_on = t_on.get(letter)
            if t_moves_on:
                targets += [(label, b + q) for label, b in t_moves_on for q in dsts]
        targets += [(None, base + q) for q in n_eps]
        return t_final and nq in n_finals, targets

    return _walk(nfa.alphabet, t_initial * n + nfa.initial, successors, max_states, what)


def apply_transduction(
    transducer: Transducer, nfa: Nfa, max_states: int = DEFAULT_MAX_STATES
) -> Nfa:
    """Image NFA of the language under the transducer.

    The product is trimmed: every state is reachable and reaches a final
    state, apart from the lone initial state of an empty image.
    """
    if transducer.alphabet != nfa.alphabet:
        raise ValueError("transduction requires matching alphabets")
    initial, table = _transducer_moves(transducer)
    return _product(nfa, initial, table.__getitem__, max_states, "transduction product")


# Configurations of one block-matching frame (see ``_minimal_controller``).
_START = "s"
_PRE = "p"
_POSTF = "kf"
_POSTM = "km"
_GAPF = "gf"
_GAPM = "gm"
_XSTART = "xs"
_XMID = "xm"
_E0 = "e0"
_E1 = "e1"

_CONTENT_MAP = {
    _START: _PRE,
    _PRE: _PRE,
    _POSTF: _POSTM,
    _POSTM: _POSTM,
    _GAPF: _GAPM,
    _GAPM: _GAPM,
}

_SEP_MAP = {
    _START: (_POSTF, _PRE),
    _PRE: (_POSTF, _PRE),
    _POSTF: (_POSTF, _POSTF),
    _POSTM: (_POSTF, _POSTF),
    _GAPF: (_POSTF, _GAPF),
    _GAPM: (_POSTF, _GAPF),
}

_ACCEPTING = {_POSTF, _POSTM, _E1}

# Per priority profile, for block and priority order: the most states one
# automaton of the table's construction reached, its initial state, and per
# state its ``TMoves`` over one class letter str(s) per priority s.
_CONTROLLERS: dict[tuple[int, ...], tuple[int, int, list]] = {}
_PRIORITY_TABLES: dict[tuple[int, ...], tuple[int, int, list]] = {}


def _minimal_controller(profile: tuple[int, ...], max_states: int) -> tuple[int, tuple]:
    """The minimal block controller of a priority profile, level by level.

    The controller reads one class letter per priority of the profile;
    "+s" consumes a priority-s letter and keeps it, "-s" drops it.  Its
    initial state guesses the top priority p of the output word: p = 0
    keeps or drops any priority-0 letter, and p >= 1 runs the machine of
    a level-p frame.  A frame mirrors the recursive block matching: it
    either skips dropped material between kept separators or opens a
    sub-frame at a lower level that embeds one emitted block into one
    input block.  Empty emitted blocks never open a frame, so the
    material they face is dropped without inspection.  An open sub-frame
    reads every letter below its own level, and the frame above reads
    only whether it can close, when a letter above that level arrives.

    So the machine of level q is built from the minimal machines of the
    levels below it: a state is either a configuration of the level-q
    frame or an open-sub-frame configuration with a state of a lower
    level's minimal machine.  Each level, and the controller, is
    minimised with ``_minimal_dfa``, and the result is ``==`` to the
    minimal DFA of the whole stack of frames (``test_block_controller``
    checks every profile up to d = 6).  Stacks grow threefold per
    level, to 1,212 at d = 5, while no automaton here passes 136 states
    at d = 5.  Row q of the result is whether state q is final and a
    (s, keep target, drop target) triple per class, with -1 for a
    missing move.  The count is the most states any one automaton
    reached; more than ``max_states`` raise ResourceLimit.
    """
    present = set(profile)
    d = max(profile, default=0)
    labels = PriorityAlphabet(tuple((f"{sign}{s}", s) for s in profile for sign in "+-"))
    largest = 0

    def minimise(initial: Hashable, successors) -> tuple[list[dict], set[int]]:
        nonlocal largest
        count = 0

        def counted(key):
            nonlocal count
            count += 1
            return successors(key)

        nfa = _walk(labels, initial, counted, max_states, "block controller")
        largest = max(largest, count)
        # n states have at most 2^n - 1 nonempty subsets, so this never gives up
        dfa = _minimal_dfa(labels, nfa.adjacency, nfa.initial, nfa.finals, 1 << len(nfa.states))
        return [{label: dsts[0] for label, dsts in on} for _, on in dfa.adjacency], set(dfa.finals)

    def level_zero(cfg: str):
        return cfg == _E1, [("+0", _E1), ("-0", cfg)] if 0 in present else []

    def level(q: int):
        def successors(key):
            out: list[tuple[str | None, Hashable]] = []
            if isinstance(key, str):  # the level-q frame, with nothing open below
                for s in profile:
                    if s < q:
                        out.append((f"-{s}", _CONTENT_MAP[key]))
                    elif s == q:
                        keep, drop = _SEP_MAP[key]
                        out += [(f"+{s}", keep), (f"-{s}", drop)]
                if key in (_START, _POSTF):
                    opened = _XSTART if key == _START else _XMID
                    out += [(None, (opened, r, 0)) for r in range(q)]
                return key in _ACCEPTING, out
            opened, r, m = key  # a sub-frame of level r is open, in state m
            moves, finals = machines[r]
            out += [(label, (opened, r, t)) for label, t in moves[m].items()]
            if m in finals and q in present:
                # the sub-frame closes; only a separator may follow
                out += [(f"+{q}", _POSTF), (f"-{q}", _GAPF if opened == _XMID else _PRE)]
            return opened == _XMID and m in finals, out

        return successors

    machines = [minimise(_E0, level_zero)]
    for q in range(1, d + 1):
        machines.append(minimise(_START, level(q)))

    def guess(key):
        if key == "guess":
            return False, [(None, "flat")] + [(None, (p, 0)) for p in range(1, d + 1)]
        if key == "flat":
            return True, [("+0", "flat"), ("-0", "flat")] if 0 in present else []
        p, m = key
        moves, finals = machines[p]
        return m in finals, [(label, (p, t)) for label, t in moves[m].items()]

    moves, finals = minimise("guess", guess)
    rows = []
    for q, target in enumerate(moves):
        classes = tuple((s, target.get(f"+{s}", -1), target.get(f"-{s}", -1)) for s in profile)
        rows.append((q in finals, classes))
    return largest, tuple(rows)


def _order_moves(order: OrderKind, alphabet: PriorityAlphabet, max_states: int):
    """The order's transducer over the alphabet: initial id and move lookup.

    Moves depend only on a letter's class, its priority (0 in subword
    order, which is block order on one priority), so a table is built
    once per profile, the sorted set of classes in use, and ``_product``
    expands a state's classes to the alphabet's letters.  Every order
    only compares priorities and tests them for 0, so a class is its
    priority's rank: 0 stays 0 and the positive priorities in use become
    1..k, and a sparse alphabet such as {a: 0, b: 10**9} costs what
    {a: 0, b: 1} does.  Block order's
    table is ``_minimal_controller``'s, whose image of {v} is the
    absorbing block cone below v (cold, 1 to 41 ms with every priority
    0..d for d = 0..7 on a 2-CPU Xeon container); priority order's keeps
    ``priority_transducer``'s state ids and move order.  A state drops a
    class in place when it has the move (None, itself) on it.
    ``_merged_product`` reads these moves per letter and merges the NFA
    cycles of such letters; the merge is exact, as dropping a cycle's
    letters leaves the table state where it was.  More than
    ``max_states`` states in one automaton of a table's construction
    raise ResourceLimit, on a cached profile too.
    """
    if not isinstance(order, OrderKind):
        raise ValueError(f"unknown order {order!r}")
    rank = {s: i for i, s in enumerate(sorted({0, *(s for _, s in alphabet.entries)}))}
    letters: dict[int, list[str]] = {}
    for a, s in alphabet.entries:
        letters.setdefault(0 if order is OrderKind.SUBWORD else rank[s], []).append(a)
    profile = tuple(sorted(letters))
    cache = _PRIORITY_TABLES if order is OrderKind.PRIORITY else _CONTROLLERS
    built = cache.get(profile)
    if built is None and order is OrderKind.PRIORITY:
        classes = PriorityAlphabet(tuple((str(s), s) for s in profile))
        # its few states are not counted against max_states
        built = cache[profile] = (0, *_transducer_moves(priority_transducer(classes)))
    elif built is None:
        largest, rows = _minimal_controller(profile, max_states)
        built = cache[profile] = (largest, 0, [
            ([], {str(s): [(str(s), k)] * (k >= 0) + [(None, d)] * (d >= 0) for s, k, d in on}, f)
            for f, on in rows
        ])
    size, initial, rows = built
    if size > max_states:
        raise ResourceLimit(f"block controller exceeded {max_states} states")

    def moves(t: int) -> TMoves:
        eps, on, final = rows[t]
        out = {a: [(a if c else None, u) for c, u in on[str(s)]]
               for s, group in letters.items() if str(s) in on for a in group}
        return eps, out, final

    return initial, moves


def _merged_product(
    nfa: Nfa, t_initial: int, t_moves: Callable[[int], TMoves], max_states: int, what: str
) -> tuple[list, list[int]]:
    """Rows and finals of the NFA's image under a letter table, with the
    product states that lie on one epsilon cycle merged.

    The table emits the letter it reads or nothing, and its moves that
    read nothing emit nothing, as ``_order_moves``' tables do.  Where
    table state t drops letter a in place, a move on a of the NFA is an
    epsilon move of the product that stays at t.  So the states (t, q)
    for q in one strongly connected component r of the NFA's graph of
    epsilon moves and such letters lie on one epsilon cycle, and share
    their epsilon closure.  The walk keys a state by (t, r), as t * n
    plus r's first member: the merged state takes its members' moves,
    less its epsilon loops, and is final if any member is.  An
    epsilon-closed subset holds all of a cycle or none of it, so every
    such subset keeps its language, and ``_minimal_dfa`` gives the DFA of
    the unmerged product of ``_product``.

    Components depend on t only through its set of in-place letters, and
    only those with two or more members merge anything.  Per such set
    and component, the walk reads once, when it first reaches the
    component, whether a member is final, the members' epsilon targets
    mapped to their components, and per letter the union of the members'
    targets; a state on no cycle reads its own NFA row.  Only the table's
    own moves that read nothing go member by member, as each target maps
    through the components of the target table state.  Rows hold lists,
    one (letter, targets) pair per letter, and nothing is trimmed: the
    subset construction and Hopcroft's refinement send dead states to the
    sink.  More than ``max_states`` merged states raise ResourceLimit
    naming ``what``.
    """
    adjacency = nfa.adjacency
    n = len(adjacency)
    n_final = bytearray(n)
    for q in nfa.finals:
        n_final[q] = 1
    has_eps = any(eps for eps, _ in adjacency)
    identity = list(range(n))
    by_letter: dict[str, list] = {}
    for q, (_, on) in enumerate(adjacency):
        for a, ds in on:
            by_letter.setdefault(a, []).append((q, ds))
    # per in-place letter set: the first member of each state's component,
    # the components of two or more members by first member, and their reads
    by_drops: dict[frozenset, tuple[list[int], dict[int, list[int]], dict[int, tuple]]] = {}
    by_state: dict[int, tuple] = {}
    memo: dict[int, tuple] = {}

    def merged(t: int) -> tuple:
        """Transducer state t's moves and the components of its in-place set."""
        got = by_state.get(t)
        if got is None:
            moves = t_moves(t)
            in_place = frozenset(a for a, ms in moves[1].items() if (None, t) in ms)
            cycles = by_drops.get(in_place)
            if cycles is None:
                first, members = identity, {}
                if in_place or has_eps:
                    succ = [list(eps) for eps, _ in adjacency]
                    for a in in_place:
                        for q, ds in by_letter.get(a, ()):
                            succ[q] += ds
                    for component in _components(succ):
                        if len(component) > 1:
                            if first is identity:
                                first = list(identity)
                            r = component[0]
                            members[r] = component
                            for q in component:
                                first[q] = r
                cycles = by_drops[in_place] = (first, members, {})
            got = by_state[t] = (moves, *cycles)
        return got

    def table(t: int) -> tuple:
        # a move carries its target's t * n and component map: the target key is that plus first[q]
        def targets(moves):
            return [(label, u * n, merged(u)[1]) for label, u in moves]

        (eps, on, final), first, members, reads = merged(t)
        got = memo[t * n] = (targets(eps), {a: targets(ms) for a, ms in on.items()}, final,
                             first, members, reads)
        return got

    def read(group: list[int], first: list[int]) -> tuple:
        """A component's finality, epsilon targets' components, and letter moves."""
        eps: set[int] = set()
        on: dict[str, set[int]] = {}
        for q in group:
            q_eps, q_on = adjacency[q]
            eps.update([first[d] for d in q_eps])
            for a, dsts in q_on:
                if a in on:
                    on[a].update(dsts)
                else:
                    on[a] = set(dsts)
        eps.discard(group[0])
        return any(n_final[q] for q in group), eps, tuple(on.items())

    start = t_initial * n + merged(t_initial)[1][nfa.initial]
    index = {start: 0}
    order = [start]
    rows: list = []
    finals: list[int] = []
    for key in order:
        r = key % n
        base = key - r
        t_eps, t_on, t_final, first, members, reads = memo.get(base) or table(base // n)
        group = members.get(r)
        if group is None:
            group = (r,)
            n_eps, on = adjacency[r]
            final = n_final[r]
            eps_keys = {base + first[d] for d in n_eps}
        else:
            got = reads.get(r)
            if got is None:
                got = reads[r] = read(group, first)
            final, eps, on = got
            eps_keys = {base + d for d in eps}
        if t_eps:
            eps_keys.update([b + u_first[q] for _, b, u_first in t_eps for q in group])
        row_on = []
        for a, dsts in on:
            kept: set[int] = set()
            for label, b, u_first in t_on.get(a, ()):
                (kept if label else eps_keys).update([b + u_first[d] for d in dsts])
            if kept:
                ids = []
                for k in kept:
                    i = index.get(k)
                    if i is None:
                        i = index[k] = len(order)
                        order.append(k)
                    ids.append(i)
                row_on.append((a, ids))
        eps_keys.discard(key)
        row_eps = []
        for k in eps_keys:
            i = index.get(k)
            if i is None:
                i = index[k] = len(order)
                order.append(k)
            row_eps.append(i)
        rows.append((row_eps, row_on))
        if t_final and final:
            finals.append(len(rows) - 1)
        if len(order) > max_states:
            raise ResourceLimit(f"{what} exceeded {max_states} states")
    return rows, finals


def closure_regular(nfa: Nfa, order: OrderKind, max_states: int = DEFAULT_MAX_STATES) -> Nfa:
    """Canonical minimal DFA of the downward closure of the language
    under the order.

    Every closure ends here.  A grammar or counter machine passes in one
    skeleton S of its language L, over L's alphabet whatever alphabet it
    was built over; an NFA is its own skeleton.  S serves every order:
      - S contains L and lies inside L's block closure, so it has L's
        closure in block order and, as a block embedding is a subword
        embedding, in subword order.
      - Each nonempty word of S lies absorbing-block-below a word of L
        with the same last letter over ``flatten(alphabet)``: ``oca``'s
        glue repeats the letters of a run's cycles in place, and
        ``cfg``'s Kleene grammar keeps, through its right marker, the
        tail after the last separator.  On a flat alphabet that implies
        priority-below (``test_priority_skeleton`` checks it
        exhaustively), and ``flatten`` only breaks ties between equal
        priorities, so a flat priority embedding is one under L's
        priorities too.  The empty word is priority-below every word,
        and S is empty when L is.  So S lies inside L's priority
        closure, and has L's priority closure.

    The input goes unreduced into one product with the order's table,
    built once per priority profile (``_order_moves``), and the
    product's rows go straight to ``_minimal_dfa``; a caller whose
    skeleton shrinks under ``nfa_reduce`` reduces it first.  The product
    merges the states that a table state joins into one epsilon cycle by
    dropping every letter of an NFA cycle in place (``_merged_product``):
    a cycle closes to the star of its letters.  Merging the states of an
    epsilon cycle keeps every epsilon-closed subset's language, so the
    DFA is the one of the unmerged product, ``apply_transduction`` with
    the order's transducer.  An empty closure is one state with no
    finals.  More than ``max_states`` merged states in the product,
    states in one automaton of the block controller's construction, or
    subsets in the subset construction raise ResourceLimit.
    """
    initial, moves = _order_moves(order, nfa.alphabet, max_states)
    what = f"{order.value} closure"
    rows, finals = _merged_product(nfa, initial, moves, max_states, f"{what} product")
    dfa = _minimal_dfa(nfa.alphabet, rows, 0, finals, max_states)
    if dfa is None:
        raise ResourceLimit(f"{what} DFA exceeded {max_states} states")
    return dfa


def _state_names(nfa: Nfa) -> Sequence[str]:
    """The names ``nfa_parse`` read, else q0..qN in state order."""
    return nfa.names or [f"q{q}" for q in nfa.states]


def nfa_serialize(nfa: Nfa) -> dict:
    """JSON form: states, finals and edges in state order, by name."""
    names = _state_names(nfa)
    edges = []
    for src, (eps, on) in zip(names, nfa.adjacency):
        for dst in eps:
            edges.append([src, None, names[dst]])
        for a, dsts in on:
            for dst in dsts:
                edges.append([src, a, names[dst]])
    return {
        "states": list(names),
        "initial": names[nfa.initial],
        "finals": [names[f] for f in nfa.finals],
        "edges": edges,
    }


def _name(value, what: str) -> str:
    """A state or symbol name read from model data; it must be a string."""
    if not isinstance(value, str):
        raise ValueError(f"{what} {value!r} is not a string")
    return value


def _names(value, what: str) -> tuple[str, ...]:
    """A list of state or symbol names read from model data."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} list {value!r} is not a list")
    return tuple(_name(item, what) for item in value)


def _parse_edge(item, arity: int) -> tuple:
    """An edge [src, label, ..., dst] read from model data, shape-checked."""
    if (
        not isinstance(item, (list, tuple))
        or len(item) != arity
        or not (isinstance(item[0], str) and isinstance(item[-1], str))
        or not (item[1] is None or isinstance(item[1], str))
    ):
        raise ValueError(f"malformed edge {item!r}")
    return tuple(item)


def nfa_parse(data: Mapping, alphabet: PriorityAlphabet) -> Nfa:
    """The NFA of a JSON form, states numbered in sorted-name order and
    the names kept; repeated states and edges count once."""
    try:
        states = _names(data["states"], "state")
        initial = _name(data["initial"], "state")
        finals = _names(data["finals"], "state")
        edges = tuple(_parse_edge(item, 3) for item in data["edges"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed nfa data: {exc}") from exc
    names = tuple(sorted(set(states)))
    ids = {q: i for i, q in enumerate(names)}
    _check_ends(ids, initial, finals)
    letters = set(alphabet.letters)
    moves: list[list[tuple[str | None, int]]] = [[] for _ in names]
    for src, label, dst in edges:
        if src not in ids or dst not in ids:
            raise ValueError(f"edge ({src!r}, {label!r}, {dst!r}) uses unknown state")
        if label is not None and label not in letters:
            raise ValueError(f"edge label {label!r} not in alphabet")
        moves[ids[src]].append((label, ids[dst]))
    final_ids = tuple(sorted({ids[f] for f in finals}))
    return Nfa(alphabet, tuple(map(_row, moves)), ids[initial], final_ids, names)


def _dot(name: str, states, initial: str, finals: set, edges) -> str:
    """Graphviz text of an automaton; ``edges`` are (src, dst, label) triples."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=none, label=""];']
    lines += [f'  "{q}" [shape={"doublecircle" if q in finals else "circle"}];' for q in states]
    lines.append(f'  __start -> "{initial}";')
    lines += [f'  "{src}" -> "{dst}" [label="{text}"];' for src, dst, text in edges]
    return "\n".join(lines + ["}"]) + "\n"


def nfa_to_dot(nfa: Nfa, name: str = "nfa") -> str:
    data = nfa_serialize(nfa)
    edges = [(src, dst, "&epsilon;" if a is None else a) for src, a, dst in data["edges"]]
    return _dot(name, data["states"], data["initial"], set(data["finals"]), edges)
