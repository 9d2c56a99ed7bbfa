"""Brute-force reference implementations used to cross-check the library.

These deliberately mirror the definitions rather than the production
algorithms: the block check enumerates every witness map, the priority
check enumerates every position embedding, the block controller is one
stack of matching frames rather than one minimal machine per level, and
the priority closure of a grammar or counter machine is built from one
skeleton per last letter rather than from the model's one skeleton, and
the side letters of a pump come from a fixpoint over the seam-marked pump
grammar rather than from the grammar's components, and a Kleene grammar's
acyclic automaton keeps one state per stack of its walk rather than
settling forced ε-moves, and the binary normal form collapses the unit
chain of every head before it prunes rather than of the reached ones,
and the closure product reads every member of a merged state rather
than each component's moves once, and the oracle's bounded closure
tests every subword of every member, drawn as a choice of positions,
with ``leq`` rather than generating each member's down-set in a walk
over the members, and a grammar's closure rebuilds over the
flattened alphabet in every order rather than taking the subword
closure per component for the orders that cannot see priorities, and
useless symbols are pruned by round-robin fixpoints over plain
grammars rather than by the library's counter worklist.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable

from prioclose.automata import (
    _ACCEPTING,
    _CONTENT_MAP,
    _E0,
    _E1,
    _GAPF,
    _POSTF,
    _PRE,
    _SEP_MAP,
    _START,
    _XMID,
    _XSTART,
    Nfa,
    _components,
    _minimal_dfa,
    _walk,
    closure_regular,
    nfa_for_words,
    nfa_intersect,
    nfa_reduce,
    nfa_union,
)
import prioclose.cfg as cfg_module
from prioclose.cfg import (
    LIT,
    NT,
    STAR,
    Cfg,
    HatAlphabet,
    KleeneGrammar,
    _ends_transducer,
    _fresh,
    _identity,
    _kleene,
    _pump_from_cnf,
    _pump_sides,
    _repeat_transducer,
    _transduce_cnf,
    acyclic_nfa,
    apply_transducer_to_cfg,
    to_cnf,
)
from prioclose.core import (
    DEFAULT_MAX_STATES,
    OrderKind,
    PriorityAlphabet,
    ResourceLimit,
    Word,
    _word_key,
    block_decompose,
    flatten,
    leq,
    max_priority,
)
from prioclose.oca import Oca, SimpleOca, _glue_nfa, oca_accepts_bounded
from prioclose.oracle import DEFAULT_CHECK_CAP


def subword_ref(u: Word, v: Word) -> bool:
    if not u:
        return True
    for positions in combinations(range(len(v)), len(u)):
        if all(v[j] == u[i] for i, j in enumerate(positions)):
            return True
    return False


def leq_priority_ref(alphabet: PriorityAlphabet, u: Word, v: Word) -> bool:
    if not u:
        return True
    k = len(v)
    for positions in combinations(range(k), len(u)):
        if positions[-1] != k - 1:
            continue
        if any(v[j] != u[i] for i, j in enumerate(positions)):
            continue
        ok = True
        chosen = set(positions)
        nxt = 0
        for j in range(k):
            if j in chosen:
                nxt += 1
                continue
            if nxt >= len(u):
                ok = False
                break
            if alphabet.priority(v[j]) > alphabet.priority(u[nxt]):
                ok = False
                break
        if ok:
            return True
    return False


@lru_cache(maxsize=1 << 20)
def leq_block_ref(alphabet: PriorityAlphabet, u: Word, v: Word) -> bool:
    if not u:
        return max_priority(alphabet, v) <= 0
    p = max_priority(alphabet, u)
    if p != max_priority(alphabet, v):
        return False
    if p == 0:
        return subword_ref(u, v)
    ud = block_decompose(alphabet, u, p)
    vd = block_decompose(alphabet, v, p)
    ub, us = ud.blocks, ud.separators
    vb, vs = vd.blocks, vd.separators
    n, m = len(us), len(vs)
    if n > m:
        return False

    def fits(block: Word, target: Word) -> bool:
        return leq_block_ref(alphabet, block, target)

    for middle in combinations(range(1, m), n - 1):
        phi = (0,) + middle + (m,)
        if not all(fits(ub[i], vb[phi[i]]) for i in range(n + 1)):
            continue
        if all(
            any(vs[t] == us[i] for t in range(phi[i], phi[i + 1]))
            for i in range(n)
        ):
            return True
    return False


@lru_cache(maxsize=1 << 20)
def leq_block_absorbing_ref(alphabet: PriorityAlphabet, u: Word, v: Word) -> bool:
    """Variant used by the closure constructions: an empty block of u may
    face any dropped target block, not just a priority-0 one.  The word
    level keeps the standard empty-word rule."""
    if not u:
        return max_priority(alphabet, v) <= 0
    return _absorbing_fit(alphabet, u, v)


@lru_cache(maxsize=1 << 20)
def _absorbing_fit(alphabet: PriorityAlphabet, u: Word, v: Word) -> bool:
    if not u:
        return True
    p = max_priority(alphabet, u)
    if p != max_priority(alphabet, v):
        return False
    if p == 0:
        return subword_ref(u, v)
    ud = block_decompose(alphabet, u, p)
    vd = block_decompose(alphabet, v, p)
    ub, us = ud.blocks, ud.separators
    vb, vs = vd.blocks, vd.separators
    n, m = len(us), len(vs)
    if n > m:
        return False
    for middle in combinations(range(1, m), n - 1):
        phi = (0,) + middle + (m,)
        if not all(_absorbing_fit(alphabet, ub[i], vb[phi[i]]) for i in range(n + 1)):
            continue
        if all(
            any(vs[t] == us[i] for t in range(phi[i], phi[i + 1]))
            for i in range(n)
        ):
            return True
    return False


def all_words(letters: tuple[str, ...], max_len: int):
    for length in range(max_len + 1):
        for combo in product(letters, repeat=length):
            yield combo


Frame = tuple[int, str]
Stack = tuple[Frame, ...]


def _chain_closable(frames: Stack) -> bool:
    if not frames:
        return True
    if frames[-1][1] not in _ACCEPTING:
        return False
    return all(cfg == _XMID for _, cfg in frames[:-1])


def stack_controller(alphabet: PriorityAlphabet):
    """Transducer whose image of {v} is the absorbing block cone below v.

    Returns its initial state id and a ``TMoves`` lookup for
    ``automata._product``, which asks for each state's moves once; states
    are numbered as they are first named.  State 0 guesses the top
    priority p of the output word: state 1 handles p = 0, and every other
    state is a stack of frames, one per open level, levels falling
    downward.  It has 1,212 states at d = 5, where the minimal controller
    has 26.
    """
    d = alphabet.max_assigned_priority
    letters = [(a, alphabet.priority(a)) for a in alphabet.letters]
    stacks: list[Stack] = [(), ()]
    ids: dict[Stack, int] = {}

    def sid(stack: Stack) -> int:
        i = ids.get(stack)
        if i is None:
            i = ids[stack] = len(stacks)
            stacks.append(stack)
        return i

    def moves(t: int):
        if t == 0:
            eps = [(None, 1)] + [(None, sid(((p, _START),))) for p in range(1, d + 1)]
            return eps, {}, False
        if t == 1:
            return [], {a: [(a, 1), (None, 1)] for a, s in letters if s == 0}, True
        stack = stacks[t]
        on: dict[str, list[tuple[str | None, int]]] = {}
        k = len(stack) - 1
        top_level = stack[0][0]
        for a, s in letters:
            if s > top_level:
                continue
            j = k  # the lowest frame at level >= s; levels fall downward
            while stack[j][0] < s:
                j -= 1
            if not _chain_closable(stack[j + 1 :]):
                continue
            level, cfg = stack[j]
            if j < k:
                # the frame below just closed; only its separator may follow
                if s != level:
                    continue
                drop_cfg = _GAPF if cfg == _XMID else _PRE
                keep = stack[:j] + ((level, _POSTF),)
                drop = stack[:j] + ((level, drop_cfg),)
            elif level == 0:
                keep, drop = stack[:j] + ((0, _E1),), stack
            elif s < level:
                on[a] = [(None, sid(stack[:j] + ((level, _CONTENT_MAP[cfg]),)))]
                continue
            else:
                keep_cfg, drop_cfg = _SEP_MAP[cfg]
                keep = stack[:j] + ((level, keep_cfg),)
                drop = stack[:j] + ((level, drop_cfg),)
            on[a] = [(a, sid(keep)), (None, sid(drop))]
        eps: list[tuple[str | None, int]] = []
        level, cfg = stack[-1]
        if level >= 1 and cfg in (_START, _POSTF):
            opened = _XSTART if cfg == _START else _XMID
            for sub_level in range(level):
                sub: Frame = (sub_level, _START) if sub_level >= 1 else (0, _E0)
                eps.append((None, sid(stack[:-1] + ((level, opened), sub))))
        return eps, on, _chain_closable(stack)

    return 0, moves


def minimal_stack_controller(profile: tuple[int, ...]) -> tuple:
    """The rows of the stack controller's minimal DFA, in the form of
    ``automata._minimal_controller``: the stack controller runs on one
    class letter per priority of the profile, its moves are read as "+s"
    (keep) and "-s" (drop), and ``_minimal_dfa`` minimises that pair
    language."""
    labels = PriorityAlphabet(tuple((f"{sign}{s}", s) for s in profile for sign in "+-"))
    initial, moves = stack_controller(PriorityAlphabet(tuple((str(s), s) for s in profile)))

    def successors(t: int):
        eps, on, final = moves(t)
        out = [(None, u) for _, u in eps]
        for c, pairs in on.items():
            out += [(("+" if emitted else "-") + c, u) for emitted, u in pairs]
        return final, out

    stack = _walk(labels, initial, successors, 10**7, "stack controller")
    cap = 1 << len(stack.states)
    dfa = _minimal_dfa(labels, stack.adjacency, stack.initial, stack.finals, cap)
    rows = []
    for q, (_, on) in enumerate(dfa.adjacency):
        target = {label: dsts[0] for label, dsts in on}
        classes = tuple((s, target.get(f"+{s}", -1), target.get(f"-{s}", -1)) for s in profile)
        rows.append((q in dfa.finals, classes))
    return tuple(rows)


def _last_letter_nfa(alphabet: PriorityAlphabet, letter: str) -> Nfa:
    """Words whose final letter is the given one (deterministic)."""
    row = ((), tuple((a, (1,) if a == letter else (0,)) for a in alphabet.letters))
    return Nfa(alphabet, (row, row), 0, (1,))


def _last_letter_oca(oca: Oca | SimpleOca, letter: str) -> Oca:
    """Product with the two-state tracker of whether the last letter
    read so far is the chosen one."""
    def name(q: str, bit: int) -> str:
        return f"{q}~{bit}"

    tracked = []
    for src, label, op, dst in oca.edges:
        for bit in (0, 1):
            nxt = bit if label is None else (1 if label == letter else 0)
            tracked.append((name(src, bit), label, op, name(dst, nxt)))
    return Oca(
        oca.alphabet,
        tuple(name(q, bit) for q in oca.states for bit in (0, 1)),
        tuple(tracked),
        name(oca.initial, 0),
        tuple(name(f, 1) for f in oca.finals),
        oca.accept_mode,
    )


def per_letter_priority_closure(
    model: Cfg | Oca | SimpleOca, max_states: int = DEFAULT_MAX_STATES
) -> Nfa:
    """Priority closure of a grammar or counter machine, one skeleton per
    last letter.

    For each letter a, the model is restricted to its nonempty words
    ending in a (a grammar by a transduction over the flattened alphabet,
    a counter machine by a last-letter tracker), that restriction's
    skeleton is built, reduced and clamped to the words ending in a, and
    the pieces are joined, with the empty word when the model has it.
    Each piece lies absorbing-block-below the model's words ending in a
    over the flattened alphabet, so the union has the model's priority
    closure.  A counter machine's empty word is decided with the counter
    capped at the square of its state count.
    """
    alphabet = model.alphabet
    if isinstance(model, Cfg):
        flat = flatten(alphabet)
        flat_model = replace(model, alphabet=flat)
        _, with_empty = to_cnf(flat_model)

        def skeleton(letter: str) -> Nfa:
            group = apply_transducer_to_cfg(
                _identity(_last_letter_nfa(flat, letter)), flat_model, max_states
            )
            words, _ = to_cnf(group)
            if not words.productions:
                return nfa_for_words(flat, [])
            return acyclic_nfa(_kleene(words, max_states=max_states), max_states)

    else:
        with_empty = oca_accepts_bounded(model, (), counter_cap=len(model.states) ** 2)

        def skeleton(letter: str) -> Nfa:
            return _glue_nfa(_last_letter_oca(model, letter), max_states)

    joined = nfa_for_words(alphabet, [()] if with_empty else [])
    for letter in alphabet.letters:
        clamped = nfa_intersect(
            nfa_reduce(replace(skeleton(letter), alphabet=alphabet)),
            _last_letter_nfa(alphabet, letter),
            max_states,
        )
        if clamped.finals:
            joined = nfa_union(joined, clamped) if joined.finals else clamped
    return closure_regular(joined, OrderKind.PRIORITY, max_states)


def pruned_cfg(g: Cfg) -> Cfg:
    """Drop nonterminals that derive nothing or are unreachable.

    The two round-robin fixpoints of the textbook, written here rather
    than shared with ``cfg``: the productive nonterminals, then those the
    start reaches through productions whose nonterminals are all
    productive.  The start always stays, so a grammar with an empty
    language comes back production-free.
    """
    nts = set(g.nonterminals)
    productive: set[str] = set()
    grew = True
    while grew:
        grew = False
        for lhs, rhs in g.productions:
            if lhs not in productive and all(s in productive for s in rhs if s in nts):
                productive.add(lhs)
                grew = True
    prods = [
        (lhs, rhs)
        for lhs, rhs in g.productions
        if all(s in productive for s in rhs if s in nts)
    ]
    reachable = {g.start}
    grew = True
    while grew:
        grew = False
        for lhs, rhs in prods:
            if lhs in reachable and not reachable.issuperset(s for s in rhs if s in nts):
                reachable.update(s for s in rhs if s in nts)
                grew = True
    kept = [(lhs, rhs) for lhs, rhs in prods if lhs in reachable]
    return Cfg(g.alphabet, tuple(reachable), tuple(kept), g.start)


def mid_sides(g: Cfg, mid: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Letters before, respectively after, a ``mid`` in the words of g.

    One least fixpoint over a pruned grammar, in the style of the
    useful-symbol analyses (Hopcroft & Ullman, §7.4).  ``occurs`` holds
    the letters of each symbol's words.  ``sides`` holds, for each symbol
    whose words can contain ``mid``, the letters that can stand left and
    right of it: a rule N -> X1...Xk with such an Xi gives N those of Xi,
    plus what X1...Xi-1 hold on the left and Xi+1...Xk on the right.
    Every other item derives some word because the grammar is pruned, so
    the sets are exact.  On the seam-marked pump grammar of x they are
    the letters left and right of x in its pumps.
    """
    occurs: dict[str, set[str]] = {a: {a} for a in g.alphabet.letters}
    occurs.update((n, set()) for n in g.nonterminals)
    sides: dict[str, tuple[set[str], set[str]]] = {mid: (set(), set())}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            seen = occurs[lhs]
            size = len(seen)
            for sym in rhs:
                seen |= occurs[sym]
            changed = changed or len(seen) != size
            for i, sym in enumerate(rhs):
                if sym not in sides:
                    continue
                if lhs not in sides:
                    sides[lhs] = (set(), set())
                    changed = True
                left, right = sides[lhs]
                more_left = sides[sym][0].union(*(occurs[s] for s in rhs[:i]))
                more_right = sides[sym][1].union(*(occurs[s] for s in rhs[i + 1 :]))
                if not (more_left <= left and more_right <= right):
                    left |= more_left
                    right |= more_right
                    changed = True
    left, right = sides.get(g.start, ((), ()))
    return (
        tuple(a for a in g.alphabet.letters if a in left),
        tuple(a for a in g.alphabet.letters if a in right),
    )


class KleeneSteps:
    """The steps ``cfg._kleene`` runs, on one grammar over a flat alphabet.

    The grammar is normalised once, as ``cfg_closure`` does before the
    rebuild; ``hat`` is its alphabet with the three marker letters.
    """

    def __init__(self, g: Cfg):
        self.cnf, _ = to_cnf(g)
        self.hat = HatAlphabet.extend(g.alphabet)

    def pump(self, x: str) -> Cfg:
        """The seam-marked words u # v with x deriving u x v; the bare
        seam stands for the zero-step pump."""
        return _pump_from_cnf(self.cnf, x, self.hat)

    def image(self, x: str, t, cutoff: int, markers: bool = False) -> Cfg:
        """x's pump grammar under the pump transducer t, over the letters
        up to ``cutoff`` and, if asked, the three markers."""
        base = self.hat.base
        entries = tuple((a, p) for a, p in base.entries if p <= cutoff)
        if markers:
            entries += tuple((m, 0) for m in (self.hat.mid, self.hat.left, self.hat.right))
        image = _transduce_cnf(t, to_cnf(self.pump(x)), DEFAULT_MAX_STATES)
        return replace(image, alphabet=PriorityAlphabet(entries))

    def ends(self, x: str, r: int, s: int) -> Cfg:
        """The marked outer runs of x's pumps with top priorities r and s:
        each half's run from its first separator to its last is replaced
        by a marker, so what is left lies below both separators."""
        return self.image(x, _ends_transducer(self.hat, r, s), max(r, s, 1) - 1, markers=True)

    def runs(self, x: str, r: int, s: int) -> tuple[Cfg, Cfg]:
        """The separator-free runs that repeat left and right of x: below
        the side's separator, or single letters of priority 0."""
        return tuple(
            self.image(x, _repeat_transducer(self.hat, r, s, side), max(pri - 1, 0))
            for side, pri in (("left", r), ("right", s))
        )

    def sides(self, x: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The letters left and right of x in its pumps; none if pruned."""
        return _pump_sides(self.cnf)[1].get(x, ((), ()))

    def kleene(self) -> KleeneGrammar:
        return _kleene(self.cnf)


def kleene_sizes(cnf: Cfg) -> tuple[int, int, list[int], int]:
    """Sizes around one ``cfg._kleene`` call on a normalised grammar.

    Returns its nonterminal count n, its top priority p, the nonterminal
    counts of the grammars that the call closes directly inside it (the
    pump ends and the runs of each side), and that of its result.  The
    inner calls are counted by a wrapper that stands in for the module's
    ``_kleene`` during the call.
    """
    inner: list[int] = []
    depth = 0

    def counted(*args, **kwargs) -> KleeneGrammar:
        nonlocal depth
        depth += 1
        try:
            out = _kleene(*args, **kwargs)
        finally:
            depth -= 1
        if depth == 0:
            inner.append(len(out.nonterminals))
        return out

    cfg_module._kleene = counted
    try:
        result = _kleene(cnf)
    finally:
        cfg_module._kleene = _kleene
    return len(cnf.nonterminals), cnf.alphabet.max_assigned_priority, inner, len(result.nonterminals)


def unsettled_acyclic_nfa(h: KleeneGrammar, max_states: int = DEFAULT_MAX_STATES) -> Nfa:
    """``cfg.acyclic_nfa`` with one state per stack, forced ε-moves kept.

    Every stack of open productions with their cursors that the preorder
    walk reaches is a state, plus None for the final state, and every
    raw step is a move.
    """
    by_head: dict[str, list[tuple]] = {}
    for lhs, rhs in h.productions:
        by_head.setdefault(lhs, []).append(rhs)

    def pushes(stack: tuple, nt: str) -> list:
        if any(f[0] == nt for f in stack):
            return []
        return [(None, stack + ((nt, j, 0),)) for j in range(len(by_head.get(nt, ())))]

    def successors(stack: tuple | None):
        if stack is None:
            return True, []
        if not stack:
            return False, pushes((), h.start)
        nt, j, pos = stack[-1]
        rhs = by_head[nt][j]
        if pos == len(rhs):
            if len(stack) == 1:
                return False, [(None, None)]
            pnt, pj, ppos = stack[-2]
            if by_head[pnt][pj][ppos][0] == STAR:
                return False, [(None, stack[:-1])]
            return False, [(None, stack[:-2] + ((pnt, pj, ppos + 1),))]
        kind, sym = rhs[pos]
        advanced = stack[:-1] + ((nt, j, pos + 1),)
        if kind == LIT:
            return False, [(sym, advanced)]
        if kind == NT:
            return False, pushes(stack, sym)
        return False, [(None, advanced)] + pushes(stack, sym)

    return _walk(h.alphabet, (), successors, max_states, "acyclic automaton")


def reference_to_cnf(g: Cfg) -> tuple[Cfg, bool]:
    """``cfg.to_cnf`` in the textbook order: the nullable symbols by a
    round-robin fixpoint, every head's unit chain collapsed, and only
    then the useless symbols pruned by ``pruned_cfg``.

    Normalize to binary rules for the empty-word-free language.

    Returns the normalized grammar together with a flag telling whether
    the original language contained the empty word.  The fresh start
    symbol never occurs on a right-hand side, and useless symbols are
    pruned.  An empty language comes back as a production-free grammar.
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

    # Remove empty rules, remembering whether the start was nullable.
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in step2:
            if lhs not in nullable and all(s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
    had_empty = start in nullable
    step3: set[tuple[str, tuple[str, ...]]] = set()
    for lhs, rhs in step2:
        options = [
            ((sym,), ()) if sym in nullable and sym not in letters else ((sym,),)
            for sym in rhs
        ]
        for picks in itertools.product(*options):
            flat = tuple(s for part in picks for s in part)
            if flat:
                step3.add((lhs, flat))

    # Collapse unit chains.
    unit_next: dict[str, set[str]] = {}
    solid: dict[str, set[tuple[str, ...]]] = {}
    for lhs, rhs in step3:
        if len(rhs) == 1 and rhs[0] not in letters:
            unit_next.setdefault(lhs, set()).add(rhs[0])
        else:
            solid.setdefault(lhs, set()).add(rhs)
    heads = {lhs for lhs, _ in step3}
    final: set[tuple[str, tuple[str, ...]]] = set()
    for lhs in heads:
        seen = {lhs}
        frontier = [lhs]
        while frontier:
            cur = frontier.pop()
            for rhs in solid.get(cur, ()):
                final.add((lhs, rhs))
            for nxt in unit_next.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)

    cnf = Cfg(g.alphabet, tuple(taken - letters), tuple(final), start)
    return pruned_cfg(cnf), had_empty


def reference_cfg_closure(g: Cfg, order: OrderKind, max_states: int = DEFAULT_MAX_STATES) -> Nfa:
    """``cfg.cfg_closure`` with the rebuild over the flattened alphabet
    in every order.

    NFA for the downward closure of the grammar's language under the order.

    The skeleton is the acyclic NFA of the grammar's Kleene closure
    grammar over the flattened alphabet, with the empty word added back
    when the grammar derives it.  It contains the language and lies
    inside its block closure, and each of its nonempty words lies
    absorbing-block-below a word of the language with the same last
    letter over the flattened alphabet, as the right marker keeps the
    tail after the last separator.  That is what
    ``automata.closure_regular`` requires, and it closes the skeleton in
    every order, after ``nfa_reduce``: a ring grammar's skeleton of
    823 states reduces to 10.
    """
    flat = flatten(g.alphabet)
    cnf, had_empty = to_cnf(replace(g, alphabet=flat))
    skeleton = nfa_for_words(flat, [])
    if cnf.productions:
        skeleton = acyclic_nfa(_kleene(cnf, max_states=max_states), max_states)
    if had_empty:
        skeleton = nfa_union(skeleton, nfa_for_words(flat, [()]))
    return closure_regular(nfa_reduce(replace(skeleton, alphabet=g.alphabet)), order, max_states)


def reference_merged_product(
    nfa: Nfa, t_initial: int, t_moves, max_states: int, what: str
) -> tuple[list, list[int]]:
    """Rows and finals of the NFA's image under a letter transducer, with
    the product states that lie on one epsilon cycle merged.

    Where transducer state t drops letter a in place, a move on a of the
    NFA is an epsilon move of the product that stays at t.  So the states
    (t, q) for q in one strongly connected component r of the NFA's graph
    of epsilon moves and such letters lie on one epsilon cycle, and share
    their epsilon closure.  The walk keys a state by (t, r), as t * n
    plus r's first member: the merged state takes its members' moves,
    less its epsilon loops, and is final if any member is.  An
    epsilon-closed subset holds all of a cycle or none of it, so every
    such subset keeps its language, and ``_minimal_dfa`` gives the DFA of
    the unmerged product of ``_product``.  Rows are grouped by label but
    unsorted, and nothing is trimmed: the subset construction and
    Hopcroft's refinement send dead states to the sink.  More than
    ``max_states`` merged states raise ResourceLimit naming ``what``.
    """
    adjacency = nfa.adjacency
    n = len(adjacency)
    n_final = bytearray(n)
    for q in nfa.finals:
        n_final[q] = 1
    by_state: dict[int, tuple] = {}
    by_drops: dict[frozenset, tuple[list[int], list[tuple[int, ...]]]] = {}
    memo: dict[int, tuple] = {}

    def merged(t: int) -> tuple:
        """Transducer state t's moves, then per NFA state the first member
        of its component at t, and per first member the component."""
        got = by_state.get(t)
        if got is None:
            moves = t_moves(t)
            in_place = frozenset(a for a, ms in moves[1].items() if (None, t) in ms)
            cycles = by_drops.get(in_place)
            if cycles is None:
                succ = [[*eps, *(d for a, ds in on if a in in_place for d in ds)]
                        for eps, on in adjacency]
                first = list(range(n))
                members = [(q,) for q in range(n)]
                for component in _components(succ):
                    r = component[0]
                    members[r] = tuple(component)
                    for q in component:
                        first[q] = r
                cycles = by_drops[in_place] = (first, members)
            got = by_state[t] = (moves, *cycles)
        return got

    def table(t: int) -> tuple:
        # a move carries its target's t * n and component map: the target key is that plus first[q]
        def targets(moves):
            return [(label, u * n, merged(u)[1]) for label, u in moves]

        (eps, on, final), first, members = merged(t)
        got = memo[t * n] = (targets(eps), {a: targets(ms) for a, ms in on.items()}, final, first, members)
        return got

    index = {t_initial * n + merged(t_initial)[1][nfa.initial]: 0}
    order = list(index)
    rows: list = []
    finals: list[int] = []

    def number(keys: set[int]) -> tuple[int, ...]:
        out = []
        for key in keys:
            i = index.get(key)
            if i is None:
                i = index[key] = len(order)
                order.append(key)
            out.append(i)
        return tuple(out)

    for key in order:
        r = key % n
        base = key - r
        t_eps, t_on, t_final, first, members = memo.get(base) or table(base // n)
        group = members[r]
        out: dict[str | None, set[int]] = defaultdict(set)
        for q in group:
            for label, b, u_first in t_eps:
                out[label].add(b + u_first[q])
            n_eps, n_on = adjacency[q]
            if n_eps:
                out[None].update([base + first[d] for d in n_eps])
            for letter, dsts in n_on:
                for label, b, u_first in t_on.get(letter, ()):
                    out[label].update([b + u_first[d] for d in dsts])
        eps_keys = out.pop(None, set())
        eps_keys.discard(key)
        rows.append((number(eps_keys), tuple([(a, number(ks)) for a, ks in out.items()])))
        if t_final and any(n_final[q] for q in group):
            finals.append(len(rows) - 1)
        if len(order) > max_states:
            raise ResourceLimit(f"{what} exceeded {max_states} states")
    return rows, finals


def reference_closure_bounded(
    words: Iterable[Word],
    order: OrderKind,
    alphabet: PriorityAlphabet,
    bound: int,
    check_cap: int = DEFAULT_CHECK_CAP,
) -> list[Word]:
    """Every word of length <= bound lying below some member of ``words``.

    All three orders refine the subword order, so candidates are drawn
    from the subwords of each member, one per choice of at most
    ``bound`` positions, and checked one by one.
    """
    members = {tuple(w) for w in words}
    out: set[Word] = set()
    checks = 0
    for v in sorted(members, key=_word_key):
        candidates = {
            tuple(v[i] for i in positions)
            for k in range(min(bound, len(v)) + 1)
            for positions in combinations(range(len(v)), k)
        }
        for u in candidates:
            if u in out:
                continue
            checks += 1
            if checks > check_cap:
                raise ResourceLimit(
                    f"closure_bounded exceeded {check_cap} order checks"
                )
            if leq(alphabet, order, u, v):
                out.add(u)
    return sorted(out, key=_word_key)
