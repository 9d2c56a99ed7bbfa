"""One-counter automata and their downward-closure constructions.

``oca_closure`` builds a machine's skeleton NFA, which tracks counter
values inside its state space up to a polynomial cap, and ``automata``
closes it in every order; the bounded semantics used by tests and
oracles caps the counter explicitly instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Hashable, Iterable, Mapping

from .automata import (
    Nfa,
    _check_ends,
    _dot,
    _enumerate_walk,
    _letters_to_final,
    _name,
    _names,
    _parse_edge,
    _walk,
    closure_regular,
)
from .core import DEFAULT_MAX_STATES, OrderKind, PriorityAlphabet, Word


class CounterOp(str, Enum):
    INC = "inc"
    DEC = "dec"
    NOOP = "noop"
    ZERO = "zero"


class AcceptMode(str, Enum):
    ANY_COUNTER = "anyCounter"
    ZERO_COUNTER = "zeroCounter"


OcaEdge = tuple[str, str | None, CounterOp, str]


def _normalize_edges(edges, states, letters, allow_zero):
    known = set(states)
    out = []
    for src, label, op, dst in edges:
        op = CounterOp(op)
        if src not in known or dst not in known:
            raise ValueError(f"edge ({src!r}, {label!r}, {op.value}, {dst!r}) uses unknown state")
        if label is not None and label not in letters:
            raise ValueError(f"edge label {label!r} not in alphabet")
        if op is CounterOp.ZERO and not allow_zero:
            raise ValueError("zero tests are not allowed here")
        out.append((src, label, op, dst))
    return tuple(sorted(set(out), key=lambda e: (e[0], e[1] is not None, e[1] or "", e[2].value, e[3])))


@dataclass(frozen=True)
class Oca:
    """One-counter automaton; counter ops inc/dec/noop/zero per edge.

    acceptMode anyCounter accepts in a final state regardless of the
    counter; zeroCounter additionally requires counter value zero.
    """

    alphabet: PriorityAlphabet
    states: tuple[str, ...]
    edges: tuple[OcaEdge, ...]
    initial: str
    finals: tuple[str, ...]
    accept_mode: AcceptMode = AcceptMode.ANY_COUNTER

    def __post_init__(self) -> None:
        states = tuple(sorted(set(self.states)))
        _check_ends(states, self.initial, self.finals)
        finals = tuple(sorted(set(self.finals)))
        edges = _normalize_edges(
            self.edges, states, set(self.alphabet.letters), allow_zero=True
        )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "finals", finals)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "accept_mode", AcceptMode(self.accept_mode))


@dataclass(frozen=True)
class SimpleOca:
    """Counter automaton without zero tests; a single final state, and
    acceptance requires the counter to be zero there."""

    alphabet: PriorityAlphabet
    states: tuple[str, ...]
    edges: tuple[OcaEdge, ...]
    initial: str
    final: str

    def __post_init__(self) -> None:
        states = tuple(sorted(set(self.states)))
        _check_ends(states, self.initial, (self.final,))
        edges = _normalize_edges(
            self.edges, states, set(self.alphabet.letters), allow_zero=False
        )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "edges", edges)


def _machine_parts(machine: Oca | SimpleOca):
    if isinstance(machine, SimpleOca):
        return (
            machine.alphabet,
            machine.states,
            machine.edges,
            machine.initial,
            (machine.final,),
            AcceptMode.ZERO_COUNTER,
        )
    return (
        machine.alphabet,
        machine.states,
        machine.edges,
        machine.initial,
        machine.finals,
        machine.accept_mode,
    )


def _oca_adjacency(edges):
    adj: dict[str, list] = {}
    for src, label, op, dst in edges:
        adj.setdefault(src, []).append((label, op, dst))
    return adj


def _counter_cap(n_states: int, length: int) -> int:
    # soundness margin: pure-drain segments of a normalized run never
    # climb more than quadratically above the letter positions
    return n_states * n_states * (length + 2) + n_states + 1


def _apply_op(op: CounterOp, counter: int, cap: int) -> int | None:
    if op is CounterOp.INC:
        return counter + 1 if counter < cap else None
    if op is CounterOp.DEC:
        return counter - 1 if counter > 0 else None
    if op is CounterOp.ZERO:
        return 0 if counter == 0 else None
    return counter


def _simulator(machine: Oca | SimpleOca, counter_cap: int):
    """The machine's runs that keep the counter in [0, counter_cap].

    A configuration is a (state, counter) pair.  Returns the epsilon-closed
    set of initial configurations, ``step(configs, letter)``, which reads
    one letter and closes again, and ``accepted(configs)``.
    """
    if counter_cap < 0:
        raise ValueError(f"counter cap {counter_cap} is negative")
    _, _, edges, initial, finals, mode = _machine_parts(machine)
    adj = _oca_adjacency(edges)
    final_set = set(finals)

    def close(configs: frozenset) -> frozenset:
        seen = set(configs)
        stack = list(configs)
        while stack:
            state, counter = stack.pop()
            for label, op, dst in adj.get(state, ()):
                if label is not None:
                    continue
                nxt_counter = _apply_op(op, counter, counter_cap)
                if nxt_counter is None or (dst, nxt_counter) in seen:
                    continue
                seen.add((dst, nxt_counter))
                stack.append((dst, nxt_counter))
        return frozenset(seen)

    def accepted(configs: frozenset) -> bool:
        for state, counter in configs:
            if state in final_set and (
                mode is AcceptMode.ANY_COUNTER or counter == 0
            ):
                return True
        return False

    def step(configs: frozenset, letter: str) -> frozenset:
        stepped = set()
        for state, counter in configs:
            for label, op, dst in adj.get(state, ()):
                if label != letter:
                    continue
                nxt_counter = _apply_op(op, counter, counter_cap)
                if nxt_counter is not None:
                    stepped.add((dst, nxt_counter))
        return close(frozenset(stepped))

    return close(frozenset([(initial, 0)])), step, accepted


def oca_accepts_bounded(
    machine: Oca | SimpleOca, word: Iterable[str], counter_cap: int | None = None
) -> bool:
    """Whether an accepting run on the word keeps the counter <= cap.

    A negative cap raises ValueError.
    """
    word = tuple(word)
    if counter_cap is None:
        counter_cap = _counter_cap(len(machine.states), len(word))
    configs, step, accepted = _simulator(machine, counter_cap)
    for letter in word:
        configs = step(configs, letter)
        if not configs:
            return False
    return accepted(configs)


def oca_enumerate(
    machine: Oca | SimpleOca, bound: int, counter_cap: int | None = None
) -> list[Word]:
    """Accepted words of length <= bound, sorted by length then tokens.

    Runs keep the counter <= ``counter_cap``, which may not be negative.
    The walk over prefixes and their configuration sets is memoised and
    pruned as in ``nfa_enumerate``.
    """
    _, states, edges, _, finals, _ = _machine_parts(machine)
    if counter_cap is None:
        counter_cap = _counter_cap(len(states), bound)
    start, step, accepted = _simulator(machine, counter_cap)
    # Fewest letters from each state to a final one, ignoring counter
    # operations: every run is a path of the state graph, so this is a
    # lower bound on the letters left in either accept mode.
    dist = _letters_to_final(((src, label, dst) for src, label, _, dst in edges), finals)
    return _enumerate_walk(
        machine.alphabet.letters,
        start,
        step,
        lambda configs: min(
            (dist[state] for state, _ in configs if state in dist),
            default=float("inf"),
        ),
        accepted,
        bound,
    )


def _soca_moves(soca: SimpleOca):
    """Initial key and ``successors`` of the three-mode NFA sandwiched
    between the language and its block closure.

    Mode 1 simulates exactly while the counter stays <= K, the machine's
    state count; the increment crossing K switches to mode 2, which
    tracks it up to U = K^2+K+1 and may additionally run spontaneous
    state loops that ignore counter updates; a decrement from K+1 may
    switch to mode 3, which again simulates exactly below K.
    Spontaneous loops store the counter they froze so returning cannot
    jump it.

    The key (mode, q, c) is state q with counter c in mode 1, 2 or 3;
    (anchor, q, c) is a loop from state ``anchor`` that has reached q.
    """
    k = len(soca.states)
    cap_u = k * k + k + 1
    out = _oca_adjacency(soca.edges)

    def successors(key):
        mode, q, c = key
        if isinstance(mode, str):
            # spontaneous loops read letters but ignore counter updates
            moves = [(label, (mode, dst, c)) for label, _, dst in out.get(q, ())]
            if mode == q:
                moves.append((None, (2, q, c)))
            return False, moves
        top = cap_u if mode == 2 else k
        moves = []
        for label, op, dst in out.get(q, ()):
            if op is CounterOp.INC:
                if c < top:
                    moves.append((label, (mode, dst, c + 1)))
                elif mode == 1:
                    moves.append((label, (2, dst, k + 1)))
            elif op is CounterOp.DEC:
                if c > 0:
                    moves.append((label, (mode, dst, c - 1)))
                if mode == 2 and c == k + 1:
                    # nondeterministic door into the exact final descent
                    moves.append((label, (3, dst, k)))
            else:
                moves.append((label, (mode, dst, c)))
        if mode == 2:
            moves.append((None, (q, q, c)))
        return mode != 2 and q == soca.final and c == 0, moves

    return (1, soca.initial, 0), successors


def soca_closure_nfa(soca: SimpleOca, max_states: int = DEFAULT_MAX_STATES) -> Nfa:
    """Trimmed NFA of ``_soca_moves``; more than ``max_states`` states
    raise ResourceLimit."""
    return _walk(soca.alphabet, *_soca_moves(soca), max_states, "one-counter skeleton")


def _glue_nfa(oca: Oca | SimpleOca, max_states: int = DEFAULT_MAX_STATES) -> Nfa:
    """Skeleton of zero tests with closure-approximating pieces glued in.

    Pieces are the three-mode NFAs of the zero-test-free fragments
    between zero configurations, each trimmed to the states on a path
    from its source to its sink; anyCounter acceptance routes drained
    variants (a spontaneous discarding decrement at the final state)
    into one fresh global final.

    The key ("z", q) is state q at a zero configuration, (i, k) is key k
    of piece i's ``_soca_moves``, and None is the global final.  One walk
    explores the pieces with the rest; the result is trimmed, and
    ``max_states`` caps it.
    """
    alphabet, states, edges, initial, finals, mode = _machine_parts(oca)
    zero_free = tuple(e for e in edges if e[2] is not CounterOp.ZERO)
    zero_edges = tuple(e for e in edges if e[2] is CounterOp.ZERO)

    zero_finals = set(finals) if mode is AcceptMode.ZERO_COUNTER else set()
    sources = {initial} | {dst for _, _, _, dst in zero_edges}
    sinks = {src for src, _, _, _ in zero_edges} | zero_finals
    # per zero-configuration state: its zero-test moves, then piece entries
    zero_moves: dict[str, list[tuple[str | None, Hashable]]] = {q: [] for q in states}
    for src, label, _, dst in zero_edges:
        zero_moves[src].append((label, ("z", dst)))
    pieces: list[tuple[Callable, Hashable]] = []  # successors, exit
    # reach from each source and to each sink; a drained loop f -> f changes neither
    back = [(src, label, dst) for src, label, _, dst in zero_free]
    ahead = [(dst, label, src) for src, label, dst in back]
    fwd = {p: _letters_to_final(ahead, [p]).keys() for p in sources}
    bwd = {q: _letters_to_final(back, [q]).keys() for q in sinks | set(finals)}

    def glue(p: str, q: str, extra: tuple[OcaEdge, ...], exit_key: Hashable) -> None:
        keep = fwd[p] & bwd[q]
        if q in keep:
            kept = tuple(e for e in zero_free if e[0] in keep and e[3] in keep) + extra
            start, moves = _soca_moves(SimpleOca(alphabet, tuple(keep), kept, p, q))
            zero_moves[p].append((None, (len(pieces), start)))
            pieces.append((moves, exit_key))

    for p in sorted(sources):
        for q in sorted(sinks):
            glue(p, q, (), ("z", q))
    if mode is AcceptMode.ANY_COUNTER:
        for p in sorted(sources):
            for f in finals:
                glue(p, f, ((f, None, CounterOp.DEC, f),), None)

    def successors(key):
        if key is None:
            return True, []
        i, q = key
        if i == "z":
            return q in zero_finals, zero_moves[q]
        piece_moves, exit_key = pieces[i]
        final, targets = piece_moves(q)
        moves = [(label, (i, dst)) for label, dst in targets]
        if final:
            moves.append((None, exit_key))
        return False, moves

    return _walk(alphabet, ("z", initial), successors, max_states, "glued one-counter skeleton")


def oca_closure(
    oca: Oca | SimpleOca, order: OrderKind, max_states: int = DEFAULT_MAX_STATES
) -> Nfa:
    """NFA for the downward closure of the machine's language under the order.

    The skeleton is the machine's glued skeleton.  It contains the
    language, the empty word included when the machine accepts it, and
    lies inside its block closure, and each of its nonempty words lies
    absorbing-block-below a word of the language with the same last
    letter, as the glue repeats a run's cycles in place.  The glue
    construction never reads priorities, so this holds over the
    flattened alphabet as well.  That is what
    ``automata.closure_regular`` requires, and it closes the skeleton in
    every order.
    """
    return closure_regular(_glue_nfa(oca, max_states), order, max_states)


oca_block_closure = partial(oca_closure, order=OrderKind.BLOCK)
oca_priority_closure = partial(oca_closure, order=OrderKind.PRIORITY)


def oca_serialize(oca: Oca) -> dict:
    return {
        "states": list(oca.states),
        "initial": oca.initial,
        "finals": list(oca.finals),
        "acceptMode": oca.accept_mode.value,
        "edges": [[src, label, op.value, dst] for src, label, op, dst in oca.edges],
    }


def _counter_edges(raw_edges) -> tuple[OcaEdge, ...]:
    """Edges checked by ``_parse_edge``, each counter operation read as a CounterOp."""
    edges = []
    for src, label, op, dst in raw_edges:
        try:
            op = CounterOp(op)
        except ValueError as exc:
            raise ValueError(f"unknown counter op {op!r}") from exc
        edges.append((src, label, op, dst))
    return tuple(edges)


def oca_parse(data: Mapping, alphabet: PriorityAlphabet) -> Oca:
    try:
        states = _names(data["states"], "state")
        initial = _name(data["initial"], "state")
        finals = _names(data["finals"], "state")
        mode = data["acceptMode"]
        raw_edges = tuple(_parse_edge(item, 4) for item in data["edges"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed oca data: {exc}") from exc
    try:
        mode = AcceptMode(mode)
    except ValueError as exc:
        raise ValueError(f"unknown acceptMode {mode!r}") from exc
    return Oca(alphabet, states, _counter_edges(raw_edges), initial, finals, mode)


def _parse_simple_oca(data: Mapping, alphabet: PriorityAlphabet) -> SimpleOca:
    try:
        states = _names(data["states"], "state")
        initial = _name(data["initial"], "state")
        final = _name(data["final"], "state")
        raw_edges = tuple(_parse_edge(item, 4) for item in data["edges"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed simple counter automaton: {exc}") from exc
    return SimpleOca(alphabet, states, _counter_edges(raw_edges), initial, final)


def oca_to_dot(oca: Oca, name: str = "oca") -> str:
    edges = [
        (src, dst, f"{'&epsilon;' if a is None else a} / {op.value}")
        for src, a, op, dst in oca.edges
    ]
    return _dot(name, oca.states, oca.initial, set(oca.finals), edges)
