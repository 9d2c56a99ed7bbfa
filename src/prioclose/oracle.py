"""Brute-force bounded closures and acceptance comparisons.

The oracle works purely from enumerated word sets: it never trusts a
constructed automaton.  Every closure here is the union of the bounded
down-sets of the enumerated words, and each down-set is generated
straight from the order's definition (which letters may be dropped, and
how blocks map), so it stays independent of the constructions it
checks.  ``nfa_enumerate`` and ``oca_enumerate`` are memoised and pruned
by each state's distance to acceptance, and ``cfg_enumerate`` is a
semi-naive fixpoint; none of them reads more of a constructed closure
than its own NFA, and none calls a closure construction.

A closure call builds its down-sets in one sorted walk over the
members.  In subword and priority order the members are sorted by
reversed word and each suffix's down-set is built from the next
shorter suffix's, so a member starts from the longest suffix it shares
with the member before it.  In block order each top level's members
are sorted by word, and a member resumes from the state after the last
block boundary it shares with the member before it.  Besides the
members and the result, memory is one path of such states, plus the
down-sets of inner blocks, memoised per word within the call.
``check_cap`` counts the steps taken, so a shared step counts once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Mapping

from .automata import Nfa, nfa_enumerate
from .cfg import Cfg, cfg_enumerate
from .core import (
    OrderKind,
    PriorityAlphabet,
    ResourceLimit,
    Word,
    _word_key,
    format_word,
)
from .oca import Oca, SimpleOca, oca_enumerate

# Upper bound on the generation steps of one closure computation: the
# words extended or kept, and the (prefix, block word) pairs tried while
# down-sets are built.  Hitting it raises instead of silently returning
# a partial set, and stops a blow-up before its product is built.
DEFAULT_CHECK_CAP = 20_000_000

Spend = Callable[[int], None]


def _walk_from_right(
    members: Collection[Word], step: Callable[[str, set[Word]], set[Word]]
) -> set[Word]:
    """The union of the members' down-sets, members sorted by reversed word.

    ``step(a, down)`` gives a.w's set from w's set, and ε's set is
    {ε}.  ``path[k]`` holds the set of the current member's suffix of
    length k, and the next member keeps the entries of the suffix it
    shares.
    """
    if len(members) == 1:  # nothing to sort or share
        (v,) = members
        down = {()}
        for a in reversed(v):
            down = step(a, down)
        return down
    union: set[Word] = set()
    path: list[set[Word]] = [{()}]
    prev: Word = ()
    for r in sorted(v[::-1] for v in members):
        shared = 0
        for a, b in zip(r, prev):
            if a != b:
                break
            shared += 1
        del path[shared + 1:]
        down = path[-1]
        for a in r[shared:]:
            down = step(a, down)
            path.append(down)
        union |= down
        prev = r
    return union


def _subword_walk(members: Collection[Word], bound: int, spend: Spend) -> set[Word]:
    """The members' subwords of length at most ``bound``: a nonempty
    subword of a.w is a subword of w, or a followed by one."""

    def step(a: str, down: set[Word]) -> set[Word]:
        spend(len(down))
        return down | {(a,) + u for u in down if len(u) < bound}

    return _walk_from_right(members, step)


def _priority_walk(
    members: Collection[Word], bound: int, pri: Mapping[str, int], spend: Spend
) -> set[Word]:
    """The words u <= v in priority order with |u| <= bound for some
    member v, ε only when ε is a member.

    A nonempty u is below a.w either as a.u' with u' below w, or as u
    itself when u is below w and a may be dropped before u's first
    letter (pri(a) <= pri(u[0])).  Nothing may be dropped once u is
    matched, so ε is below the empty suffix only.
    """

    def step(a: str, down: set[Word]) -> set[Word]:
        spend(len(down))
        pa = pri[a]
        out = {u for u in down if u and pa <= pri[u[0]]}
        out.update((a,) + u for u in down if len(u) < bound)
        return out

    return _walk_from_right(members, step)


def _block_walk(
    members: Collection[Word],
    p: int,
    bound: int,
    pri: Mapping[str, int],
    down_of: Callable[[Word], set[Word]],
    spend: Spend,
) -> set[Word]:
    """The words u <= w in block order with |u| <= bound for some member
    w, all members of top priority p >= 1, taken in sorted order.

    u's first block maps to w's first block, its last block to w's last
    one, and each separator of u to a separator of w between the images
    of its neighbouring blocks, each block below its image (its set is
    ``down_of(block)``).  After block j, ``done`` holds the partial
    words whose last block maps to a block before j, ``ends`` those that
    then end in a separator of w before block j, and ``part`` those
    whose last block maps to block j.  ``path`` holds (end of block j,
    done, ends, part) for each block of the current member, and the
    next member keeps an entry when it shares the prefix up to that end
    and has a separator or its own end there too.
    """
    union: set[Word] = set()
    path: list[tuple[int, set[Word], set[Word], set[Word]]] = []
    prev: Word = ()
    for w in sorted(members):
        shared = 0
        for a, b in zip(w, prev):
            if a != b:
                break
            shared += 1
        boundary = shared == len(w) or pri[w[shared]] == p
        while path and (path[-1][0] > shared or (path[-1][0] == shared and not boundary)):
            path.pop()
        cuts = [i for i, a in enumerate(w) if pri[a] == p] + [len(w)]
        if not path:
            path.append((cuts[0], set(), set(), down_of(w[:cuts[0]])))
        start, done, ends, part = path[-1]
        for end in cuts:
            if end <= start:
                continue
            sep = (w[start],)
            done = done | part
            spend(len(done))
            ends = ends | {d + sep for d in done if len(d) < bound}
            inner = down_of(w[start + 1:end])
            spend(len(ends) * len(inner))
            part = {e + c for e in ends for c in inner if len(e) + len(c) <= bound}
            path.append((end, done, ends, part))
            start = end
        union |= part
        prev = w
    return union


def subwords_up_to(word: Word, bound: int) -> set[Word]:
    """All scattered subwords of ``word`` of length at most ``bound``.

    The one-member case of the oracle's subword walk: built letter by
    letter, so each distinct subword is made once rather than once per
    choice of positions.
    """
    if bound < 0:
        return set()
    return _subword_walk([word], bound, lambda steps: None)


def _closure_set(
    words: Iterable[Word],
    order: OrderKind,
    alphabet: PriorityAlphabet,
    bound: int,
    check_cap: int = DEFAULT_CHECK_CAP,
) -> set[Word]:
    """``closure_bounded`` as an unsorted set."""
    if bound < 0:
        return set()
    members = {alphabet.validate_word(w) for w in words}
    if not members:
        return set()
    pri = alphabet._pri  # type: ignore[attr-defined]
    left = check_cap

    def spend(steps: int) -> None:
        nonlocal left
        left -= steps
        if left < 0:
            raise ResourceLimit(
                f"closure_bounded exceeded {check_cap} generation steps"
            )

    if order is OrderKind.SUBWORD:
        return _subword_walk(members, bound, spend)
    if order is OrderKind.PRIORITY:
        out = _priority_walk(members, bound, pri, spend)
        out.add(())
        return out
    if order is not OrderKind.BLOCK:
        raise ValueError(f"unknown order {order!r}")
    memo: dict[Word, set[Word]] = {(): {()}}

    def level(v: Word) -> int:
        return max(map(pri.__getitem__, v), default=0)

    def walk(vs: Collection[Word], p: int) -> set[Word]:
        if p == 0:
            return _subword_walk(vs, bound, spend)
        return _block_walk(vs, p, bound, pri, down_of, spend)

    def down_of(block: Word) -> set[Word]:
        got = memo.get(block)
        if got is None:
            got = memo[block] = walk([block], level(block))
        return got

    levels: dict[int, list[Word]] = {}
    for v in members:
        levels.setdefault(level(v), []).append(v)
    out = set()
    for p, vs in levels.items():
        out |= walk(vs, p)
    return out


def closure_bounded(
    words: Iterable[Word],
    order: OrderKind,
    alphabet: PriorityAlphabet,
    bound: int,
    check_cap: int = DEFAULT_CHECK_CAP,
) -> list[Word]:
    """Every word of length <= bound lying below some member of ``words``,
    in shortlex order.

    The result is the union of the members' bounded down-sets, each
    generated from the order's definition, never by testing a candidate
    with ``leq``.  One sorted walk over the members builds them:
    subword and priority order extend each suffix's set by one letter,
    from the longest suffix the member shares with the one before it,
    and block order resumes each top level's members from the last
    block boundary they share, with inner blocks memoised per word.
    Memory is one path of states plus that memo, and ``check_cap``
    counts the generation steps taken, each shared step once.  A
    negative bound gives [], a letter outside the alphabet or an
    unknown order raises ValueError, and more than ``check_cap``
    generation steps raise ResourceLimit.
    """
    return sorted(_closure_set(words, order, alphabet, bound, check_cap), key=_word_key)


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of comparing a constructed closure against the oracle.

    ``equal`` holds exactly when both difference lists are empty.
    ``missing_words`` are oracle words the construction lacks;
    ``extra_words`` are constructed words the oracle rejects.
    """

    model: str
    order: OrderKind
    bound: int
    dom_bound: int
    missing_words: tuple[Word, ...]
    extra_words: tuple[Word, ...]
    elapsed_seconds: float = field(default=0.0)

    @property
    def equal(self) -> bool:
        return not self.missing_words and not self.extra_words

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "order": self.order.value,
            "bound": self.bound,
            "domBound": self.dom_bound,
            "equal": self.equal,
            "missingWords": [format_word(w) for w in self.missing_words],
            "extraWords": [format_word(w) for w in self.extra_words],
            "elapsedSeconds": round(self.elapsed_seconds, 3),
        }


def _enumerate_model(model, bound: int, counter_cap: int | None = None) -> list[Word]:
    """The model's words up to ``bound``; ``counter_cap`` is passed to
    ``oca_enumerate`` and ignored for other kinds."""
    if isinstance(model, Nfa):
        return nfa_enumerate(model, bound)
    if isinstance(model, (Oca, SimpleOca)):
        return oca_enumerate(model, bound, counter_cap)
    if isinstance(model, Cfg):
        return cfg_enumerate(model, bound)
    raise TypeError(f"cannot enumerate model of type {type(model).__name__}")


def check_bounds(bound: int, dom_bound: int | None = None) -> int:
    """The dominator bound to use, twice ``bound`` unless given.

    Raises ValueError for a negative bound, and for a dominator bound
    below the comparison bound, which would miss dominators of the
    longest compared words.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if dom_bound is None:
        dom_bound = 2 * bound
    if dom_bound < bound:
        raise ValueError("dominator bound must be at least the comparison bound")
    return dom_bound


def compare_closure(
    model,
    order: OrderKind,
    constructed,
    bound: int,
    dom_bound: int | None = None,
    model_id: str | None = None,
) -> ClosureReport:
    """Compare a constructed closure automaton against the brute oracle.

    The oracle set is the bounded closure of the model's words enumerated
    to ``dom_bound`` (twice ``bound`` unless given); the constructed set
    is the automaton's language enumerated to ``bound``.  A dominator for
    a short closure word can be longer than the word itself, which is why
    the model is enumerated deeper than the comparison bound.  Bounds
    that ``check_bounds`` rejects raise ValueError.
    """
    dom_bound = check_bounds(bound, dom_bound)
    start = time.monotonic()
    alphabet = constructed.alphabet
    expected = _closure_set(_enumerate_model(model, dom_bound), order, alphabet, bound)
    actual = set(nfa_enumerate(constructed, bound))
    elapsed = time.monotonic() - start
    return ClosureReport(
        model=model_id if model_id is not None else type(model).__name__,
        order=order,
        bound=bound,
        dom_bound=dom_bound,
        missing_words=tuple(sorted(expected - actual, key=_word_key)),
        extra_words=tuple(sorted(actual - expected, key=_word_key)),
        elapsed_seconds=elapsed,
    )
