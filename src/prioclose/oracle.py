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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .automata import Nfa, nfa_enumerate
from .cfg import Cfg, cfg_enumerate
from .core import (
    OrderKind,
    PriorityAlphabet,
    ResourceLimit,
    Word,
    _split,
    _word_key,
    format_word,
)
from .oca import Oca, SimpleOca, oca_enumerate

# Upper bound on the generation steps of one closure computation: the
# words extended or kept, and the (prefix, block word) pairs tried while
# down-sets are built.  Hitting it raises instead of silently returning
# a partial set, and stops a blow-up before its product is built.
DEFAULT_CHECK_CAP = 20_000_000


def subwords_up_to(word: Word, bound: int) -> set[Word]:
    """All scattered subwords of ``word`` of length at most ``bound``.

    Built letter by letter, so each distinct subword is made once rather
    than once per choice of positions.
    """
    if bound < 0:
        return set()
    out: set[Word] = {()}
    for letter in word:
        out |= {u + (letter,) for u in out if len(u) < bound}
    return out


def _priority_down(
    v: Word,
    bound: int,
    pri: Mapping[str, int],
    memo: dict[Word, set[Word]],
    spend: Callable[[int], None],
) -> set[Word]:
    """The words u <= v in priority order with |u| <= bound, ε only for v = ε.

    Built from the right: a nonempty u is below a.w either as a.u' with
    u' below w, or as u itself when u is below w and a may be dropped
    before u's first letter (pri(a) <= pri(u[0])).  Nothing may be
    dropped once u is matched, so ε is below the empty suffix only.
    ``memo`` holds each suffix's set and starts as {(): {()}}.
    """
    i = len(v)
    while i and v[i - 1:] in memo:
        i -= 1
    down = memo[v[i:]]
    for k in range(i - 1, -1, -1):
        a = v[k]
        pa = pri[a]
        spend(len(down))
        step = {u for u in down if u and pa <= pri[u[0]]}
        step.update((a,) + u for u in down if len(u) < bound)
        memo[v[k:]] = down = step
    return down


def _block_down(
    w: Word,
    bound: int,
    pri: Mapping[str, int],
    memo: dict[Word, set[Word]],
    spend: Callable[[int], None],
) -> set[Word]:
    """The words u <= w in block order with |u| <= bound.

    At w's top priority p >= 1, u's first block maps to w's first
    block, its last block to w's last one, and each separator of u to a
    separator of w between the images of its neighbouring blocks, each
    block recursively below its image.  ``done`` holds the partial words
    whose last block maps to a block before separator j-1, ``ends``
    those that then end in a separator of w up to j-1, and ``part`` those
    whose last block maps to block j.
    """
    got = memo.get(w)
    if got is not None:
        return got
    p = max((pri[a] for a in w), default=0)
    if p == 0:
        down = subwords_up_to(w, bound)
        spend(len(down))
    else:
        blocks, separators = _split(pri, w, p)
        part = _block_down(blocks[0], bound, pri, memo, spend)
        done: set[Word] = set()
        ends: set[Word] = set()
        for j in range(1, len(blocks)):
            done |= part
            sep = (separators[j - 1],)
            spend(len(done))
            ends.update(d + sep for d in done if len(d) < bound)
            inner = _block_down(blocks[j], bound, pri, memo, spend)
            spend(len(ends) * len(inner))
            part = {e + c for e in ends for c in inner if len(e) + len(c) <= bound}
        down = part
    memo[w] = down
    return down


def closure_bounded(
    words: Iterable[Word],
    order: OrderKind,
    alphabet: PriorityAlphabet,
    bound: int,
    check_cap: int = DEFAULT_CHECK_CAP,
) -> list[Word]:
    """Every word of length <= bound lying below some member of ``words``.

    The result is the union of the members' bounded down-sets, each
    generated from the order's definition: all subwords for the subword
    order, ``_priority_down`` and ``_block_down`` for the others.  No
    candidate is tested with ``leq``.  A negative bound gives [], a
    letter outside the alphabet or an unknown order raises ValueError,
    and more than ``check_cap`` generation steps raise ResourceLimit.
    """
    if bound < 0:
        return []
    members = {alphabet.validate_word(w) for w in words}
    if not members:
        return []
    pri = alphabet._pri  # type: ignore[attr-defined]
    left = check_cap

    def spend(steps: int) -> None:
        nonlocal left
        left -= steps
        if left < 0:
            raise ResourceLimit(
                f"closure_bounded exceeded {check_cap} generation steps"
            )

    out: set[Word] = set()
    if order is OrderKind.SUBWORD:
        for v in members:
            down = subwords_up_to(v, bound)
            spend(len(down))
            out |= down
    elif order is OrderKind.PRIORITY:
        memo: dict[Word, set[Word]] = {(): {()}}
        for v in members:
            out |= _priority_down(v, bound, pri, memo, spend)
        out.add(())
    elif order is OrderKind.BLOCK:
        memo = {}
        for v in members:
            out |= _block_down(v, bound, pri, memo, spend)
    else:
        raise ValueError(f"unknown order {order!r}")
    return sorted(out, key=_word_key)


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
    expected = set(
        closure_bounded(_enumerate_model(model, dom_bound), order, alphabet, bound)
    )
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
