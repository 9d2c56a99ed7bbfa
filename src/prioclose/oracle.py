"""Brute-force bounded closures and acceptance comparisons.

The oracle works purely from enumerated word sets: it never trusts a
constructed automaton.  Every closure here is computed by checking the
order relation directly on each distinct subword of each enumerated
word, so it stays independent of the constructions it checks.
``nfa_enumerate`` and ``oca_enumerate`` are memoised and pruned by each
state's distance to acceptance, and ``cfg_enumerate`` is a semi-naive
fixpoint; none of them reads more of a constructed closure than its
own NFA, and none calls a closure construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from .core import (
    OrderKind,
    PriorityAlphabet,
    ResourceLimit,
    Word,
    _word_key,
    format_word,
    leq,
)

# Upper bound on order checks per closure computation.  Hitting it raises
# instead of silently returning a partial set.
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


def closure_bounded(
    words: Iterable[Word],
    order: OrderKind,
    alphabet: PriorityAlphabet,
    bound: int,
    check_cap: int = DEFAULT_CHECK_CAP,
) -> list[Word]:
    """Every word of length <= bound lying below some member of ``words``.

    All three orders refine the subword order, so candidates are drawn
    from the subwords of each member and checked one by one.
    """
    members = {tuple(w) for w in words}
    out: set[Word] = set()
    checks = 0
    for v in sorted(members, key=_word_key):
        for u in subwords_up_to(v, bound):
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
    # Late imports keep this module importable on its own.
    from .automata import Nfa, nfa_enumerate

    if isinstance(model, Nfa):
        return nfa_enumerate(model, bound)
    from .oca import Oca, SimpleOca, oca_enumerate

    if isinstance(model, (Oca, SimpleOca)):
        return oca_enumerate(model, bound, counter_cap)
    from .cfg import Cfg, cfg_enumerate

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
    from .automata import nfa_enumerate

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
