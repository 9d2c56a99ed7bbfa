"""Priority alphabets, word orders, and block decompositions.

Words are tuples of letter tokens.  Three orders are provided: the plain
subword order, the priority order (dropped letters must not outrank the
next kept letter, and the last letter is never dropped), and the block
order (words are split at their highest-priority letters and the pieces
are embedded recursively, first block to first block, last to last).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping

Word = tuple[str, ...]

EMPTY_WORD: Word = ()


def _word_key(word: Word) -> tuple[int, Word]:
    """Shortlex order: shorter words first, then lexicographic by letter."""
    return (len(word), word)


class OrderKind(str, Enum):
    SUBWORD = "subword"
    PRIORITY = "priority"
    BLOCK = "block"


class ResourceLimit(RuntimeError):
    """Raised when a computation would exceed an explicit resource cap."""


# The cap on states per intermediate automaton when a caller names none.
DEFAULT_MAX_STATES = 1_000_000


@dataclass(frozen=True)
class PriorityAlphabet:
    """Finite set of letter tokens, each carrying a priority in [0, d].

    Letters must be distinct non-empty strings.  ``d`` is the largest
    priority actually assigned.  Instances are immutable and hashable.
    """

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for letter, pri in self.entries:
            if not isinstance(letter, str) or not letter:
                raise ValueError(f"bad letter {letter!r}")
            # bool is an int subclass, but JSON true is no priority
            if isinstance(pri, bool) or not isinstance(pri, int) or pri < 0:
                raise ValueError(f"bad priority {pri!r} for letter {letter!r}")
            if letter in seen:
                raise ValueError(f"duplicate letter {letter!r}")
            seen.add(letter)
        ordered = tuple(sorted(self.entries))
        object.__setattr__(self, "entries", ordered)
        object.__setattr__(self, "_pri", dict(ordered))

    @classmethod
    def from_map(cls, priorities: Mapping[str, int]) -> "PriorityAlphabet":
        return cls(tuple(priorities.items()))

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(letter for letter, _ in self.entries)

    @property
    def max_assigned_priority(self) -> int:
        """Largest priority carried by any letter (0 for an empty alphabet)."""
        return max((pri for _, pri in self.entries), default=0)

    def priority(self, letter: str) -> int:
        try:
            return self._pri[letter]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"letter {letter!r} not in alphabet") from None

    def __contains__(self, letter: str) -> bool:
        return letter in self._pri  # type: ignore[attr-defined]

    def letters_of(self, pri: int) -> tuple[str, ...]:
        return tuple(l for l, p in self.entries if p == pri)

    def validate_word(self, w: Iterable[str]) -> Word:
        word = tuple(w)
        pri = self._pri  # type: ignore[attr-defined]
        for letter in word:
            if letter not in pri:
                raise ValueError(f"letter {letter!r} not in alphabet")
        return word

    def to_json(self) -> str:
        items = sorted(self.entries, key=lambda e: (e[1], e[0]))
        return json.dumps(
            {"letters": [{"symbol": l, "priority": p} for l, p in items]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "PriorityAlphabet":
        try:
            data = json.loads(text)
            entries = tuple(
                (item["symbol"], item["priority"]) for item in data["letters"]
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed alphabet JSON: {exc}") from exc
        return cls(entries)


@dataclass(frozen=True)
class BlockDecomposition:
    """Split of a word at its priority-``level`` letters.

    ``blocks`` holds the maximal factors of strictly lower priority and
    ``separators`` the level letters between them, so there is always one
    more block than separators.  The empty word decomposes into a single
    empty block.
    """

    blocks: tuple[Word, ...]
    separators: Word
    level: int

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.separators) + 1:
            raise ValueError("block count must exceed separator count by one")


def parse_word(text: str) -> Word:
    """Parse a comma-separated token list; the empty string is the empty word."""
    if text == "":
        return EMPTY_WORD
    parts = text.split(",")
    tokens = tuple(part.strip() for part in parts)
    if any(not tok for tok in tokens):
        raise ValueError(f"malformed word {text!r}")
    return tokens


def format_word(w: Word) -> str:
    return ",".join(w)


def max_priority(alphabet: PriorityAlphabet, w: Iterable[str]) -> int:
    """Largest priority occurring in ``w``, or -1 for the empty word."""
    word = tuple(w)
    if not word:
        return -1
    return max(alphabet.priority(letter) for letter in word)


def block_decompose(alphabet: PriorityAlphabet, w: Iterable[str], p: int) -> BlockDecomposition:
    """Split ``w`` at its priority-``p`` letters.

    Every letter of ``w`` must have priority at most ``p``.
    """
    if p < 0:
        raise ValueError("decomposition level must be non-negative")
    word = alphabet.validate_word(w)
    pri = alphabet._pri  # type: ignore[attr-defined]
    for letter in word:
        if pri[letter] > p:
            raise ValueError(f"letter {letter!r} has priority {pri[letter]}, above level {p}")
    blocks, separators = _split(pri, word, p)
    return BlockDecomposition(tuple(blocks), tuple(separators), p)


def is_subword(u: Iterable[str], v: Iterable[str]) -> bool:
    """Greedy check that ``u`` embeds in ``v`` by dropping letters."""
    uu, vv = tuple(u), tuple(v)
    i = 0
    for letter in vv:
        if i < len(uu) and uu[i] == letter:
            i += 1
    return i == len(uu)


def leq_priority(alphabet: PriorityAlphabet, u: Iterable[str], v: Iterable[str]) -> bool:
    """Priority order: embed ``u`` in ``v`` dropping only low-priority letters.

    A letter of ``v`` may be dropped only if its priority does not exceed
    that of the next letter of ``u`` still to be matched, and nothing may
    be dropped after the whole of ``u`` has been matched (so a non-empty
    ``u`` must be matched up to the final letter of ``v``).  The empty
    word is below everything.

    A greedy match is unsound here: matching the earliest occurrence can
    strand a later high-priority letter that an alternative alignment
    would have kept, so all partially matched prefixes are tracked.
    """
    uu = alphabet.validate_word(u)
    vv = alphabet.validate_word(v)
    if not uu:
        return True
    table = alphabet._pri  # type: ignore[attr-defined]
    upri = [table[letter] for letter in uu]
    k = len(uu)
    states = {0}
    for letter in vv:
        pri = table[letter]
        nxt = set()
        for i in states:
            if i < k:
                if uu[i] == letter:
                    nxt.add(i + 1)
                if pri <= upri[i]:
                    nxt.add(i)
        states = nxt
        if not states:
            return False
    return k in states


def leq_block(alphabet: PriorityAlphabet, u: Iterable[str], v: Iterable[str]) -> bool:
    """Block order: recursive block embedding anchored at both ends.

    For words of equal maximal priority p >= 1, both are decomposed at
    their p letters; a strictly monotone witness map must send block 0 to
    block 0 and the last block to the last block, every block of ``u``
    must recursively embed in its image, and each separator of ``u`` must
    reappear as a separator of ``v`` inside the window its neighbouring
    blocks map to.  Words of maximal priority 0 compare as subwords, and
    the empty word lies below exactly the words with no letter of
    positive priority; that same rule applies uniformly to empty blocks
    inside the recursion, which is what makes the order multiplicative.
    """
    uu = alphabet.validate_word(u)
    vv = alphabet.validate_word(v)
    return _leq_block(alphabet, uu, vv)


def _split(pri: Mapping[str, int], word: Word, p: int) -> tuple[list[Word], list[str]]:
    """Blocks and separators of ``word`` at level ``p``, unvalidated."""
    blocks: list[Word] = []
    separators: list[str] = []
    start = 0
    for i, letter in enumerate(word):
        if pri[letter] == p:
            blocks.append(word[start:i])
            separators.append(letter)
            start = i + 1
    blocks.append(word[start:])
    return blocks, separators


@lru_cache(maxsize=1 << 20)
def _leq_block(alphabet: PriorityAlphabet, u: Word, v: Word) -> bool:
    # Both words are validated by leq_block, so priorities are read
    # straight from the alphabet's table here.
    pri = alphabet._pri  # type: ignore[attr-defined]
    if not u:
        return all(pri[letter] <= 0 for letter in v)
    p = max(pri[letter] for letter in u)
    if not v or p != max(pri[letter] for letter in v):
        return False
    if p == 0:
        return is_subword(u, v)
    ub, us = _split(pri, u, p)
    vb, vs = _split(pri, v, p)
    n, m = len(us), len(vs)
    if n > m:
        return False

    # reach holds the feasible images of the last placed block boundary
    reach = {0} if _leq_block(alphabet, ub[0], vb[0]) else set()
    for i in range(n):
        token = us[i]
        block = ub[i + 1]
        nxt: set[int] = set()
        for j in reach:
            for t in range(j, m):
                if vs[t] != token:
                    continue
                for j2 in range(t + 1, m + 1):
                    if j2 not in nxt and _leq_block(alphabet, block, vb[j2]):
                        nxt.add(j2)
        if not nxt:
            return False
        reach = nxt
    return m in reach


def flatten(alphabet: PriorityAlphabet) -> PriorityAlphabet:
    """Reassign distinct priorities 1..n preserving the existing order.

    Letters are ranked by (priority, letter), so ties within a priority
    class break lexicographically.
    """
    ranked = sorted(alphabet.entries, key=lambda e: (e[1], e[0]))
    return PriorityAlphabet(
        tuple((letter, rank) for rank, (letter, _) in enumerate(ranked, start=1))
    )


def leq(alphabet: PriorityAlphabet, order: OrderKind, u: Iterable[str], v: Iterable[str]) -> bool:
    if order is OrderKind.SUBWORD:
        return is_subword(alphabet.validate_word(u), alphabet.validate_word(v))
    if order is OrderKind.PRIORITY:
        return leq_priority(alphabet, u, v)
    if order is OrderKind.BLOCK:
        return leq_block(alphabet, u, v)
    raise ValueError(f"unknown order {order!r}")
