"""The pump transducers against their definitions, word by word.

A pump transducer reads a seam-marked pump word u # v.  For every flat
alphabet with top priority at most 2 and one or two priority-0 letters,
and for every r, s and side, each transducer runs on
every such word with |u|, |v| <= 4.  Its set of outputs must be the one
its definition gives for the word:

- ``_ends_transducer(r, s)``: when u has top priority exactly r and v
  exactly s (at most zero for zero), the one word outer(u) # outer(v),
  where outer keeps a half's letters before its first separator and
  after its last one and puts the side's marker in between.  A half of
  priority zero becomes the bare marker.
- ``_repeat_transducer(r, s, side)``: when u has top priority exactly r
  and v exactly s, each run strictly between two adjacent separators of
  the half on ``side``.  For priority zero the runs are the half's single
  letters.

Runs of a transducer compose, so each run is split after the seam and
both parts are memoised: the outputs on u # v are those on u # followed
by those on v from the state the first part ends in.
"""

import itertools

import pytest

from prioclose.cfg import HatAlphabet, _ends_transducer, _repeat_transducer
from prioclose.core import PriorityAlphabet

MAX_HALF = 4


def flat_alphabet(top: int, zeros: int) -> PriorityAlphabet:
    entries = [(f"z{i}", 0) for i in range(zeros)]
    entries += [(f"p{k}", k) for k in range(1, top + 1)]
    return PriorityAlphabet(tuple(entries))


ALPHABETS = [(top, zeros) for top in range(3) for zeros in (1, 2)]


def top_priority(alphabet: PriorityAlphabet, half) -> int:
    return max((alphabet.priority(a) for a in half), default=0)


def outer(alphabet, half, pri: int, marker: str) -> set:
    if top_priority(alphabet, half) != pri:
        return set()
    if pri == 0:
        return {(marker,)}
    sep = alphabet.letters_of(pri)[0]
    first = half.index(sep)
    last = len(half) - 1 - half[::-1].index(sep)
    return {half[:first] + (marker,) + half[last + 1 :]}


def runs(alphabet, half, pri: int) -> set:
    if top_priority(alphabet, half) != pri:
        return set()
    if pri == 0:
        return {(a,) for a in half}
    sep = alphabet.letters_of(pri)[0]
    at = [i for i, a in enumerate(half) if a == sep]
    return {half[i + 1 : j] for i, j in zip(at, at[1:])}


class Runs:
    """All runs of a transducer, as (state, output) configurations."""

    def __init__(self, t):
        self.moves: dict = {}
        for src, consumed, emitted, dst in t.edges:
            self.moves.setdefault((src, consumed), []).append((emitted, dst))

    def close(self, configs: set) -> set:
        """Add what ε-edges reach; the pump transducers have no ε-cycle."""
        stack = list(configs)
        while stack:
            q, out = stack.pop()
            for emitted, dst in self.moves.get((q, ()), ()):
                if (dst, out + emitted) not in configs:
                    configs.add((dst, out + emitted))
                    stack.append((dst, out + emitted))
        return configs

    def read(self, state: str, word) -> set:
        configs = self.close({(state, ())})
        for a in word:
            configs = self.close({
                (dst, out + emitted)
                for q, out in configs
                for emitted, dst in self.moves.get((q, (a,)), ())
            })
        return configs


def halves(alphabet: PriorityAlphabet) -> list:
    return [
        w
        for n in range(MAX_HALF + 1)
        for w in itertools.product(alphabet.letters, repeat=n)
    ]


def check_against(t, hat: HatAlphabet, left_part, right_part) -> None:
    """Outputs of ``t`` on every u # v equal the definition's words, each
    a word of ``left_part(u)`` followed by one of ``right_part(v)``.

    Where neither the transducer nor the definition has any output for a
    half, no pair holding that half has one, so the pair is skipped.
    """
    runner = Runs(t)
    finals = set(t.finals)
    words = halves(hat.base)
    ends = {
        (state, v): {out for q, out in runner.read(state, v) if q in finals}
        for state in t.states
        for v in words
    }
    rights = {v: right_part(v) for v in words}
    live = [v for v in words if rights[v] or any(ends[q, v] for q in t.states)]
    for u in words:
        seamed = runner.read(t.initial, u + (hat.mid,))
        lefts = left_part(u)
        if not seamed and not lefts:
            continue
        for v in live:
            got = {out + rest for q, out in seamed for rest in ends[q, v]}
            assert got == {a + b for a in lefts for b in rights[v]}, (u, v)


@pytest.mark.parametrize("top, zeros", ALPHABETS)
def test_ends_transducer(top, zeros):
    hat = HatAlphabet.extend(flat_alphabet(top, zeros))
    base = hat.base
    for r, s in itertools.product(range(top + 1), repeat=2):
        check_against(
            _ends_transducer(hat, r, s),
            hat,
            lambda u: {left + (hat.mid,) for left in outer(base, u, r, hat.left)},
            lambda v: outer(base, v, s, hat.right),
        )


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("top, zeros", ALPHABETS)
def test_repeat_transducer(top, zeros, side):
    hat = HatAlphabet.extend(flat_alphabet(top, zeros))
    base = hat.base

    def part(half, pri, picked):
        if picked:
            return runs(base, half, pri)
        return {()} if top_priority(base, half) == pri else set()

    for r, s in itertools.product(range(top + 1), repeat=2):
        check_against(
            _repeat_transducer(hat, r, s, side),
            hat,
            lambda u: part(u, r, side == "left"),
            lambda v: part(v, s, side == "right"),
        )
