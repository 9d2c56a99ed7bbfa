"""Word sets of automata in the CLI's JSON format, for the untimed checks.

This is the benchmark's own reading of an NFA, independent of the
package: states become integers, and enumeration drops every subset
that cannot reach a final state within the letters left, so it only
explores prefixes of accepted words.  Nothing here imports ``prioclose``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

Word = tuple[str, ...]


class Automaton:
    """An NFA read from ``{"states", "initial", "finals", "edges"}``."""

    def __init__(self, data: dict, letters):
        index = {q: i for i, q in enumerate(data["states"])}
        n = len(index)
        self.letters = tuple(sorted(letters))
        self.eps: list[list[int]] = [[] for _ in range(n)]
        self.delta: list[dict[str, list[int]]] = [{} for _ in range(n)]
        back: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for src, label, dst in data["edges"]:
            s, t = index[src], index[dst]
            if label is None:
                self.eps[s].append(t)
            else:
                self.delta[s].setdefault(label, []).append(t)
            back[t].append((s, 0 if label is None else 1))
        self.initial = index[data["initial"]]
        self.finals = frozenset(index[f] for f in data["finals"])
        self.n_states = n
        self.n_edges = len(data["edges"])
        # Letters needed to reach a final state, by 0-1 breadth-first search.
        inf = n + 1
        dist = [inf] * n
        queue = deque()
        for f in self.finals:
            dist[f] = 0
            queue.append(f)
        while queue:
            q = queue.popleft()
            for p, w in back[q]:
                if dist[q] + w < dist[p]:
                    dist[p] = dist[q] + w
                    (queue.appendleft if w == 0 else queue.append)(p)
        self.dist = dist
        self.reachable = self._reach([self.initial])

    def _reach(self, seeds) -> set[int]:
        seen = set(seeds)
        stack = list(seen)
        while stack:
            q = stack.pop()
            targets = list(self.eps[q])
            for dsts in self.delta[q].values():
                targets.extend(dsts)
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def live_states(self) -> int:
        """States that are reachable and can reach a final state."""
        return sum(1 for q in self.reachable if self.dist[q] <= self.n_states)

    def _closure(self, seeds) -> frozenset[int]:
        seen = set(seeds)
        stack = list(seen)
        while stack:
            for t in self.eps[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def words_upto(self, bound: int, limit: int | None = None) -> set[Word] | None:
        """Accepted words of length <= bound; None once more than ``limit``."""
        dist = self.dist
        start = frozenset(q for q in self._closure([self.initial]) if dist[q] <= bound)
        frontier: dict[Word, frozenset[int]] = {(): start} if start else {}
        found: set[Word] = set()
        steps: dict[tuple[frozenset[int], str], frozenset[int]] = {}
        for length in range(bound + 1):
            for word, subset in frontier.items():
                if subset & self.finals:
                    found.add(word)
            if limit is not None and len(found) > limit:
                return None
            left = bound - length - 1
            if left < 0:
                break
            nxt: dict[Word, frozenset[int]] = {}
            for word, subset in frontier.items():
                for letter in self.letters:
                    key = (subset, letter)
                    target = steps.get(key)
                    if target is None:
                        moved = set()
                        for q in subset:
                            moved.update(self.delta[q].get(letter, ()))
                        target = self._closure(moved)
                        steps[key] = target
                    kept = frozenset(q for q in target if dist[q] <= left)
                    if kept:
                        nxt[word + (letter,)] = kept
            frontier = nxt
        return found


def subword_closure_data(data: dict) -> dict:
    """The NFA with an epsilon copy of every letter edge, whose language
    is the set of scattered subwords of the original language."""
    edges = [list(e) for e in data["edges"]]
    edges += [[src, None, dst] for src, label, dst in data["edges"] if label is not None]
    return {**data, "edges": edges}


def distinct_subwords(word: Word, bound: int) -> set[Word]:
    """Distinct scattered subwords of ``word`` of length <= bound."""
    out: set[Word] = {()}
    for letter in word:
        out |= {u + (letter,) for u in out if len(u) < bound}
    return out


def word_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


class AbsorbingBlockOrder:
    """The block order as the closure constructions realise it.

    It is the package's block order except that, below the word level,
    an empty block of the smaller word may face any block of the larger
    one, not only a block without positive-priority letters.  Block
    closures may therefore hold words that are absorbed this way.
    """

    def __init__(self, priorities: dict[str, int]):
        self.pri = dict(priorities)
        self._fit = lru_cache(maxsize=1 << 18)(self._fit_uncached)

    def top(self, word: Word) -> int:
        return max((self.pri[a] for a in word), default=-1)

    def below(self, u: Word, v: Word) -> bool:
        if not u:
            return self.top(v) <= 0
        return self._fit(u, v)

    def _split(self, word: Word, p: int) -> tuple[list[Word], list[str]]:
        blocks, seps, cur = [], [], []
        for a in word:
            if self.pri[a] == p:
                blocks.append(tuple(cur))
                seps.append(a)
                cur = []
            else:
                cur.append(a)
        blocks.append(tuple(cur))
        return blocks, seps

    def _fit_uncached(self, u: Word, v: Word) -> bool:
        if not u:
            return True
        p = self.top(u)
        if p != self.top(v):
            return False
        if p == 0:
            it = iter(v)
            return all(a in it for a in u)
        ub, us = self._split(u, p)
        vb, vs = self._split(v, p)
        n, m = len(us), len(vs)
        if n > m:
            return False
        # Feasible images of u's block i; block 0 maps to block 0, block n
        # to block m, images increase, and separator i of u occurs among
        # v's separators between the images of blocks i and i + 1.
        reach = {0} if self._fit(ub[0], vb[0]) else set()
        for i in range(n):
            nxt = set()
            for j in reach:
                for t in range(j, m):
                    if vs[t] != us[i]:
                        continue
                    for j2 in range(t + 1, m + 1):
                        if j2 not in nxt and self._fit(ub[i + 1], vb[j2]):
                            nxt.add(j2)
            if not nxt:
                return False
            reach = nxt
        return m in reach
