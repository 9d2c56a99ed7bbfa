"""Spans around the package's layer functions, installed from outside.

``from .automata import ...`` gives ``cfg``, ``oca``, ``cli`` and the
package root their own bindings, and a call inside a module looks its
globals up when it runs.  So each function is replaced in every
``prioclose`` module namespace that binds it, and restored afterwards.

Spans are aggregated per (function, parent function) as they close, so
memory stays bounded however many calls a pass makes.  A span's self
time is its duration minus that of its direct child spans; children
never overlap because the package runs on one thread.
"""

from __future__ import annotations

import sys
import time
from math import comb

# module -> functions wrapped in it
LAYERS = {
    "core": ("leq",),
    "oracle": ("subwords_up_to", "closure_bounded", "compare_closure"),
    "automata": (
        "nfa_enumerate",
        "closure_regular",
        "apply_transduction",
        "nfa_intersect",
        "nfa_union",
        "nfa_parse",
        "nfa_serialize",
    ),
    "cfg": (
        "to_cnf",
        "acyclic_nfa",
        "apply_transducer_to_cfg",
        "cfg_block_closure",
        "cfg_priority_closure",
    ),
    "oca": ("soca_closure_nfa", "oca_block_closure", "oca_priority_closure"),
    "cli": ("build_closure", "main"),
}

CALLS, TOTAL, SELF, STATES, EDGES, STATES_MAX, HITS, BASE = range(8)


def _combinations(word, bound) -> int:
    n = len(word)
    return sum(comb(n, k) for k in range(min(bound, n) + 1))


def _counts(name: str, args, result) -> tuple[int, int]:
    """(useful outcomes, attempts) where a function can waste work."""
    if name == "core.leq":
        return int(bool(result)), 1
    if name == "oracle.subwords_up_to":
        return len(result), _combinations(args[0], args[1])
    if name == "automata.nfa_enumerate":
        return len(result), 0
    return 0, 0


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self._last_states: dict[str, int] = {}

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "prioclose" or name.startswith("prioclose.")
        }
        for layer, names in LAYERS.items():
            home = modules.get(f"prioclose.{layer}")
            if home is None:  # the CLI is imported only when used
                continue
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0, 0, 0, 0, 0, 0]
                rec[CALLS] += 1
                rec[TOTAL] += duration
                rec[SELF] += duration - frame[1]
            states = getattr(result, "states", None)
            if states is not None:
                rec[STATES] += len(states)
                rec[EDGES] += len(result.edges)
                rec[STATES_MAX] = max(rec[STATES_MAX], len(states))
            hits, base = _counts(name, args, result)
            rec[HITS] += hits
            rec[BASE] += base
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds (a direct recursive call
        is not counted twice), self seconds, output sizes and counters."""
        out: dict[str, dict[str, float]] = {}
        for (name, parent), rec in self.spans.items():
            t = out.setdefault(
                name,
                {"calls": 0, "s": 0.0, "self_s": 0.0, "out_states": 0,
                 "out_edges": 0, "out_states_max": 0, "hits": 0, "base": 0},
            )
            t["calls"] += rec[CALLS]
            if parent != name:
                t["s"] += rec[TOTAL]
            t["self_s"] += rec[SELF]
            t["out_states"] += rec[STATES]
            t["out_edges"] += rec[EDGES]
            t["out_states_max"] = max(t["out_states_max"], rec[STATES_MAX])
            t["hits"] += rec[HITS]
            t["base"] += rec[BASE]
        return out

    def out_states_since_last(self) -> dict[str, int]:
        """States returned per function since the previous call."""
        now = {name: t["out_states"] for name, t in self.totals().items()}
        delta = {k: v - self._last_states.get(k, 0) for k, v in now.items()}
        self._last_states = now
        return {k: v for k, v in delta.items() if v}

    def span_rows(self) -> list[list]:
        return [
            [name, parent, rec[CALLS], rec[TOTAL], rec[SELF]]
            for (name, parent), rec in sorted(self.spans.items(), key=lambda kv: -kv[1][TOTAL])
        ]
