"""Downward closure of a regular language, verified against the oracle.

The closure construction chains one transduction per priority level, so
the result is again a plain NFA.  An independent brute-force oracle
recomputes the closure from enumerated words and confirms the automaton
on every word up to a bound.
"""

from prioclose import (
    Nfa,
    OrderKind,
    PriorityAlphabet,
    closure_regular,
    compare_closure,
    format_word,
    nfa_enumerate,
    nfa_parse,
    nfa_serialize,
    nfa_to_dot,
)

ALPHABET = PriorityAlphabet.from_map({"a": 0, "b": 1})


def request_reply_nfa() -> Nfa:
    """Bursts of low-priority a's, each burst closed off by a high b.

    States are named only in the JSON form that ``nfa_parse`` reads; the
    parsed automaton numbers them in sorted-name order and keeps the
    names for ``nfa_serialize`` and ``nfa_to_dot``.
    """
    return nfa_parse(
        {
            "states": ["idle", "busy"],
            "initial": "idle",
            "finals": ["idle"],
            "edges": [
                ["idle", "a", "busy"],
                ["busy", "a", "busy"],
                ["busy", "b", "idle"],
            ],
        },
        ALPHABET,
    )


def main() -> None:
    machine = request_reply_nfa()
    print("States as written:", ", ".join(nfa_serialize(machine)["states"]))
    print("Language sample ((a a* b)*):")
    print(" ", ", ".join(format_word(v) or "ε" for v in nfa_enumerate(machine, 4)))

    for order in (OrderKind.SUBWORD, OrderKind.PRIORITY, OrderKind.BLOCK):
        closed = closure_regular(machine, order)
        words = [format_word(u) or "ε" for u in nfa_enumerate(closed, 3)]
        print()
        print(f"{order.value} closure, words up to length 3:")
        print(" ", ", ".join(words))
        report = compare_closure(machine, order, closed, bound=6, dom_bound=12)
        print(f"  oracle check at bound 6: equal={str(report.equal).lower()}")

    closed = closure_regular(machine, OrderKind.BLOCK)
    dot = nfa_to_dot(closed, name="closure")
    print()
    print(f"DOT rendering of the block closure has {dot.count(' -> ')} arrows;")
    print("pipe it through graphviz to draw the automaton.")


if __name__ == "__main__":
    main()
