"""Closures of context-free languages.

The grammar pipeline normalizes the grammar, replaces every pumpable
nonterminal by starred approximations of its pump derivations, and
unfolds the now-acyclic grammar into an automaton; with every priority
at zero it instead joins one automaton per strongly connected
component.  The showpiece is the palindromic 1^n 2 1^n, whose block
closure is exactly 1* 2 1*.
"""

from prioclose import (
    Cfg,
    OrderKind,
    PriorityAlphabet,
    cfg_block_closure,
    cfg_enumerate,
    cfg_priority_closure,
    compare_closure,
    format_word,
    nfa_enumerate,
)

P12 = PriorityAlphabet.from_map({"1": 1, "2": 2})
AB = PriorityAlphabet.from_map({"a": 0, "b": 0})


def nested() -> Cfg:
    return Cfg(P12, ("X",), (("X", ("1", "X", "1")), ("X", ("2",))), "X")


def balanced() -> Cfg:
    return Cfg(AB, ("S",), (("S", ("a", "S", "b")), ("S", ("a", "b"))), "S")


def main() -> None:
    g = nested()
    print("1^n 2 1^n sample:")
    print(" ", ", ".join(format_word(v) for v in cfg_enumerate(g, 5)))

    closed = cfg_block_closure(g)
    got = {format_word(u) for u in nfa_enumerate(closed, 4)}
    print("Block closure up to length 4:")
    print(" ", ", ".join(sorted(got, key=lambda s: (s.count(","), s))))
    print("The 2 can never be dropped (no higher letter shelters it), but")
    print("the 1s on either side thin out independently: 1* 2 1*.")

    report = compare_closure(g, OrderKind.PRIORITY, cfg_priority_closure(g), bound=7, dom_bound=15)
    print(f"Priority closure, oracle check at bound 7: equal={str(report.equal).lower()}")

    print()
    plain = balanced()
    closed = cfg_block_closure(plain)
    print("With every priority at zero the block order degenerates to the")
    print("plain subword order; for a^n b^n that yields all of a* b*:")
    print(" ", ", ".join(format_word(u) or "ε" for u in nfa_enumerate(closed, 3)))


if __name__ == "__main__":
    main()
