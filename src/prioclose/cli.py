"""Batch command-line front end for order checks, closures, and reports.

Exit codes follow one convention across subcommands: 0 for a positive
result (related, equal, or plain success), 1 for a negative result,
2 for any usage, parse, or resource error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time

from .automata import (
    Nfa,
    closure_regular,
    nfa_parse,
    nfa_serialize,
    nfa_to_dot,
)
from .cfg import cfg_closure, cfg_parse, cfg_to_dot
from .core import (
    DEFAULT_MAX_STATES,
    OrderKind,
    PriorityAlphabet,
    ResourceLimit,
    format_word,
    leq,
    parse_word,
)
from .oca import (
    Oca,
    _machine_parts,
    _parse_simple_oca,
    oca_closure,
    oca_parse,
    oca_to_dot,
)
from .oracle import _enumerate_model, check_bounds, compare_closure


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_alphabet(path: str) -> PriorityAlphabet:
    with open(path, encoding="utf-8") as fh:
        return PriorityAlphabet.from_json(fh.read())


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump_json(data) -> str:
    # indent would switch json to its pure-Python encoder
    return json.dumps(data, sort_keys=True) + "\n"


def _parse_model(kind: str, data, alphabet: PriorityAlphabet):
    if kind == "nfa":
        return nfa_parse(data, alphabet)
    if kind == "cfg":
        return cfg_parse(data, alphabet)
    if isinstance(data, dict) and data.get("simple"):
        # a simple machine accepts in its one final state with counter 0
        return Oca(*_machine_parts(_parse_simple_oca(data, alphabet)))
    return oca_parse(data, alphabet)


def build_closure(kind: str, order: OrderKind, model, state_cap: int) -> Nfa:
    """Closure automaton for a parsed model under the requested order."""
    # looked up per call, so that a function rebound in this module is the one called
    closure = {"nfa": closure_regular, "oca": oca_closure, "cfg": cfg_closure}[kind]
    return closure(model, order, state_cap)


def cmd_check_order(args) -> int:
    alphabet = _load_alphabet(args.alphabet)
    left = alphabet.validate_word(parse_word(args.left))
    right = alphabet.validate_word(parse_word(args.right))
    related = leq(alphabet, OrderKind(args.order), left, right)
    print("true" if related else "false")
    return 0 if related else 1


def _check_state_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError("--state-cap must be at least 1")


def cmd_closure(args) -> int:
    _check_state_cap(args.state_cap)
    alphabet = _load_alphabet(args.alphabet)
    model = _parse_model(args.type, _load_json(args.input), alphabet)
    start = time.monotonic()
    closed = build_closure(args.type, OrderKind(args.order), model, args.state_cap)
    elapsed = time.monotonic() - start
    _write_text(args.output, _dump_json(nfa_serialize(closed)))
    if args.dot:
        _write_text(args.dot, nfa_to_dot(closed))
    print(f"states={len(closed.states)} seconds={elapsed:.3f}")
    return 0


def cmd_verify(args) -> int:
    dom_bound = check_bounds(args.bound, args.dom_bound)
    _check_state_cap(args.state_cap)
    alphabet = _load_alphabet(args.alphabet)
    model = _parse_model(args.type, _load_json(args.input), alphabet)
    closed = build_closure(args.type, OrderKind(args.order), model, args.state_cap)
    report = compare_closure(
        model,
        OrderKind(args.order),
        closed,
        args.bound,
        dom_bound,
        model_id=os.path.basename(args.input),
    )
    if args.output:
        _write_text(args.output, _dump_json(report.to_json()))
    print(
        f"equal={'true' if report.equal else 'false'} "
        f"missing={len(report.missing_words)} extra={len(report.extra_words)}"
    )
    return 0 if report.equal else 1


def cmd_enumerate(args) -> int:
    if args.bound < 0:
        raise ValueError("bound must be nonnegative")
    alphabet = _load_alphabet(args.alphabet)
    model = _parse_model(args.type, _load_json(args.input), alphabet)
    for word in _enumerate_model(model, args.bound, args.counter_cap):
        print(format_word(word))
    return 0


def cmd_render(args) -> int:
    alphabet = _load_alphabet(args.alphabet)
    model = _parse_model(args.type, _load_json(args.input), alphabet)
    if isinstance(model, Nfa):
        text = nfa_to_dot(model)
    elif isinstance(model, Oca):
        text = oca_to_dot(model)
    else:
        text = cfg_to_dot(model)
    target = args.output or args.dot
    _write_text(target, text)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="prioclose",
        description="Downward closures of automata and grammars under "
        "subword, priority, and block orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_order(p):
        p.add_argument(
            "--order", required=True, choices=("subword", "priority", "block"), help="word order"
        )

    def add_common(p, with_order=True):
        p.add_argument("--alphabet", required=True, help="alphabet JSON path")
        p.add_argument(
            "--type", required=True, choices=("nfa", "oca", "cfg"), help="input kind"
        )
        p.add_argument("--input", required=True, help="model JSON path")
        if with_order:
            add_order(p)

    def add_state_cap(p):
        p.add_argument(
            "--state-cap",
            type=int,
            default=DEFAULT_MAX_STATES,
            help="abort if an intermediate automaton exceeds this many states",
        )

    p = sub.add_parser("check-order", help="decide whether one word lies below another")
    p.add_argument("--alphabet", required=True, help="alphabet JSON path")
    add_order(p)
    p.add_argument("left", help="candidate smaller word, comma-separated tokens")
    p.add_argument("right", help="candidate larger word, comma-separated tokens")
    p.set_defaults(run=cmd_check_order)

    p = sub.add_parser("closure", help="construct a closure automaton")
    add_common(p)
    p.add_argument("--output", required=True, help="closure NFA JSON path")
    p.add_argument("--dot", help="optional Graphviz output path")
    add_state_cap(p)
    p.set_defaults(run=cmd_closure)

    p = sub.add_parser("verify", help="compare a closure against the brute oracle")
    add_common(p)
    p.add_argument("--output", help="optional report JSON path")
    p.add_argument("--bound", type=int, default=6, help="comparison length bound")
    p.add_argument(
        "--dom-bound",
        type=int,
        default=None,
        help="model enumeration depth (default: twice the bound)",
    )
    add_state_cap(p)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("enumerate", help="list accepted words up to a length bound")
    add_common(p, with_order=False)
    p.add_argument("--bound", type=int, required=True, help="length bound")
    p.add_argument(
        "--counter-cap",
        type=int,
        default=None,
        help="counter ceiling for counter automata (default: derived)",
    )
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("render", help="write a Graphviz sketch of a model")
    add_common(p, with_order=False)
    p.add_argument("--output", help="Graphviz output path")
    p.add_argument("--dot", help="alias for --output")
    p.set_defaults(run=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "run", None) is cmd_render and not (args.output or args.dot):
        parser.error("render requires --output (or --dot)")
    # Constructions build no reference cycles, so reference counting frees
    # all they drop, and the cyclic collector would only rescan the large
    # automata they keep alive.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
