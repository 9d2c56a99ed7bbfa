"""Untimed correctness checks and the cached ``verify`` draw.

Expected word sets come from the package's oracle side only: its order
decisions (``prioclose.leq``) and its grammar and counter-machine
enumerators.  Constructed automata are read back from the CLI's JSON
with the benchmark's own ``lang.Automaton``.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import prioclose
from prioclose import OrderKind, PriorityAlphabet

import corpus
from lang import (
    AbsorbingBlockOrder,
    Automaton,
    distinct_subwords,
    subword_closure_data,
    word_key,
)


def alphabet_of(model: dict) -> PriorityAlphabet:
    return PriorityAlphabet.from_map(model["alphabet"])


def bounded_closure(words, order: str, alphabet: PriorityAlphabet, bound: int, below=None) -> set:
    """Words of length <= bound below some member of ``words``.

    The same set as ``prioclose.closure_bounded``, with each member's
    subwords deduplicated before the order is decided.  ``below`` replaces
    the package's order decision.
    """
    if below is None:
        kind = OrderKind(order)

        def below(u, v):
            return prioclose.leq(alphabet, kind, u, v)

    out: set = set()
    for v in sorted(set(words), key=word_key):
        for u in distinct_subwords(v, bound):
            if u not in out and below(u, v):
                out.add(u)
    return out


def parse_model(model: dict):
    """The model as a package object, through its public parsers."""
    alphabet = alphabet_of(model)
    data = model["data"]
    if model["kind"] == "nfa":
        return prioclose.nfa_parse(data, alphabet)
    if model["kind"] == "cfg":
        return prioclose.cfg_parse(data, alphabet)
    if data.get("simple"):
        edges = tuple(
            (src, label, prioclose.CounterOp(op), dst) for src, label, op, dst in data["edges"]
        )
        return prioclose.SimpleOca(
            alphabet, tuple(data["states"]), edges, data["initial"], data["final"]
        )
    return prioclose.oca_parse(data, alphabet)


def model_words(model: dict, bound: int, limit: int | None = None):
    if model["kind"] == "nfa":
        return Automaton(model["data"], model["alphabet"]).words_upto(bound, limit)
    if model["kind"] == "cfg":
        return set(prioclose.cfg_enumerate(parse_model(model), bound))
    return set(prioclose.oca_enumerate(parse_model(model), bound))


def _show(words) -> str:
    first = sorted(words, key=word_key)[:3]
    return "; ".join(",".join(w) or "<empty>" for w in first)


def check_closure(model, order, out: Automaton, bound, dom, exact) -> str | None:
    """None if the output agrees with the oracle, else what is wrong.

    Every oracle word must be accepted.  With ``exact``, every accepted
    word must also be below a model word of length <= dom: in the order
    itself, or for block closures in its absorbing variant.
    """
    actual = out.words_upto(bound)
    words = model_words(model, dom)
    expected = bounded_closure(words, order, alphabet_of(model), bound)
    if expected - actual:
        return f"missing {_show(expected - actual)}"
    if exact:
        if order == "block":
            absorbing = AbsorbingBlockOrder(model["alphabet"])
            expected = bounded_closure(words, order, None, bound, absorbing.below)
        if actual - expected:
            return f"extra {_show(actual - expected)}"
    return None


def regular_bounds(model: dict) -> tuple[int, int]:
    """Oracle bounds for a random regular NFA, scaled to its alphabet.

    The dominator depth is the deepest one up to twice the bound at
    which the model has at most 60 words, which keeps the check cheap.
    """
    bound = 3 if len(model["alphabet"]) <= 5 else 2
    nfa = Automaton(model["data"], model["alphabet"])
    for dom in range(2 * bound, bound, -1):
        if nfa.words_upto(dom, limit=60) is not None:
            return bound, dom
    return bound, bound


def check_regular(model, order, out: Automaton) -> str | None:
    """Exact for the subword order; for the others the oracle's words
    must be accepted, and every accepted word must be a subword of a
    model word (all three orders refine the subword order)."""
    bound, dom = regular_bounds(model)
    subwords = Automaton(subword_closure_data(model["data"]), model["alphabet"])
    upper = subwords.words_upto(bound)
    actual = out.words_upto(bound)
    if actual - upper:
        return f"not a subword of the language: {_show(actual - upper)}"
    if order == "subword":
        return None if actual == upper else f"missing {_show(upper - actual)}"
    return check_closure(model, order, out, bound, dom, exact=False)


def check_output(workload, name, model, order, path) -> tuple[dict, str | None]:
    """Sizes of the closure NFA in ``path`` and the outcome of its check."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    out = Automaton(data, model["alphabet"])
    sizes = {"states": out.n_states, "edges": out.n_edges, "live": out.live_states()}
    if workload == "regular":
        return sizes, check_regular(model, order, out)
    bound, dom, exact = corpus.PIPELINE_CHECKS[(name, order)]
    return sizes, check_closure(model, order, out, bound, dom, exact)


# --- the verify draw ----------------------------------------------------------


def verify_draw(cache_dir: Path) -> list[dict]:
    """test_4's fifty stable random NFAs, with their known answers.

    Each entry holds the model, its words up to the filter's deep bound
    and its closure words up to the comparison bound in every order.
    The filter is slow, so the draw is cached per seed.
    """
    seed, size = corpus.VERIFY_DRAW_SEED, corpus.VERIFY_DRAW_SIZE
    path = cache_dir / f"verify-draw-{seed}-{size}.json"
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    rng = random.Random(seed)
    draw = []
    while len(draw) < size:
        model = corpus.test4_random_nfa(rng)
        deep = model_words(model, corpus.FILTER_DEEP, limit=corpus.FILTER_MAX_WORDS)
        if deep is None:
            continue
        shallow = [v for v in deep if len(v) <= corpus.FILTER_SHALLOW]
        alphabet = alphabet_of(model)
        closures = {}
        for order in corpus.ORDERS:
            wide = bounded_closure(deep, order, alphabet, corpus.VERIFY_BOUND)
            if bounded_closure(shallow, order, alphabet, corpus.VERIFY_BOUND) != wide:
                break
            closures[order] = sorted(wide, key=word_key)
        else:
            draw.append(
                {"model": model, "deep": sorted(deep, key=word_key), "closures": closures}
            )
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(draw), encoding="utf-8")
    os.replace(tmp, path)
    return json.loads(path.read_text(encoding="utf-8"))
