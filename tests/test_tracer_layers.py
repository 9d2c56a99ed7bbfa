"""The benchmark's tracer and worker use package functions by name; they must exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, name) for layer, names in tracer.LAYERS.items() for name in names]


@pytest.mark.parametrize("layer, name", _layers())
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"prioclose.{layer}")
    assert callable(getattr(module, name, None))


def _worker_names():
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    return sorted({
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "prioclose"
    })


@pytest.mark.parametrize("name", _worker_names())
def test_worker_name_exists_in_the_package_root(name):
    import prioclose

    assert hasattr(prioclose, name)


def _nfas():
    from prioclose import (
        OrderKind,
        PriorityAlphabet,
        closure_regular,
        nfa_for_words,
        nfa_parse,
        nfa_reduce,
    )

    ab = PriorityAlphabet.from_map({"a": 0, "b": 1})
    # a repeated edge, an ε-edge and more than ten states
    names = [f"q{i}" for i in range(12)]
    edges = [[q, "a", r] for q, r in zip(names, names[1:])]
    edges += [["q0", "a", "q1"], ["q3", None, "q10"], ["q11", "b", "q2"]]
    parsed = nfa_parse(
        {"states": names, "initial": "q0", "finals": ["q11", "q4"], "edges": edges}, ab
    )
    yield "parse", parsed
    for order in OrderKind:
        yield f"closure-{order.value}", closure_regular(parsed, order)
    words = nfa_for_words(ab, [("a", "b"), (), ("b", "b", "a"), ("a", "b")])
    yield "words", words
    yield "reduce-words", nfa_reduce(words)
    yield "reduce-parse", nfa_reduce(parsed)


@pytest.mark.parametrize("name, nfa", list(_nfas()))
def test_state_and_edge_counts_match_the_json(name, nfa):
    """The tracer reads ``len(result.states)`` and ``len(result.edges)``."""
    from prioclose import nfa_serialize

    data = nfa_serialize(nfa)
    assert len(nfa.states) == len(data["states"])
    assert len(nfa.edges) == len(data["edges"])
