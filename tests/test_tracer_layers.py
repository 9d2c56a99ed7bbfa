"""The benchmark's tracer wraps package functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, name) for layer, names in tracer.LAYERS.items() for name in names]


@pytest.mark.parametrize("layer, name", _layers())
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"prioclose.{layer}")
    assert callable(getattr(module, name, None))
