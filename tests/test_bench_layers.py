"""Every layer the benchmark tracer wraps must exist in the package.

``bench/spans.py`` wraps each ``(module, attribute path)`` of its ``LAYERS``
list and raises AttributeError at the first name that is gone, so a removed
or renamed layer would otherwise surface only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import fcarray

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize("module, path", LAYERS, ids=[f"{m}.{p}" for m, p in LAYERS])
def test_bench_layer_resolves(module, path):
    owner = getattr(fcarray, module)
    *cls_path, leaf = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # the tracer reads the attribute from the owner's own namespace
    assert callable(vars(owner)[leaf])


def test_layer_list_loaded():
    assert LAYERS
