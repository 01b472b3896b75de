"""The benchmark's traced run wraps library attributes by name
(perfbench/spans.LAYERS); a refactor that deletes or renames one of
them would crash that run. This test only reads the benchmark."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attr, _ in spans.LAYERS]


@pytest.mark.parametrize("mod,attr", _layers())
def test_traced_layer_exists(mod, attr):
    module = importlib.import_module(f"scarfcs.{mod}")
    assert callable(getattr(module, attr, None)), f"scarfcs.{mod}.{attr}"
