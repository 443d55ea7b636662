"""Every function that BENCHMARK.json names is still there to trace.

A traced perfbench run reads `stats[<layer>.<function>]` for each
per-layer metric `<layer>.<function>.<field>`, so a traced function that
is deleted or renamed raises KeyError there, after the run.  This test
fails first, in the test suite.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_names_are_public_functions():
    names = [m["name"].split(".") for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = [parts[:2] for parts in names if len(parts) == 3]
    assert traced
    for layer, function in traced:
        module = importlib.import_module(f"flowlattice.{layer}")
        # the tracer's rule: a public function defined in the layer's own
        # module, or a wrapper of one
        obj = getattr(module, function, None)
        obj = getattr(obj, "__wrapped__", obj)
        assert not function.startswith("_") and inspect.isfunction(obj) \
            and obj.__module__ == module.__name__, f"{layer}.{function}"
