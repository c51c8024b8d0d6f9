"""The benchmark's tracer patches nmixfit functions by module and name.

``perfbench/tracer.py`` lists them in ``LAYER_FUNCTIONS``; a rename in
nmixfit would make ``--trace 1`` raise, or stop it seeing a layer.  The
list is read from the file's source, not imported, so the benchmark's
code never runs here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layer_functions():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {TRACER}")


@pytest.mark.parametrize(
    "module_name, attr", sorted({(module, attr) for module, attr, _ in _layer_functions()})
)
def test_traced_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
