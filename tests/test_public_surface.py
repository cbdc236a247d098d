"""The names other code reaches the library by: the package's __all__, the
README's Python example, and the calls perfbench's tracer spans."""

import ast
import importlib
import re
from pathlib import Path

import silmarils

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in silmarils.__all__ if not hasattr(silmarils, name)]
    assert not missing
    assert len(set(silmarils.__all__)) == len(silmarils.__all__)


def test_readme_python_example_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def _traced_layers() -> dict:
    # Read LAYERS off the tracer's source, without importing perfbench.
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_every_traced_call_resolves():
    # The tracer rebinds a function by getattr on its module and a method
    # through its class's own __dict__; a name that moved or went away would
    # fail only there.
    layers = _traced_layers()
    assert layers
    for module_name, calls in layers.values():
        module = importlib.import_module(module_name)
        for call in calls:
            if "." in call:
                cls_name, attr = call.split(".")
                assert callable(vars(getattr(module, cls_name)).get(attr)), call
            else:
                assert callable(getattr(module, call, None)), call
