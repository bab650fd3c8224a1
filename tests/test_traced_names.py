"""The benchmark's traced functions exist in the package.

``bench/tracing.py`` names the functions it traces as ``TRACED``, a dict
from module to function names; the tracer looks each one up in
``pilotspace.<module>`` when it is installed.  Reading that dict from the
source keeps a renamed or retired function from surfacing only in a
traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names():
    """(module, function) pairs of ``TRACED``, read without running the file."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            traced = ast.literal_eval(node.value)
            return [(mod, fn) for mod, fns in traced.items() for fn in fns]
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"pilotspace.{mod}"), fn, None))]
    assert missing == []
