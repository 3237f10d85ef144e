"""perfbench traces dialectid's public functions by module and name, so a
refactor that renames or drops one must fail here, not in a traced run."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_functions():
    """(module, function) pairs of spans.py's TRACED, read without importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        targets = getattr(node, "targets", [])
        if [getattr(t, "id", None) for t in targets] == ["TRACED"]:
            traced = ast.literal_eval(node.value)
            return [(module, name) for module, (_, names) in traced.items() for name in names]
    raise AssertionError(f"{SPANS} defines no TRACED table")


@pytest.mark.parametrize("module, name", traced_functions())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))
