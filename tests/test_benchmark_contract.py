"""perfbench traces dialectid's public functions by module and name, and its
workloads call dialectid through module attributes, so a refactor that
renames or drops one must fail here, not in a benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def traced_functions():
    """(module, function) pairs of spans.py's TRACED, read without importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        targets = getattr(node, "targets", [])
        if [getattr(t, "id", None) for t in targets] == ["TRACED"]:
            traced = ast.literal_eval(node.value)
            return [(module, name) for module, (_, names) in traced.items() for name in names]
    raise AssertionError(f"{SPANS} defines no TRACED table")


def workload_attributes():
    """(module, attribute) pairs that workloads.py reads off the modules it
    imports with `from dialectid import ...`, found without importing it."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "dialectid"
        for alias in node.names
    }
    found = {
        (f"dialectid.{node.value.id}", node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    if not found:
        raise AssertionError(f"{WORKLOADS} reads no attribute of a dialectid module")
    return sorted(found)


@pytest.mark.parametrize("module, name", traced_functions())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module, name", workload_attributes())
def test_workload_attribute_exists(module, name):
    assert hasattr(importlib.import_module(module), name)
