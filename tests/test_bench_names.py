"""Every package name the benchmark's tracer wraps exists.

``bench/tracing.py`` replaces functions and methods by name while it
traces a round, so a rename in the package would otherwise surface only
in the benchmark self-test.  The tables are read from the source with
``ast``; the benchmark module is not imported.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _table(name: str, width: int) -> list[tuple]:
    """The leading ``width`` string cells of each row of a tracing table."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return [tuple(ast.literal_eval(cell) for cell in row.elts[:width])
                    for row in node.value.elts]
    raise AssertionError(f"{TRACING} has no table {name}")


FUNCTIONS = _table("FUNCTIONS", 2)
METHODS = _table("METHODS", 3)


@pytest.mark.parametrize("module,attr", FUNCTIONS)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"quadfeat.{module}"), attr))


def test_traced_functions_are_distinct():
    # the tracer wraps by identity: an alias would be wrapped twice
    found = [getattr(importlib.import_module(f"quadfeat.{m}"), a)
             for m, a in FUNCTIONS]
    assert len({id(fn) for fn in found}) == len(found)


@pytest.mark.parametrize("module,cls,attr", METHODS)
def test_traced_method_exists(module, cls, attr):
    owner = getattr(importlib.import_module(f"quadfeat.{module}"), cls)
    assert callable(vars(owner)[attr])
