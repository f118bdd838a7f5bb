"""The per-layer trace in perfbench/traced_cli.py wraps src functions by name.

Its SPANS table maps each span to "module:attribute path" strings. A renamed
or moved layer function would otherwise surface only when a traced benchmark
run fails with a KeyError, so the table is read here (parsed, not imported or
edited) and every entry is resolved against the package.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACED_CLI = (Path(__file__).resolve().parents[1] / "perfbench"
              / "traced_cli.py")


def _spans() -> dict:
    tree = ast.parse(TRACED_CLI.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "SPANS"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS table in {TRACED_CLI}")


_TARGETS = [target for targets in _spans().values() for target in targets]


def test_spans_table_is_not_empty():
    assert "circuits:evolve" in _TARGETS
    assert "circuits:_layer_unitary" in _TARGETS


def test_step_cache_reports_hits_and_misses():
    """traced_cli.py also reads the step solver's cache statistics, outside
    SPANS, after every traced run."""
    analytics = importlib.import_module("paulishift.analytics")
    info = analytics._epsilon_opt_cached.cache_info()
    assert isinstance(info.hits, int)
    assert isinstance(info.misses, int)


@pytest.mark.parametrize("target", _TARGETS)
def test_span_target_is_defined_where_named(target):
    """Each attribute is in its owner's own __dict__ (a method in its own
    class body, not inherited) and is a function defined under that name."""
    module_name, path = target.split(":")
    module = importlib.import_module(f"paulishift.{module_name}")
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = owner.__dict__[part]
    assert attr in owner.__dict__, f"{target} not defined on its owner"
    fn = owner.__dict__[attr]
    assert callable(fn)
    assert fn.__module__ == module.__name__
    assert fn.__qualname__ == path
