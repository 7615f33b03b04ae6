"""Rules on the source, read with ast:

* no assert statement: a check in src/ raises CheckFailure explicitly, so
  it keeps its meaning under `python -O`;
* no module imports a _-prefixed name from a sibling module: what one
  module shares with another is public;
* every function the benchmark traces (LAYERS in bench/layers.py, read
  without importing it) exists in the package, so a rename in src/ cannot
  leave the layer tracer pointing at nothing.

They check with pytest.fail, never with the assert statement."""

import ast
import importlib
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "k3census").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_and_no_private_sibling_import(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assert):
            pytest.fail("%s:%d: assert statement" % (path.name, node.lineno))
        if isinstance(node, ast.ImportFrom) and node.level:
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            if private:
                pytest.fail("%s:%d: imports %s from .%s"
                            % (path.name, node.lineno, ", ".join(private), node.module or ""))


def test_the_rules_see_every_module():
    if len(SOURCES) < 10 or not any(path.name == "linalg.py" for path in SOURCES):
        pytest.fail("found only %s" % [path.name for path in SOURCES])


def traced_layers() -> dict:
    """The LAYERS literal of bench/layers.py: module -> attribute paths."""
    path = ROOT / "bench" / "layers.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    pytest.fail("bench/layers.py defines no LAYERS")


def test_every_traced_layer_resolves():
    layers = traced_layers()
    if len(layers) < 5:
        pytest.fail("found only %r" % sorted(layers))
    for mod, attrs in layers.items():
        module = importlib.import_module("k3census." + mod)
        for attr in attrs:
            try:
                reduce(getattr, attr.split("."), module)
            except AttributeError:
                pytest.fail("bench/layers.py traces %s.%s, which k3census lacks" % (mod, attr))
