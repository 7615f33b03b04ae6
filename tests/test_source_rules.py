"""Two rules on the package source, read with ast:

* no assert statement: a check in src/ raises CheckFailure explicitly, so
  it keeps its meaning under `python -O`;
* no module imports a _-prefixed name from a sibling module: what one
  module shares with another is public.

They check with pytest.fail, never with the assert statement."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "k3census").glob("*.py"))


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
