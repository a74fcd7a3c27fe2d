"""Properties of the package source itself."""

import ast
from pathlib import Path

import heckefuse

SOURCES = sorted(Path(heckefuse.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # assert statements vanish under python -O; checks must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
