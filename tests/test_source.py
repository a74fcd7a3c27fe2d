"""Properties of the package source itself."""

import ast
import re
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


def test_every_def_is_used_elsewhere_in_the_package():
    # a helper that only tests call belongs in the tests; one nothing calls
    # is dead and gets deleted
    lines = [(path.name, n, line) for path in SOURCES
             for n, line in enumerate(path.read_text().splitlines(), 1)]
    unused = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for file, n, line in lines
                       if (file, n) != (path.name, node.lineno)):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert SOURCES and unused == []
