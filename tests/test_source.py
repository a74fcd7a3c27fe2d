"""Properties of the package source itself."""

import ast
import collections
import tokenize
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


def test_no_bare_assertion_errors():
    # an internal-consistency failure raises its own named error, which
    # callers can catch apart from a test's AssertionError
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Raise) and node.exc is not None
             and isinstance(getattr(node.exc, "func", node.exc), ast.Name)
             and getattr(node.exc, "func", node.exc).id == "AssertionError"]
    assert SOURCES and found == []


def test_every_def_is_used_elsewhere_in_the_package():
    # a helper that only tests call belongs in the tests; one nothing calls
    # is dead and gets deleted.  A use is an identifier token, so a name
    # that only appears in a comment or a string does not count.
    names = collections.Counter()
    for path in SOURCES:
        with tokenize.open(path) as f:
            names.update((path.name, tok.start[0], tok.string)
                         for tok in tokenize.generate_tokens(f.readline)
                         if tok.type == tokenize.NAME)
    uses = collections.Counter()
    for (_, _, name), n in names.items():
        uses[name] += n
    unused = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if uses[name] == names[path.name, node.lineno, name]:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert SOURCES and unused == []
