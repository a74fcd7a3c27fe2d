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


def identifiers() -> collections.Counter:
    """(module file name, line, identifier) -> count, over the package."""
    names = collections.Counter()
    for path in SOURCES:
        with tokenize.open(path) as f:
            names.update((path.name, tok.start[0], tok.string)
                         for tok in tokenize.generate_tokens(f.readline)
                         if tok.type == tokenize.NAME)
    return names


def test_every_def_is_used_elsewhere_in_the_package():
    # a helper that only tests call belongs in the tests; one nothing calls
    # is dead and gets deleted.  A use is an identifier token, so a name
    # that only appears in a comment or a string does not count.
    names = identifiers()
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


# exported for callers outside the package, each with its reason
EXTERNAL_EXPORTS = {
    # the S^1 splitting test that counting the units of the fusion ring
    # needs: at the cocycle's own modulus a split cocycle can look unsplit
    "coboundary_witness_s1",
    # perfbench's scale workload builds its cocycles through it
    "heisenberg_cocycle",
}


def test_every_export_has_a_caller():
    # a re-export is not a use: each name __init__ imports from a submodule
    # must be an identifier somewhere else in the package, its own def or
    # class line and __init__'s import statements aside
    init = Path(heckefuse.__file__)
    imports = [node for node in ast.parse(init.read_text()).body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module]
    import_lines = {line for node in imports
                    for line in range(node.lineno, node.end_lineno + 1)}
    defined_at = {(path.name, node.lineno, node.name)
                  for path in SOURCES
                  for node in ast.parse(path.read_text(), str(path)).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = {name for (file, line, name) in identifiers()
            if not (file == init.name and line in import_lines)
            and (file, line, name) not in defined_at}
    exported = {alias.name for node in imports for alias in node.names}
    assert imports
    assert sorted(exported - used - EXTERNAL_EXPORTS) == []
    assert EXTERNAL_EXPORTS <= exported - used
