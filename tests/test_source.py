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
    # is dead and gets deleted.  A use of a function is an identifier token,
    # so a name that only appears in a comment or a string does not count.
    # A method is used through an attribute (".name"), so a local variable
    # of the same name elsewhere does not count for it.
    names = identifiers()
    uses = collections.Counter()
    for (_, _, name), n in names.items():
        uses[name] += n
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    attributes = collections.Counter(node.attr for tree in trees.values()
                                     for node in ast.walk(tree)
                                     if isinstance(node, ast.Attribute))
    unused, external = [], []
    for path, tree in trees.items():
        classes = {id(node): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if id(node) in classes:
                qualified = f"{classes[id(node)]}.{name}"
                if qualified in EXTERNAL_METHODS:  # must have no use inside
                    external.append((qualified, attributes[name]))
                    continue
                used = attributes[name] > 0
            else:
                used = uses[name] > names[path.name, node.lineno, name]
            if not used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert SOURCES and unused == []
    assert sorted(external) == [(name, 0) for name in sorted(EXTERNAL_METHODS)]


# methods called only from outside the package, each with its reason
EXTERNAL_METHODS = {
    # perfbench's scale workload digests its cocycles through it
    "Cocycle.table",
}


# exported for callers outside the package, each with its reason
EXTERNAL_EXPORTS = {
    # the S^1 splitting test that counting the units of the fusion ring
    # needs: at the cocycle's own modulus a split cocycle can look unsplit
    "coboundary_witness_s1",
    # perfbench's scale workload builds its cocycles through it
    "heisenberg_cocycle",
    # the tests' matrix oracles build Kronecker products of two
    # representations through it; the package stacks them with kron
    "tensor",
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
