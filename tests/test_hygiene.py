"""Source hygiene, checked by parsing the code (standard library only).

Every import in src/ and tests/ is used, and src/skewdyck has exactly the
defaulted parameters listed in DEFAULTED, counting dataclass fields with a
default as parameters of the generated __init__.  Every function, class
and method in src/skewdyck is named somewhere in src/skewdyck or bench/,
except the test-only names listed in TEST_ONLY.  `holonomic` imports
nothing from the package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewdyck"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

DEFAULTED = {
    "rings.TPoly.__init__(coeffs)",
    "series.solve_algebraic(schedule)",
}

# Defined in src/skewdyck but named only by the tests.
TEST_ONLY = {"paths.enumerate_paths"}


def _imported_names(tree):
    """(bound name, line) for each import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def _defaulted(node, scope):
    """Qualified 'module.scope.function(param)' for each defaulted parameter."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{scope}.{child.name}"
            args = child.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults) :]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{name}({a.arg})" for a in with_default)
            yield from _defaulted(child, name)
        elif isinstance(child, ast.ClassDef):
            name = f"{scope}.{child.name}"
            decorators = {ast.unparse(d).partition("(")[0] for d in child.decorator_list}
            if "dataclass" in decorators:
                for stmt in child.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        yield f"{name}.__init__({stmt.target.id})"
            yield from _defaulted(child, name)
        else:
            yield from _defaulted(child, scope)


def test_defaulted_parameters_are_the_allowed_ones():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(_defaulted(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert found == DEFAULTED


def _definitions(node, scope):
    """(qualified 'module.scope.name', name) for each non-dunder def and class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{scope}.{child.name}"
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield name, child.name
            yield from _definitions(child, name)
        else:
            yield from _definitions(child, scope)


def _referenced_names(tree):
    """Names used as variables or attributes; a def or class statement
    names nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_only_listed_definitions_lack_a_caller():
    package = sorted(PACKAGE.glob("*.py"))
    referenced = set()
    for path in package + sorted((ROOT / "bench").glob("*.py")):
        referenced.update(_referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
    uncalled = set()
    for path in package:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uncalled.update(q for q, name in _definitions(tree, path.stem) if name not in referenced)
    assert uncalled == TEST_ONLY


def test_holonomic_has_no_relative_import():
    # The recurrence that serves `series` and `asympt` shares no code with
    # the routes that `verify` checks it against.
    tree = ast.parse((PACKAGE / "holonomic.py").read_text(encoding="utf-8"))
    relative = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert not relative
