"""The library imports no name that it never reads."""

import ast
import pathlib

import qtchroma


def unused_imports(source):
    """(line, name) for each name an import binds and no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == [
        (1, "os"), (2, "e")]


def test_library_has_no_unused_imports():
    root = pathlib.Path(qtchroma.__file__).parent
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(root.glob("*.py"))
             if path.name != "__init__.py"}     # __init__ only re-exports
    assert {name: hits for name, hits in found.items() if hits} == {}
