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


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def definitions(source):
    """(name, first line, last line) of each module-level def and class."""
    return [(node.name, node.lineno, node.end_lineno)
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def reads(source, strings=False):
    """(line, name) for each name a Name or Attribute load reads, and with
    strings also for each string constant."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.lineno, node.attr))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.lineno, node.value))
    return out


def unread_definitions(modules, outside=()):
    """(module, name) for each def or class in modules, a {name: source}
    map, that no module reads outside the definition itself and that no
    source in outside reads, string constants included."""
    read_outside = {name for source in outside
                    for _line, name in reads(source, strings=True)}
    read_in = {mod: reads(source) for mod, source in modules.items()}
    found = []
    for mod, source in sorted(modules.items()):
        for name, lo, hi in definitions(source):
            if name in read_outside or any(
                    name == n and (other != mod or not lo <= line <= hi)
                    for other, hits in read_in.items() for line, n in hits):
                continue
            found.append((mod, name))
    return found


def test_unread_definitions_are_found():
    modules = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\n"
                    "class C:\n    pass\n",
               "b": "import a\na.g()\n"}
    assert unread_definitions(modules) == [("a", "f"), ("a", "C")]
    assert unread_definitions(modules, outside=["X = ('f', 'C')\n"]) == []


def test_library_defines_nothing_only_its_tests_read():
    # the package's own modules, and the benchmark that drives it, are
    # the readers that count; __init__ only re-exports
    root = pathlib.Path(qtchroma.__file__).parent
    modules = {path.name: path.read_text() for path in sorted(root.glob("*.py"))
               if path.name != "__init__.py"}
    bench = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert bench
    assert unread_definitions(modules, outside=bench) == []
