"""The library holds what the polydiv command reaches, and its exports import.

Every top-level definition of a module of the package (functions, classes
and assigned names, __init__.py left out) must be reachable from cli.main
by names alone: a definition is reached when a reached definition mentions
its name, as a bare name or as an attribute. Code only the tests call
belongs in tests/reference_*.py.
"""

import ast
from pathlib import Path

import polydiv

PACKAGE = Path(polydiv.__file__).parent


def top_level_definitions():
    """(module, name) -> the AST node defining name at the top of module."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                defs[(path.stem, name)] = node
    return defs


def mentioned(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def reached_from(defs, root):
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    seen, todo = {root}, [root]
    while todo:
        for name in mentioned(defs[todo.pop()]):
            for key in by_name.get(name, ()):
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
    return seen


def test_every_definition_is_reached_from_the_command():
    defs = top_level_definitions()
    assert ("cli", "main") in defs
    reached = reached_from(defs, ("cli", "main"))
    unreached = sorted(f"{module}.{name}" for module, name in defs if (module, name) not in reached)
    assert unreached == []


def test_every_export_imports():
    # a star import fails on a name __all__ lists and the package lacks
    namespace = {}
    exec("from polydiv import *", namespace)
    assert set(polydiv.__all__) <= set(namespace)
