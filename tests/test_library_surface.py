"""The library holds what the polydiv command reaches, and its exports import.

Every top-level definition of a module of the package (functions, classes
and assigned names, __init__.py left out) must be reachable from cli.main
by names alone: a definition is reached when a reached definition mentions
its name, as a bare name or as an attribute. A method or property of a
class, other than a dunder, is a definition of its own, reached only when a
reached definition names it as an attribute. Code only the tests call
belongs in tests/reference_*.py.

No module of the package holds an assert statement: python -O strips them,
so an invariant is an explicit check that raises.
"""

import ast
from pathlib import Path

import polydiv

PACKAGE = Path(polydiv.__file__).parent


def is_member(node):
    """Is node a method or property of a class, other than a dunder?"""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def top_level_definitions():
    """(module, name) -> the AST nodes defining name in module. A class is
    its decorators, bases and body less its members; each member is its own
    (module, "Class.member")."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                members = [sub for sub in node.body if is_member(sub)]
                for member in members:
                    defs[(path.stem, f"{node.name}.{member.name}")] = [member]
                rest = [sub for sub in node.body if sub not in members]
                defs[(path.stem, node.name)] = [*node.decorator_list, *node.bases, *rest]
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                defs[(path.stem, name)] = [node]
    return defs


def mentioned(nodes):
    """(name, as_attribute) for every name the nodes mention."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id, False
            elif isinstance(sub, ast.Attribute):
                yield sub.attr, True


def reached_from(defs, root):
    by_name, by_attribute = {}, {}
    for key in defs:
        if "." in key[1]:
            by_attribute.setdefault(key[1].split(".")[1], []).append(key)
        else:
            by_name.setdefault(key[1], []).append(key)
    seen, todo = {root}, [root]
    while todo:
        for name, as_attribute in mentioned(defs[todo.pop()]):
            keys = by_name.get(name, [])
            if as_attribute:
                keys = keys + by_attribute.get(name, [])
            for key in keys:
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


def test_no_module_asserts():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_every_export_imports():
    # a star import fails on a name __all__ lists and the package lacks
    namespace = {}
    exec("from polydiv import *", namespace)
    assert set(polydiv.__all__) <= set(namespace)
