"""Checks on the package source itself: private code that nothing uses is
deleted, not kept beside the code that replaced it."""

import ast
from collections import Counter
from pathlib import Path

import maxvar

SOURCES = sorted(Path(maxvar.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The private functions, classes and constants a module defines at its
    top level, each with the statement that defines it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, ast.Assign):
            found.extend((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    return [(name, node) for name, node in found if _is_private(name)]


def _uses(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, bare or as an attribute;
    imports and definitions are not reads."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
    return used


def test_every_private_name_is_used_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    used = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if used[name] == _uses(node)[name]
    ]
    assert unused == []
