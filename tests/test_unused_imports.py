"""Every name a ``curvecomp`` module imports is used in that module.

A stdlib ``ast`` check in place of a linter.  An import at module level
counts as used when its name is read anywhere in the module; an import in a
function, when it is read in that function.  Annotations count, also
when they are strings (``-> "Poly"``).
"""

import ast
from pathlib import Path

import pytest

import curvecomp

SRC = Path(curvecomp.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of scope, leaving out the bodies of nested functions."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def _imported(scope):
    for node in _own_nodes(scope):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(scope):
    names = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    for ann in _annotations(scope):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names |= _used(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(source):
    """(name, line) of each import in source whose name is never read."""
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]
    return sorted((name, line) for scope in scopes
                  for name, line in _imported(scope)
                  if name not in _used(scope))


def test_checker_finds_unused_names():
    src = ("from __future__ import annotations\n"
           "import os, sys\n"
           "from json import dumps as d, loads\n"
           "from typing import List\n"
           "def f(x: 'List') -> None:\n"
           "    import math\n"
           "    from re import sub\n"
           "    return sys.path, sub\n"
           "def g():\n"
           "    return math\n"
           "print(d)\n")
    assert unused_imports(src) == [("loads", 3), ("math", 6), ("os", 2)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
