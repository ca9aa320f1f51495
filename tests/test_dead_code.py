"""Every module-level function and class of ``curvecomp`` is named elsewhere.

A stdlib ``ast`` check in place of a dead-code linter, the sibling of
``test_unused_imports.py``.  A definition counts as named when some source
in ``src``, ``tests`` or ``perfbench`` reads its name outside the definition
itself: as a name, an attribute, an imported name, or a string that is
exactly the name (``monkeypatch.setattr(mod, "name", ...)``, string
annotations).  A function that only calls itself is not named.  A private
definition (``_name``) must be named in ``src`` itself: a helper that only
tests or the benchmark call is dead program code.
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

import curvecomp

SRC = Path(curvecomp.__file__).resolve().parent
ROOT = SRC.parent.parent
MODULES = sorted(SRC.glob("*.py"))
OTHERS = sorted(p for d in ("tests", "perfbench")
                for p in (ROOT / d).rglob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree):
    """How often each name is read in tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def unnamed_definitions(modules, others=()):
    """(module, name, line) of each module-level function or class in the
    sources modules ({module: source}) whose name no source in modules or
    others reads outside its own definition.  Dunder names are left out."""
    trees = {m: ast.parse(src) for m, src in modules.items()}
    total = Counter()
    for tree in list(trees.values()) + [ast.parse(s) for s in others]:
        total += _names(tree)
    return sorted((m, node.name, node.lineno)
                  for m, tree in trees.items() for node in tree.body
                  if isinstance(node, DEFINITIONS)
                  and not node.name.startswith("__")
                  and total[node.name] == _names(node)[node.name])


def test_checker_finds_unnamed_definitions():
    lib = ("def used(n):\n"
           "    return used(n - 1) if n else 0\n"
           "def recursive(n):\n"
           "    return recursive(n - 1) if n else 0\n"
           "def patched():\n"
           "    pass\n"
           "class Kept:\n"
           "    pass\n"
           "class Dead:\n"
           "    def method(self):\n"
           "        return Dead\n"
           "def __getattr__(name):\n"
           "    pass\n")
    user = ("import lib\n"
            "from lib import used\n"
            "setattr(lib, 'patched', None)\n"
            "def f() -> 'Kept':\n"
            "    return lib.used(3)\n")
    assert unnamed_definitions({"lib": lib}, [user]) == [
        ("lib", "Dead", 9), ("lib", "recursive", 3)]


@cache
def _found():
    return unnamed_definitions(
        {p.name: p.read_text(encoding="utf-8") for p in MODULES},
        [p.read_text(encoding="utf-8") for p in OTHERS])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unnamed_definition(path):
    assert [f for f in _found() if f[0] == path.name] == []


def test_checker_finds_private_definitions_only_tests_read():
    lib = ("def _kept():\n"
           "    pass\n"
           "def _tested():\n"
           "    pass\n"
           "def public():\n"
           "    return _kept()\n")
    user = "from lib import _tested, public\n"
    assert unnamed_definitions({"lib": lib}, [user]) == []
    assert _private(unnamed_definitions({"lib": lib})) == [
        ("lib", "_tested", 3)]


def _private(found):
    return [f for f in found if f[1].startswith("_")]


@cache
def _found_in_src():
    return _private(unnamed_definitions(
        {p.name: p.read_text(encoding="utf-8") for p in MODULES}))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_private_definitions_are_read_in_src(path):
    assert [f for f in _found_in_src() if f[0] == path.name] == []
