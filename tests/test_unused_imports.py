"""Every engine module uses what it imports and the private helpers it
defines.

A name bound by ``import`` or ``from ... import`` and never read again is a
stale import: it slows start-up and hides which module depends on which.
A private helper (a top-level ``_name`` function or class, or a
``_name`` method) that its own module never reads is dead code, since no
other module should reach it.  The package ``__init__`` re-exports its
imports, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

import qschur

SRC = Path(qschur.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names an import binds that no Name node of the module reads
    (the base of an attribute chain is a Name node too)."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    bound.append(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_helpers(source: str) -> list:
    """The top-level private functions and classes, and the private
    methods of top-level classes, that no Name node and no Attribute's
    attribute of the module reads."""
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and _is_private(node.name):
            defined.append(node.name)
        if isinstance(node, ast.ClassDef):
            defined += [item.name for item in node.body
                        if isinstance(item, functions) and _is_private(item.name)]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return [name for name in defined if name not in read]


def test_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\n"
              "from math import gcd, lcm\n"
              "os.path.join(js.dumps(gcd(1, 2)))\n")
    assert unused_imports(source) == ["lcm"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_engine_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_finds_a_dead_private_helper():
    source = ("def _used(): pass\n"
              "def _dead(): pass\n"
              "class _Gone: pass\n"
              "class Kept:\n"
              "    def __init__(self): self._fresh()\n"
              "    def _fresh(self): return _used()\n"
              "    def _stale(self): pass\n"
              "    def public(self): pass\n")
    assert unused_private_helpers(source) == ["_dead", "_Gone", "_stale"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_engine_module_has_no_dead_private_helper(path):
    assert unused_private_helpers(path.read_text(encoding="utf-8")) == []
