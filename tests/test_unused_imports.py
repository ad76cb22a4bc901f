"""Every engine module uses what it imports.

A name bound by ``import`` or ``from ... import`` and never read again is a
stale import: it slows start-up and hides which module depends on which.
The package ``__init__`` re-exports its imports, so it is not checked.
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


def test_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\n"
              "from math import gcd, lcm\n"
              "os.path.join(js.dumps(gcd(1, 2)))\n")
    assert unused_imports(source) == ["lcm"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_engine_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
