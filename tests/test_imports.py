"""Every name a package module imports is used in that module.

There is no linter in the toolchain, so this scan keeps dead imports (and
the false dependency edges between layers they suggest) from coming back.
``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import nckepler

PACKAGE_DIR = Path(nckepler.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements of ``source`` and never loaded."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_finds_an_unused_import():
    src = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(src) == ["math", "path"]


def test_scan_counts_attribute_and_annotation_uses():
    src = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Sequence\n"
        "def f(x: Sequence) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(src) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
