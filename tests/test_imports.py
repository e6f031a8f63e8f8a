"""Every name a module or test file imports is used in it, and no function
of the package or the tests imports at call time.

There is no linter in the toolchain, so these scans keep dead imports (and
the false dependency edges between layers they suggest) from coming back.
``__init__.py`` is exempt from the first scan: its imports are the
package's re-exports.  An import inside a function body hides a dependency
edge until the function runs, so the package and the tests keep every
import at module level.
"""

import ast
from pathlib import Path

import pytest

import nckepler

PACKAGE_DIR = Path(nckepler.__file__).parent
PACKAGE = sorted(PACKAGE_DIR.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def function_imports(source: str) -> list:
    """Line numbers of the import statements inside function bodies."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(inner.lineno for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


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


def test_scan_finds_imports_inside_functions_and_methods():
    src = (
        "import math\n"
        "def f():\n    from os import sep\n    return sep\n"
        "class C:\n    def m(self):\n        def inner():\n            import json\n"
        "        return inner\n"
    )
    assert function_imports(src) == [3, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: f"tests/{p.name}")
def test_test_file_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path", PACKAGE + TESTS,
    ids=[p.name for p in PACKAGE] + [f"tests/{p.name}" for p in TESTS],
)
def test_module_imports_only_at_module_level(path):
    assert function_imports(path.read_text()) == []
