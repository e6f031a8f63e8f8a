"""Every public function, class and method of the package is used somewhere.

A definition counts as used when its name is loaded (as a bare name or as
an attribute) anywhere in the package or the tests, outside the definition
itself.  ``__init__.py`` does not count: a re-export alone is no use.  The
match is by name only, so a dead method that shares its name with a live
one escapes, and a name reached only through ``getattr`` counts as unused.
"""

import ast
from pathlib import Path

import nckepler

PACKAGE_DIR = Path(nckepler.__file__).parent
TESTS_DIR = Path(__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(TESTS_DIR.glob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree: ast.Module) -> list:
    """Public top-level functions and classes, and the public methods of
    top-level classes, as AST nodes."""
    out = []
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out += [m for m in node.body
                    if isinstance(m, _DEFS[:2]) and not m.name.startswith("_")]
    return out


def loads(tree: ast.Module) -> list:
    """``(name, ids of the enclosing definitions)`` for each name or
    attribute that ``tree`` loads."""
    out = []

    def visit(node, enclosing):
        if isinstance(node, _DEFS):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def unused_definitions(module_sources: dict, other_sources: list) -> list:
    """Names of the public definitions in ``module_sources`` (file name ->
    source) that no source in either argument loads outside themselves."""
    trees = {name: ast.parse(src) for name, src in module_sources.items()}
    used = [u for tree in trees.values() for u in loads(tree)]
    used += [u for src in other_sources for u in loads(ast.parse(src))]
    dead = []
    for name, tree in trees.items():
        for node in public_definitions(tree):
            if not any(n == node.name and id(node) not in inside for n, inside in used):
                dead.append(f"{name}:{node.name}")
    return sorted(dead)


def test_scan_finds_an_unused_function_and_method():
    src = (
        "def live():\n    return dead_helper\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n    def used(self):\n        pass\n    def unused(self):\n        pass\n"
    )
    other = "live()\nBox().used()\n"
    assert unused_definitions({"m.py": src}, [other]) == ["m.py:recursive", "m.py:unused"]


def test_scan_ignores_private_names_and_counts_attribute_loads():
    src = "def _private():\n    pass\nclass Field:\n    @property\n    def theta(self):\n        pass\n"
    other = "import m\nm.Field().theta\n"
    assert unused_definitions({"m.py": src}, [other]) == []


def test_package_has_no_unused_public_definitions():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unused_definitions(modules, [p.read_text() for p in TESTS]) == []
