"""Every public function, class and method of the package is used by the
package, and every dataclass field is read by it.

A top-level definition ``f`` of module ``m`` counts as used when the
package loads the bare name ``f`` or the attribute ``m.f`` of the module,
outside the definition itself.  A method or a dataclass field ``f`` of
class ``C`` counts as used only when the package loads it as an
attribute: ``C.f``, ``self.f`` inside ``C``, or ``obj.f`` off anything
other than ``self``.  So a namesake does not keep a definition alive:
``math.sqrt`` is no use of ``duals.sqrt``, ``orbit.angle`` none of a
top-level ``angle``, a local variable ``worst`` none of a method
``worst``, and ``self.save`` inside one class none of a ``save`` of
another.  A dead method that
shares its name with a live attribute still escapes, and a name reached
only through ``getattr`` counts as unused.  Only package modules count: a
call or a read from a test is no use, as code only tests reach is not part
of what the package does.  ``__init__.py`` does not count either: a
re-export alone is no use.
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
    """``(node, owner)`` for the public top-level functions and classes
    (owner None) and the public methods of top-level classes (owner the
    class name)."""
    out = []
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            out.append((node, None))
        if isinstance(node, ast.ClassDef):
            out += [(m, node.name) for m in node.body
                    if isinstance(m, _DEFS[:2]) and not m.name.startswith("_")]
    return out


def loads(tree: ast.Module) -> list:
    """``(key, ids of the enclosing definitions)`` for each load in ``tree``:
    key ``"f"`` for a bare name; for an attribute, ``"C.f"`` alone when it
    is read off ``self`` inside class ``C``, and otherwise ``".f"`` and,
    when it is read off a bare name ``m``, ``"m.f"`` as well."""
    out = []

    def visit(node, enclosing, cls):
        if isinstance(node, _DEFS):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            if base == "self" and cls is not None:
                out.append((f"{cls}.{node.attr}", enclosing))
            else:
                out.append(("." + node.attr, enclosing))
                if base is not None:
                    out.append((f"{base}.{node.attr}", enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, cls)

    visit(tree, frozenset(), None)
    return out


def unused_definitions(module_sources: dict) -> list:
    """Names of the public definitions in ``module_sources`` (file name ->
    source) that no module uses outside the definition itself."""
    trees = {name: ast.parse(src) for name, src in module_sources.items()}
    used = [u for tree in trees.values() for u in loads(tree)]
    dead = []
    for name, tree in trees.items():
        for node, owner in public_definitions(tree):
            keys = ({"." + node.name, f"{owner}.{node.name}"} if owner
                    else {node.name, f"{Path(name).stem}.{node.name}"})
            if not any(k in keys and id(node) not in inside for k, inside in used):
                dead.append(f"{name}:{node.name}")
    return sorted(dead)


def test_scan_finds_an_unused_function_and_method():
    src = (
        "def live():\n    return dead_helper\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n    def used(self):\n        pass\n    def unused(self):\n        pass\n"
    )
    caller = "import m\nm.live()\nm.Box().used()\n"
    assert unused_definitions({"m.py": src, "n.py": caller}) == ["m.py:recursive", "m.py:unused"]


def test_scan_ignores_private_names_and_counts_attribute_loads():
    src = "def _private():\n    pass\nclass Field:\n    @property\n    def theta(self):\n        pass\n"
    caller = "import m\ndef read():\n    return m.Field().theta\n"
    assert unused_definitions({"m.py": src, "n.py": caller}) == ["n.py:read"]


def test_scan_sees_through_namesakes():
    src = (
        "def sqrt(x):\n    return x\n"
        "def angle():\n    pass\n"
        "def cube(x):\n    return x\n"
        "class Report:\n    def worst(self):\n        pass\n"
    )
    caller = (
        "import math\nimport m\n"
        "def run(orbit):\n"
        "    worst = math.sqrt(orbit.angle)\n"
        "    return m.cube(worst) + m.Report\n"
    )
    assert unused_definitions({"m.py": src, "n.py": caller}) == [
        "m.py:angle", "m.py:sqrt", "m.py:worst", "n.py:run"]


def test_scan_reads_self_attributes_as_uses_of_the_own_class_only():
    # Report's self.dump() and self.size keep Report's, not Params'
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass Report:\n    size: int\n"
        "    def dump(self):\n        return self.size\n"
        "    def save(self):\n        return self.dump()\n"
        "@dataclass\nclass Params:\n    size: int\n"
        "    def dump(self):\n        pass\n"
        "    def scale(self):\n        pass\n"
    )
    caller = "import m\nm.Report(1).save()\nm.Params(2).scale()\n"
    modules = {"m.py": src, "n.py": caller}
    assert unused_definitions(modules) == ["m.py:dump"]
    assert unread_fields(modules) == ["m.py:Params.size"]


def test_package_has_no_unused_public_definitions():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unused_definitions(modules) == []


# -- dataclass fields ---------------------------------------------------------


def _is_dataclass_decorator(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def unread_fields(module_sources: dict) -> list:
    """``file:Class.field`` for each field of a top-level dataclass in
    ``module_sources`` that no module loads as an attribute.

    A field set only through the constructor is not read, and neither is
    one whose name is loaded only as a bare name or off ``self`` in another
    class.
    """
    trees = {name: ast.parse(src) for name, src in module_sources.items()}
    read = {key for tree in trees.values() for key, _ in loads(tree)}
    return sorted(
        f"{name}:{node.name}.{stmt.target.id}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not {"." + stmt.target.id, f"{node.name}.{stmt.target.id}"} & read
    )


def test_field_scan_finds_a_field_only_the_constructor_sets():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass Pair:\n    left: float\n    right: float = 0.0\n"
        "@dataclass\nclass Box:\n    size: int\n"
        "class Plain:\n    label: str\n"
        "def make():\n    return Pair(left=1.0, right=2.0).left\n"
    )
    other = "import m\nsize = 3\nprint(size, m.make)\n"
    assert unread_fields({"m.py": src, "n.py": other}) == ["m.py:Box.size", "m.py:Pair.right"]


def test_package_has_no_unread_dataclass_fields():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unread_fields(modules) == []


# -- names inside functions ---------------------------------------------------

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_scope(node):
    """The nodes of ``node``'s body outside any nested scope; a nested
    definition is yielded itself, but not its body."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_scope(child)


def unused_locals(source: str) -> list:
    """``function:name`` for each nested definition or local variable that
    its function binds and never loads; ``_`` is exempt.

    A load anywhere in the function counts, nested functions included, so
    a closure that reads a local keeps it alive.  Names declared ``global``
    or ``nonlocal`` are not locals.
    """
    dead = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_scope(fn))
        declared = {n for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                    for n in node.names}
        bound = [(node.id, node) for node in own
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        bound += [(node.name, node) for node in own if isinstance(node, _DEFS)]
        for name, node in bound:
            if name == "_" or name in declared:
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                       and n.id == name and id(n) not in inside for n in ast.walk(fn)):
                dead.append(f"{fn.name}:{name}")
    return sorted(set(dead))


def test_local_scan_finds_unused_nested_defs_and_locals():
    src = (
        "def f(xs):\n"
        "    total = 0\n"
        "    unused = 1\n"
        "    first, _ = xs\n"
        "    for i, label in xs:\n"
        "        total += i\n"
        "    def helper():\n        return helper()\n"
        "    def used():\n        return total\n"
        "    return used()\n"
    )
    assert unused_locals(src) == ["f:first", "f:helper", "f:label", "f:unused"]


def test_package_has_no_unused_locals():
    found = [f"{p.name}:{d}" for p in MODULES + TESTS for d in unused_locals(p.read_text())]
    assert found == []
