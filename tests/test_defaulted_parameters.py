"""Every defaulted parameter of a module-level package function is passed by
some call in the package.

A default that no caller overrides is a knob nobody turns: it belongs in a
module constant, not in the signature.  A call passes parameter ``p`` of
``f`` when it calls ``f`` (a bare name ``f`` or an attribute ``.f``) with
``p`` by keyword, with enough positional arguments to reach ``p``, or with
``*args`` or ``**kwargs``.  As in ``tests/test_dead_code.py``, only package
modules count, and a call from a test is no use.

The one exception is ``cli.main``'s ``argv``: the entry point's default
reads the command line, and tests and the benchmark harness pass it.  The
guard also fails when the exception no longer applies.
"""

import ast
from pathlib import Path

import nckepler

MODULES = sorted(p for p in Path(nckepler.__file__).parent.glob("*.py") if p.name != "__init__.py")
EXCEPTIONS = ["cli.py:main(argv)"]


def _defaulted(fn: ast.FunctionDef) -> list:
    """``(name, position)`` of each defaulted parameter of ``fn``; keyword-only
    parameters have position None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    out = [(a.arg, i) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call: ast.Call, name: str, position) -> bool:
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def unset_defaults(module_sources: dict) -> list:
    """``file:function(parameter)`` for each defaulted parameter of a
    top-level function in ``module_sources`` that no call there passes."""
    trees = {name: ast.parse(src) for name, src in module_sources.items()}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = []
    for name, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for param, position in _defaulted(fn):
                if not any(_callee(c) == fn.name and _passes(c, param, position) for c in calls):
                    unset.append(f"{name}:{fn.name}({param})")
    return sorted(unset)


def test_scan_finds_a_default_no_call_passes():
    src = (
        "def step(x, tol=1e-9, cap=10, *, log=False):\n    return x\n"
        "def walk(x, n=3):\n    return x\n"
        "def spread(x, a=1, b=2):\n    return x\n"
        "class Box:\n    def size(self, unit='m'):\n        pass\n"
    )
    caller = (
        "import m\n"
        "m.step(1.0, 1e-6)\n"
        "m.step(1.0, log=True)\n"
        "walk = 2\n"
        "m.spread(*[1, 2, 3])\n"
    )
    assert unset_defaults({"m.py": src, "n.py": caller}) == ["m.py:step(cap)", "m.py:walk(n)"]


def test_every_package_default_is_passed_by_some_call():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unset_defaults(modules) == EXCEPTIONS
