"""Span tracer that wraps the public functions of the nckepler modules.

The wrapping happens from outside the package: every public module-level
function and public method of a class defined in a traced module is
replaced by a wrapper that opens a span for the duration of the call.
Modules import names directly (``from .deformation import
transform_coordinates``), so the wrapper is installed under every name and
in every module-level dict of the package that refers to the original.

Spans are aggregated in memory by name, never stored one by one:

* ``calls``   number of spans closed;
* ``total_s`` inclusive time, counting only the outermost span of a name
  so that recursion is not counted twice;
* ``self_s``  span time minus the time covered by its child spans.

A function is named ``<module>.<function>`` and a method
``<module>.<method>``; each module (layer) is aggregated the same way under
its own name.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

PACKAGE = "nckepler"
LAYERS = (
    "duals", "deformation", "kepler", "symmetry", "reduced", "geometry",
    "hierarchy", "master", "sampling", "report", "suites", "cli",
)

# Arithmetic methods of duals.Dual; each call is one dual operation.
DUAL_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__pow__",
)


class Tracer:
    """Aggregates nested spans by name and by layer."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.stats: dict[str, dict] = {}
        self.counts: Counter = Counter()
        self._stack: list = []  # open spans: [name, layer, start, child time]
        self._open: Counter = Counter()

    def enter(self, name: str, layer: str):
        self._open[name] += 1
        self._open[layer] += 1
        self._stack.append([name, layer, self._clock(), 0.0])

    def exit(self):
        name, layer, start, child_s = self._stack.pop()
        duration = self._clock() - start
        if self._stack:
            self._stack[-1][3] += duration
        for key in (name, layer):
            self._open[key] -= 1
            st = self.stats.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += duration - child_s
            if self._open[key] == 0:
                st["total_s"] += duration

    def span(self, name: str, layer: str, fn):
        """Return ``fn`` wrapped in a span called ``name`` of ``layer``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def counter(self, key: str, fn):
        """Return ``fn`` wrapped so each call adds one to ``counts[key]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted


def _public_callables(module):
    """Yield ``(owner, attribute, function)`` for each callable to wrap."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield module, attr, obj
        elif isinstance(obj, type):
            for meth, member in list(vars(obj).items()):
                if not meth.startswith("_") and isinstance(member, types.FunctionType):
                    yield obj, meth, member


def _trace_integrate_field(tracer: Tracer, integrate_field):
    """Count the right-hand-side calls and completed steps of each run."""
    rhs_span = functools.partial(tracer.span, "kepler.rhs", "kepler")

    @functools.wraps(integrate_field)
    def traced(x0, rhs, *args, **kwargs):
        traj = integrate_field(x0, rhs_span(rhs), *args, **kwargs)
        tracer.counts["kepler.steps"] += len(traj.states) - 1
        return traj

    return traced


def instrument(tracer: Tracer) -> list:
    """Wrap every public function of the traced layers; return the names of
    all spans that can occur.

    Call once per process, after the package is imported and before the
    traced work runs.
    """
    wrappers = {}  # id of the original function -> its wrapper
    names = list(LAYERS) + ["kepler.rhs"]
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for owner, attr, fn in _public_callables(module):
            names.append(f"{layer}.{attr}")
            wrapped = tracer.span(names[-1], layer, fn)
            if owner is module:
                wrappers[id(fn)] = wrapped
            else:
                setattr(owner, attr, wrapped)
    integrate_field = sys.modules[f"{PACKAGE}.kepler"].integrate_field
    wrappers[id(integrate_field)] = _trace_integrate_field(tracer, wrappers[id(integrate_field)])

    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]

    dual = sys.modules[f"{PACKAGE}.duals"].Dual
    for op in DUAL_OPS:
        setattr(dual, op, tracer.counter("duals.dual_ops", vars(dual)[op]))
    return names
