"""Forward-mode automatic differentiation on scalars via vector-mode duals.

Every tensor-field evaluator in this package is written against plain
arithmetic on its six coordinates, so seeding the coordinates with ``Dual``
values yields exact directional derivatives of the evaluator, with no
truncation error beyond floating-point rounding.

A ``Dual`` carries one tangent per seeded direction (ForwardDiff's chunk
mode), so a single evaluator pass on :func:`seed`-ed coordinates gives the
whole gradient or Jacobian.  Each tangent component is updated with exactly
the operations a one-direction pass would apply to it, so every derivative
is bit-for-bit the one a per-direction pass computes.  The value part of
every operation is the float operation itself (``a / b``, ``c / a``,
``a ** n``), so a :func:`seeded_pass` carries the float values as well.

Second derivatives come from nesting: the value and the tangents of a
``Dual`` may themselves be ``Dual`` values of an outer layer.
:func:`hessian` seeds an outer layer with a single tangent per column and
takes the gradient of that inside it.

A coordinate may also be a float64 ndarray over a batch of points, so one
evaluator pass serves every point of a check.  numpy's ``+ - * /`` round
as Python's float operations do, so each point's slice of a batched result
is bit-for-bit that point's float result, provided the evaluators raise
coordinates to powers through :func:`power`, which keeps Python's ``**``
rounding (``np.float_power`` does; ``np.power`` and ``np.square`` differ
in the last bit at some points).
"""

from __future__ import annotations

import math
from operator import add, neg, sub

import numpy as np


class Dual:
    """A first-order jet ``a + sum_k b[k] eps_k`` with ``eps_j eps_k = 0``.

    ``a`` is a float, a float64 ndarray over points or, for nested
    differentiation, a ``Dual`` of an outer layer; ``b`` is a tuple with
    one tangent per seeded direction, each of the same kinds.  Two duals
    combined in one operation must belong to the same layer and carry the
    same number of tangents.  Only the operations the field evaluators need
    are defined.
    """

    __slots__ = ("a", "b")
    __array_ufunc__ = None  # an ndarray operand defers to the Dual's method

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r})"

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a + other.a, tuple(map(add, self.b, other.b)))
        return Dual(self.a + other, self.b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a - other.a, tuple(map(sub, self.b, other.b)))
        return Dual(self.a - other, self.b)

    def __rsub__(self, other):
        return Dual(other - self.a, tuple(map(neg, self.b)))

    def __mul__(self, other):
        a = self.a
        if isinstance(other, Dual):
            oa = other.a
            return Dual(a * oa, tuple([a * y + x * oa for x, y in zip(self.b, other.b)]))
        return Dual(a * other, tuple([x * other for x in self.b]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.a
            val = self.a / other.a
            return Dual(val, tuple([(x - val * y) * inv for x, y in zip(self.b, other.b)]))
        inv = 1.0 / other
        return Dual(self.a / other, tuple([x * inv for x in self.b]))

    def __rtruediv__(self, other):
        inv = 1.0 / self.a
        val = other / self.a
        scale = -val * inv
        return Dual(val, tuple([scale * x for x in self.b]))

    def __neg__(self):
        return Dual(-self.a, tuple(map(neg, self.b)))

    def __pos__(self):
        return self

    def __pow__(self, n):
        """``a ** n`` for a constant ``n``, integral or, for a positive
        ``a``, any real, with the tangent ``n a ** (n - 1)`` times ``b``.
        The tangent's power is formed first and raises ``OverflowError``
        where it leaves the float range, as float ``**`` does, even where
        ``a ** n`` is finite: ``n = -1`` raises for |a| below about
        7.5e-155, where ``a ** -2`` is not representable."""
        if n == 0:
            return Dual(power(self.a, 0), tuple([x * 0.0 for x in self.b]))
        if n == 1:
            return self
        scale = n * power(self.a, n - 1)
        return Dual(power(self.a, n), tuple([x * scale for x in self.b]))


def power(x, n):
    """``x ** n`` for an integral ``n`` or, for a positive ``x``, any real
    ``n``; on an ndarray ``np.float_power``, which rounds as Python's ``**``
    at every element and raises its ``ZeroDivisionError`` and
    ``OverflowError`` (finite base only)."""
    if isinstance(x, np.ndarray):
        if n < 0 and (x == 0.0).any():
            raise ZeroDivisionError("0.0 cannot be raised to a negative power")
        with np.errstate(over="ignore"):
            r = np.float_power(x, n)
        if np.isinf(r).any() and (np.isinf(r) & np.isfinite(x)).any():
            raise OverflowError(34, "Numerical result out of range")
        return r
    return x**n


def _each(f, x: np.ndarray) -> np.ndarray:
    """``f`` of each element of ``x`` as a Python float: every point of a
    batch rounds, and fails, as its float evaluation does."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


def anywhere(mask) -> bool:
    """Whether ``mask``, a comparison at one point (a bool) or over a batch
    of points (a bool ndarray), holds at any point."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def first(v, mask):
    """``v`` at the first point where ``mask`` holds; ``v`` itself at one point."""
    return float(v[mask][0]) if isinstance(v, np.ndarray) else v


def value(x):
    """Strip all dual layers, returning the underlying float, or the
    underlying array of a batch of points."""
    while isinstance(x, Dual):
        x = x.a
    return x if isinstance(x, np.ndarray) else float(x)


def seed(coords) -> list:
    """Wrap each coordinate in a new dual layer, with unit tangents.

    Coordinate ``i`` gets the tangent tuple of the ``i``-th unit vector, so
    one evaluator pass on the result carries every partial derivative.
    ``coords`` may hold ``Dual`` entries of outer layers, which pass through
    untouched as the values of the new layer.
    """
    n = len(coords)
    return [
        Dual(c, tuple([1.0 if j == i else 0.0 for j in range(n)]))
        for i, c in enumerate(coords)
    ]


def tangents(v, n: int) -> tuple:
    """The ``n`` tangents of ``v``: zeros when ``v`` is no ``Dual``."""
    return v.b if isinstance(v, Dual) else (0.0,) * n


def sqrt(x):
    """Square root; on an ndarray ``np.sqrt``, which rounds correctly as
    ``math.sqrt`` does, and raises ``math.sqrt``'s ``ValueError`` when any
    entry is negative."""
    if isinstance(x, Dual):
        r = sqrt(x.a)
        d = 2.0 * r
        return Dual(r, tuple([y / d for y in x.b]))
    if isinstance(x, np.ndarray):
        if (x < 0.0).any():
            raise ValueError("math domain error")
        return np.sqrt(x)
    return math.sqrt(x)


def sin(x):
    if isinstance(x, Dual):
        c = cos(x.a)
        return Dual(sin(x.a), tuple([y * c for y in x.b]))
    return _each(math.sin, x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        s = sin(x.a)
        return Dual(cos(x.a), tuple([(-y) * s for y in x.b]))
    return _each(math.cos, x) if isinstance(x, np.ndarray) else math.cos(x)


# tan and asin take floats and batches only: no evaluator seeds them yet
def tan(x):
    return _each(math.tan, x) if isinstance(x, np.ndarray) else math.tan(x)


def asin(x):
    return _each(math.asin, x) if isinstance(x, np.ndarray) else math.asin(x)


def log(x):
    if isinstance(x, Dual):
        a = x.a
        return Dual(log(a), tuple([y / a for y in x.b]))
    return _each(math.log, x) if isinstance(x, np.ndarray) else math.log(x)


def seeded_pass(func, coords):
    """``func`` on :func:`seed`-ed ``coords``: each result carries its float
    value (``.a``) and all its first derivatives (``.b``)."""
    return func(seed(list(coords)))


def grad(func, coords):
    """Exact gradient of ``func`` with respect to each coordinate.

    One :func:`seeded_pass`.  ``coords`` may itself contain ``Dual``
    entries (nested differentiation); the gradient entries are then duals
    of that outer layer.
    """
    coords = list(coords)
    return list(tangents(seeded_pass(func, coords), len(coords)))


def jacobian(vec_func, coords):
    """Exact Jacobian J[i][j] = d(vec_func_i)/d(coords_j), in one pass."""
    coords = list(coords)
    return [list(tangents(v, len(coords))) for v in seeded_pass(vec_func, coords)]


def hessian(func, coords):
    """Exact Hessian via nested duals: H[i][j] = d^2 f / dx_i dx_j.

    Column ``i`` seeds an outer layer with one tangent on coordinate ``i``
    only and takes the gradient inside it; the other coordinates stay
    plain floats in that layer.
    """
    coords = list(coords)
    n = len(coords)
    H = [[0.0] * n for _ in range(n)]
    for i in range(n):
        outer = list(coords)
        outer[i] = Dual(coords[i], (1.0,))
        for j, g in enumerate(grad(func, outer)):
            H[j][i] = tangents(g, 1)[0]
    return H
