"""Forward-mode automatic differentiation on scalars via dual numbers.

Every tensor-field evaluator in this package is written against plain
arithmetic on its six coordinates, so seeding a coordinate with a ``Dual``
yields the exact directional derivative of the evaluator, with no truncation
error beyond floating-point rounding.  Second derivatives come from nesting:
the coefficient slots of a ``Dual`` may themselves hold ``Dual`` values.
"""

from __future__ import annotations

import math


class Dual:
    """A first-order jet ``a + b*eps`` with ``eps**2 = 0``.

    ``a`` and ``b`` are floats or (for nested differentiation) ``Dual``
    instances.  Only the operations the field evaluators need are defined.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0.0):
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r})"

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a + other.a, self.b + other.b)
        return Dual(self.a + other, self.b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a - other.a, self.b - other.b)
        return Dual(self.a - other, self.b)

    def __rsub__(self, other):
        return Dual(other - self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.a
            return Dual(self.a * inv, (self.b - self.a * inv * other.b) * inv)
        inv = 1.0 / other
        return Dual(self.a * inv, self.b * inv)

    def __rtruediv__(self, other):
        inv = 1.0 / self.a
        val = other * inv
        return Dual(val, -val * inv * self.b)

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        # constant exponent only; integer powers keep exactness at a = 0
        if isinstance(exponent, int):
            if exponent == 0:
                return Dual(1.0, self.b * 0.0)
            if exponent == 1:
                return self
            if exponent >= 2:
                ap = self.a ** (exponent - 1)
                return Dual(ap * self.a, self.b * (exponent * ap))
        ap = self.a ** (exponent - 1.0)
        return Dual(ap * self.a, self.b * (exponent * ap))


def value(x):
    """Strip all dual layers, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.a
    return float(x)


def _chain(x, f, df):
    if isinstance(x, Dual):
        return Dual(f(x.a), x.b * df(x.a))
    return f(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.a)
        return Dual(r, x.b / (2.0 * r))
    return math.sqrt(x)


def sin(x):
    return _chain(x, sin, cos) if isinstance(x, Dual) else math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.a), -x.b * sin(x.a))
    return math.cos(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.a), x.b / x.a)
    return math.log(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.a)
        return Dual(e, x.b * e)
    return math.exp(x)


def arcsin(x):
    if isinstance(x, Dual):
        return Dual(arcsin(x.a), x.b / sqrt(1.0 - x.a * x.a))
    return math.asin(x)


def atan2(y, x):
    ya, xa = isinstance(y, Dual), isinstance(x, Dual)
    if not ya and not xa:
        return math.atan2(y, x)
    yv = y if ya else Dual(y)
    xv = x if xa else Dual(x)
    denom = xv.a * xv.a + yv.a * yv.a
    return Dual(atan2(yv.a, xv.a), (xv.a * yv.b - yv.a * xv.b) / denom)


def grad(func, coords):
    """Exact gradient of ``func`` with respect to each coordinate.

    ``coords`` may itself contain ``Dual`` entries (nested differentiation).
    Every coordinate is wrapped into the new dual layer, zero-seeded unless
    it is the active direction, so outer layers pass through untouched.
    """
    coords = list(coords)
    n = len(coords)
    out = []
    for i in range(n):
        seeded = [Dual(c, 1.0 if j == i else 0.0) for j, c in enumerate(coords)]
        v = func(seeded)
        out.append(v.b if isinstance(v, Dual) else 0.0)
    return out


def jacobian(vec_func, coords):
    """Exact Jacobian J[i][j] = d(vec_func_i)/d(coords_j)."""
    coords = list(coords)
    n = len(coords)
    cols = []
    for j in range(n):
        seeded = [Dual(c, 1.0 if i == j else 0.0) for i, c in enumerate(coords)]
        v = vec_func(seeded)
        cols.append([c.b if isinstance(c, Dual) else 0.0 for c in v])
    rows = len(cols[0])
    return [[cols[j][i] for j in range(n)] for i in range(rows)]


def hessian(func, coords):
    """Exact Hessian via nested duals: H[i][j] = d^2 f / dx_i dx_j."""
    coords = list(coords)
    n = len(coords)
    H = [[0.0] * n for _ in range(n)]
    for i in range(n):
        outer = list(coords)
        outer[i] = Dual(coords[i], 1.0)
        gi = grad(func, outer)
        for j in range(n):
            gij = gi[j]
            H[j][i] = gij.b if isinstance(gij, Dual) else 0.0
    return H
