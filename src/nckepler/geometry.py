"""Chart-agnostic differential geometry on the six-dimensional phase space.

Tensor fields are closed-form evaluators over six generic scalars, so every
derivative taken here (gradients, Lie brackets and derivatives, the
Schouten bracket, Nijenhuis torsion) is exact via dual-number forward mode.
Identities are verified pointwise at sampled points, never symbolically.
A check may pass all its points at once as a :func:`batch`, six float64
arrays over the points; every operation here then acts on each point as it
would on that point's floats, to the bit.

Every rank-2 tensor is a :class:`TensorField` whose ``slots`` name the
variance of its two indices: ``"uu"`` for a bivector ``P^{ab}``, ``"dd"``
for a two-form ``w_{ab}`` and ``"ud"`` for a mixed tensor ``T^a_b`` such as
a recursion operator.

Sign and slot conventions, used consistently everywhere:

* wedge components: ``(a ^ b)^{ij} = a^i b^j - a^j b^i`` and likewise with
  lower indices;
* bracket induced by a bivector: ``{f, g}_P = sum_ij d_i f P^{ij} d_j g``;
* Hamiltonian field: ``X_f = P(df, .)``, i.e. ``X^j = sum_i d_i f P^{ij}``,
  so that ``X_f(g) = {f, g}_P``;
* interior product: ``(iota_X w)_j = sum_i X^i w_{ij}``;
* a two-form ``w`` and bivector ``P`` are mutually inverse when the flat map
  ``X -> iota_X w`` composed with the sharp map ``alpha -> alpha . P`` is the
  identity, which in matrices reads ``w^T P = 1``;
* Lie derivative of a tensor along ``Z``: the derivative of each component
  along ``Z``, then per slot a contravariant index subtracts and a covariant
  one adds the contraction with ``dZ``: slot 0 gives
  ``-sum_c T[c][b] d_c Z^a`` or ``+sum_c T[c][b] d_a Z^c``, slot 1 gives
  ``-sum_c T[a][c] d_c Z^b`` or ``+sum_c T[a][c] d_b Z^c``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import compress
from operator import mul, sub
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import duals
from .duals import Dual, value
from .errors import ChartDomainError, config_object, is_number

DIM = 6


class Chart(enum.Enum):
    CARTESIAN = "cartesian"
    SPHERICAL = "spherical"
    ACTION_ANGLE = "action_angle"
    DELAUNAY = "delaunay"


_CHART_COORD_NAMES = {
    Chart.CARTESIAN: ("q1", "q2", "q3", "p1", "p2", "p3"),
    Chart.SPHERICAL: ("r", "theta", "phi", "p_r", "p_theta", "p_phi"),
    Chart.ACTION_ANGLE: ("J1", "J2", "J3", "phi1", "phi2", "phi3"),
    Chart.DELAUNAY: ("I1", "I2", "I3", "phi1", "phi2", "phi3"),
}


def coordinate_names(chart: Chart) -> tuple[str, ...]:
    return _CHART_COORD_NAMES[chart]


def check_chart_domain(coords, chart: Chart) -> None:
    """Raise :class:`ChartDomainError` when finite ``coords`` lie outside
    ``chart``: the spherical chart needs r > 0 and 0 < theta < pi, and the
    other charts take every finite point."""
    if chart is Chart.SPHERICAL:
        r, theta = coords[0], coords[1]
        if r <= 0.0:
            raise ChartDomainError(f"coordinate r must be positive, got {r}")
        if not 0.0 < theta < math.pi:
            raise ChartDomainError(f"coordinate theta must lie in (0, pi), got {theta}")


@dataclass(frozen=True)
class PhasePoint:
    """Six phase-space coordinates tagged with their chart."""

    coords: tuple
    chart: Chart

    def __post_init__(self):
        if len(self.coords) != DIM:
            raise ChartDomainError(f"expected {DIM} coordinates, got {len(self.coords)}")
        vals = tuple(float(c) for c in self.coords)
        object.__setattr__(self, "coords", vals)
        names = coordinate_names(self.chart)
        for name, v in zip(names, vals):
            if not math.isfinite(v):
                raise ChartDomainError(f"coordinate {name} is not finite: {v}")
        check_chart_domain(vals, self.chart)

    @classmethod
    def from_dict(cls, doc) -> "PhasePoint":
        """Parse a state document ``{"coords": [six numbers], "chart": name}``.

        A document that is not an object, names no chart or holds anything
        but finite numbers as coordinates is a ``ValueError``; a point
        outside its chart is a :class:`ChartDomainError`."""
        coords = config_object(doc, "state").get("coords")
        if not isinstance(coords, list) or not all(is_number(v) for v in coords):
            raise ValueError(f"state coords must be a list of finite numbers, got {coords!r}")
        return cls(tuple(coords), Chart(doc.get("chart")))


# ---------------------------------------------------------------------------
# field types: closed-form evaluators over generic scalars
# ---------------------------------------------------------------------------

Evaluator = Callable[[Sequence], object]


def coords_of(x) -> list:
    """The coordinates of a :class:`PhasePoint` or of a plain sequence, as a list."""
    if isinstance(x, PhasePoint):
        return list(x.coords)
    return list(x)


def batch(points) -> list:
    """The coordinates of ``points`` as six float64 arrays over the points:
    one argument that evaluates every point in one pass."""
    return [np.array(col) for col in zip(*(coords_of(x) for x in points))]


@dataclass(frozen=True)
class ScalarField:
    func: Evaluator

    def __call__(self, x):
        return self.func(coords_of(x))


@dataclass(frozen=True)
class VectorField:
    func: Evaluator  # coords -> sequence of 6 contravariant components

    def __call__(self, x):
        return list(self.func(coords_of(x)))


_SLOTS = ("uu", "dd", "ud")


@dataclass(frozen=True)
class TensorField:
    """Rank-2 tensor field; ``slots`` marks each index up (``u``) or down (``d``).

    ``func`` returns the full 6x6 component matrix in one pass.  A ``"ud"``
    tensor acts on vectors as ``(T v)^i = sum_j T[i][j] v^j`` and on
    covectors by transposition."""

    func: Evaluator  # coords -> 6x6 component matrix
    slots: str

    def __post_init__(self):
        if self.slots not in _SLOTS:
            raise ValueError(f"tensor slots must be one of {_SLOTS}, got {self.slots!r}")

    def __call__(self, x):
        return [list(row) for row in self.func(coords_of(x))]


def pair_matrix(w) -> list:
    """6x6 antisymmetric matrix pairing coordinate ``j`` with ``3 + j``
    (an action with its angle, a position with its momentum) by the
    weights ``w``: ``m[j][3+j] = w[j]`` and ``m[3+j][j] = -w[j]``; pass
    negated weights for the opposite orientation."""
    mat = [[0.0] * DIM for _ in range(DIM)]
    for j in range(3):
        mat[j][3 + j] = w[j]
        mat[3 + j][j] = -w[j]
    return mat


def constant_tensor(matrix, slots: str) -> TensorField:
    """Tensor field with constant components; a bivector (``"uu"``) or
    two-form (``"dd"``) matrix must be antisymmetric."""
    m = [[float(matrix[i][j]) for j in range(DIM)] for i in range(DIM)]
    field = TensorField(lambda c: [list(row) for row in m], slots)
    if slots != "ud" and any(m[i][j] != -m[j][i] for i in range(DIM) for j in range(DIM)):
        raise ValueError(f"constant {slots!r} tensor matrix must be antisymmetric")
    return field


# ---------------------------------------------------------------------------
# derivative operations
# ---------------------------------------------------------------------------


def gradient(f: ScalarField, x) -> list:
    """Exact covector of first derivatives of ``f`` at ``x``.

    Works at dual-seeded coordinates too, which is what lets brackets of
    brackets differentiate through this function.
    """
    return duals.grad(f.func, coords_of(x))


def hamiltonian_vector_field(P: TensorField, f: ScalarField) -> VectorField:
    """The field ``X_f = P(df, .)`` whose action on g is ``{f, g}_P``."""

    def evaluate(coords):
        df = duals.grad(f.func, coords)
        mat = P.func(coords)
        return [sum(df[i] * mat[i][j] for i in range(DIM)) for j in range(DIM)]

    return VectorField(evaluate)


def bivector_bracket(P: TensorField, f: ScalarField, g: ScalarField) -> ScalarField:
    """The function ``{f, g}_P = sum df P dg`` as a scalar field."""

    def evaluate(coords):
        df = duals.grad(f.func, coords)
        dg = duals.grad(g.func, coords)
        mat = P.func(coords)
        total = 0.0
        for i in range(DIM):
            for j in range(i + 1, DIM):
                total = total + mat[i][j] * (df[i] * dg[j] - df[j] * dg[i])
        return total

    return ScalarField(evaluate)


class Jet(NamedTuple):
    """A vector or tensor field at one point: its ``value`` and its first
    derivatives ``d``, with ``d[i][l] = d_l F^i`` for a vector and
    ``d[a][b][l] = d_l T^{ab}`` for a tensor; ``slots`` is ``"u"`` for a
    vector and the tensor's slots otherwise."""

    value: tuple
    d: tuple
    slots: str


def _split(v):
    """The value part and the tangents of one component of a seeded pass."""
    return (v.a, v.b) if isinstance(v, Dual) else (v, (0.0,) * DIM)


def jet(F, x) -> Jet:
    """The :class:`Jet` of a vector or tensor field at ``x``, from one
    :func:`~duals.seeded_pass`: its values are the field's float values to
    the bit.  At dual-seeded coordinates both are duals of the outer layer."""
    if isinstance(F, VectorField):
        return Jet(*zip(*map(_split, duals.seeded_pass(F.func, coords_of(x)))), "u")
    if isinstance(F, TensorField):
        rows = [tuple(zip(*map(_split, row))) for row in duals.seeded_pass(F.func, coords_of(x))]
        return Jet(*zip(*rows), F.slots)
    raise TypeError(f"unsupported tensor type {type(F)!r}")


def lie_derivative_of_jets(Z: Jet, T: Jet) -> list:
    """Lie derivative of the field of jet ``T`` along the vector field of jet
    ``Z``, at the point of both jets.

    A vector gives the Lie bracket ``[Z, T]^i = sum_j (Z^j d_j T^i - T^j
    d_j Z^i)``.  A tensor gives the directional derivative of each component
    (components of ``Z`` that are zero at every point skipped) plus one
    Leibniz sum per slot (see the module docstring for the signs); its
    values are read as floats.  A Leibniz term whose tensor entry is the
    float ``0.0`` is skipped too, so it forms no ``0.0 * inf`` NaN.
    """
    if T.slots == "u":
        Zv, dZ, Tv, dT = Z.value, Z.d, T.value, T.d
        return [sum(map(sub, map(mul, Zv, dT[i]), map(mul, Tv, dZ[i]))) for i in range(DIM)]
    Zv = [value(v) for v in Z.value]
    dZ = Z.d  # dZ[i][j] = d_j Z^i
    dZt = list(zip(*dZ))
    mat = [[value(e) for e in row] for row in T.value]
    live = [[type(e) is not float or e != 0.0 for e in row] for row in mat]
    cols, live_cols = list(zip(*mat)), list(zip(*live))
    moving = [l for l in range(DIM) if duals.anywhere(Zv[l] != 0.0)]
    up0, up1 = (slot == "u" for slot in T.slots)
    left = dZ if up0 else dZt
    right = dZ if up1 else dZt
    out = [[0.0] * DIM for _ in range(DIM)]
    for a in range(DIM):
        for b in range(DIM):
            d = T.d[a][b]
            s = 0.0
            for l in moving:
                s += Zv[l] * d[l]
            t = sum(map(mul, compress(cols[b], live_cols[b]), compress(left[a], live_cols[b])))
            s = s - t if up0 else s + t
            t = sum(map(mul, compress(mat[a], live[a]), compress(right[b], live[a])))
            s = s - t if up1 else s + t
            out[a][b] = s
    return out


def lie_bracket(X: VectorField, Y: VectorField, x) -> list:
    """``[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i)``, derivatives exact."""
    coords = coords_of(x)
    return lie_derivative_of_jets(jet(X, coords), jet(Y, coords))


def lie_bracket_field(X: VectorField, Y: VectorField) -> VectorField:
    return VectorField(lambda c: lie_bracket(X, Y, c))


def interior_product(X: VectorField, omega: TensorField, x) -> list:
    """``(iota_X omega)_j = sum_i X^i omega_{ij}``."""
    coords = coords_of(x)
    Xv = X.func(coords)
    w = omega(coords)
    return [sum(Xv[i] * w[i][j] for i in range(DIM)) for j in range(DIM)]


def nijenhuis_torsion(T: TensorField, x) -> list:
    """Nijenhuis torsion of ``T`` on the coordinate frame at ``x``.

    Returns ``N[a][b]``, the six components of ``N_T(d_a, d_b)`` for every
    frame pair, where ``N_T(X,Y) = [TX,TY] - T[TX,Y] - T[X,TY] + T^2[X,Y]``.
    Coordinate fields commute, so the last term vanishes, and with
    ``m[i][j] = T^i_j`` and ``d[i][j][l] = d_l T^i_j`` the rest reads

        N^i = sum_j (m[j][a] d[i][b][j] - m[j][b] d[i][a][j])
              - sum_k m[i][k] (-d[k][a][b]) - sum_k m[i][k] d[k][b][a].

    ``m`` and every ``d`` come from one seeded pass of ``T.func``.  The
    terms are summed in the order the four Lie brackets of the definition
    produce them, so each component equals the bracket-by-bracket value
    exactly.  ``N[b][a]`` is stored as ``-N[a][b]``, so the result is
    antisymmetric to the bit.
    """
    m, d, _ = jet(T, x)

    def tmul(vec):
        return [sum(m[i][j] * vec[j] for j in range(DIM)) for i in range(DIM)]

    N = [[[0.0] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for a in range(DIM):
        for b in range(a + 1, DIM):
            t2 = tmul([-d[k][a][b] for k in range(DIM)])
            t3 = tmul([d[k][b][a] for k in range(DIM)])
            for i in range(DIM):
                t1 = sum(m[j][a] * d[i][b][j] - m[j][b] * d[i][a][j] for j in range(DIM))
                n = t1 - t2[i] - t3[i]
                N[a][b][i] = n
                N[b][a][i] = -n
    return N


def schouten_bracket(P: TensorField, Q: TensorField, x) -> list:
    """Schouten bracket of two bivectors as a fully antisymmetric 3-index array.

    Convention: ``[P,Q]^{ijk} = sum_cyc(i,j,k) sum_l (P^{li} d_l Q^{jk}
    + Q^{li} d_l P^{jk})``, then antisymmetrized over (i,j,k); the result
    vanishes for P = Q exactly when the bracket of P satisfies Jacobi.  The
    cyclic sum ``C`` is invariant under cyclic shifts, so the average over
    the six permutations is ``(C(i,j,k) - C(j,i,k)) / 2``.
    """
    coords = coords_of(x)
    Pm, dP, _ = jet(P, coords)  # dP[i][j][l] = d_l P^{ij}
    Qm, dQ, _ = jet(Q, coords)
    Pm = [[value(e) for e in row] for row in Pm]
    Qm = [[value(e) for e in row] for row in Qm]

    def cyc_term(i, j, k):
        total = 0.0
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l in range(DIM):
                total += Pm[l][a] * dQ[b][c][l] + Qm[l][a] * dP[b][c][l]
        return total

    out = [[[0.0] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i + 1, DIM):
            for k in range(j + 1, DIM):
                s = (cyc_term(i, j, k) - cyc_term(j, i, k)) / 2.0
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    out[a][b][c] = s
                    out[b][a][c] = -s
    return out


def lie_derivative(Z: VectorField, T, x):
    """Lie derivative of ``T`` along ``Z`` at ``x``; rank follows ``T``.

    Scalars give ``Z(f)``; vector and tensor fields go through
    :func:`lie_derivative_of_jets`, derivatives exact.
    """
    coords = coords_of(x)
    if isinstance(T, ScalarField):
        return sum(map(mul, Z.func(coords), duals.grad(T.func, coords)))
    return lie_derivative_of_jets(jet(Z, coords), jet(T, coords))


def flat_sharp_composition(omega_mat, P_mat):
    """Matrix of the flat map of ``omega`` composed with the sharp of ``P``.

    With the slot conventions of this module this is ``omega^T P``; the pair
    is mutually inverse exactly when the result is the identity.
    """
    n = len(P_mat)
    return [
        [sum(omega_mat[k][i] * P_mat[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def inverse_pair_residual(omega_mat, P_mat) -> float:
    """Largest entry of ``flat_sharp_composition(omega_mat, P_mat) - 1``;
    zero exactly when the two-form and bivector are mutually inverse."""
    comp = flat_sharp_composition(omega_mat, P_mat)
    n = len(comp)
    return max_abs(comp[i][j] - (1.0 if i == j else 0.0) for i in range(n) for j in range(n))


def flow_pairing_residual(X: VectorField, omega: TensorField, F: ScalarField, x) -> float:
    """``max_a |(iota_X omega)_a + (dF)_a|`` at ``x``, the worst point of a
    batch; zero exactly when ``X`` is the Hamiltonian flow of ``F`` under
    the two-form ``omega``."""
    ip = interior_product(X, omega, x)
    dF = gradient(F, x)
    return max_abs(value(ip[a]) + value(dF[a]) for a in range(DIM))


def max_abs(x) -> float:
    """Largest absolute value in a scalar, an ndarray or an arbitrarily
    nested sequence (0.0 when empty), and NaN when any value is NaN:
    ``max`` would drop a NaN that is not its first argument, so a residual
    that cannot be evaluated would read as a pass."""
    x = value(x) if isinstance(x, Dual) else x
    if isinstance(x, np.ndarray):
        return float(np.abs(x).max()) if x.size else 0.0  # ndarray.max keeps NaN
    if isinstance(x, (int, float)):
        return abs(float(x))
    worst = 0.0
    for e in x:
        v = abs(e) if type(e) is float else max_abs(e)
        if v > worst or v != v:  # once NaN, no value is greater
            worst = v
    return worst


def dot(u, v):
    """``sum_i u[i] v[i]`` as one left fold from 0.0, so that no ``sum()``
    rounds it: CPython 3.12's ``sum()`` compensates float additions, earlier
    versions do not."""
    total = 0.0
    for a, b in zip(u, v):
        total = total + a * b
    return total


def max_abs_per_point(values):
    """:func:`max_abs` over ``values`` at each point: a float at a single
    point and an array over a batch, NaN wherever any value is NaN."""
    worst = 0.0
    for v in values:
        worst = np.maximum(worst, np.abs(value(v)))
    return worst if isinstance(worst, np.ndarray) else float(worst)
