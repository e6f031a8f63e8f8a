"""Chart-agnostic differential geometry on the six-dimensional phase space.

Tensor fields are closed-form evaluators over six generic scalars, so every
derivative taken here (gradients, Lie brackets and derivatives, the
Schouten bracket, Nijenhuis torsion) is exact via dual-number forward mode.
Identities are verified pointwise at sampled points, never symbolically.

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
from typing import Callable, Sequence

from . import duals
from .duals import Dual, value
from .errors import ChartDomainError

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
        if self.chart is Chart.SPHERICAL:
            r, theta = vals[0], vals[1]
            if r <= 0.0:
                raise ChartDomainError(f"coordinate r must be positive, got {r}")
            if not 0.0 < theta < math.pi:
                raise ChartDomainError(f"coordinate theta must lie in (0, pi), got {theta}")


def point(coords: Sequence[float], chart: Chart) -> PhasePoint:
    return PhasePoint(tuple(coords), chart)


# ---------------------------------------------------------------------------
# field types: closed-form evaluators over generic scalars
# ---------------------------------------------------------------------------

Evaluator = Callable[[Sequence], object]


def _coords_of(x) -> list:
    if isinstance(x, PhasePoint):
        return list(x.coords)
    return list(x)


@dataclass(frozen=True)
class ScalarField:
    chart: Chart
    func: Evaluator
    name: str = ""

    def __call__(self, x):
        return self.func(_coords_of(x))


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    func: Evaluator  # coords -> sequence of 6 contravariant components
    name: str = ""

    def __call__(self, x):
        return list(self.func(_coords_of(x)))


_SLOTS = ("uu", "dd", "ud")


@dataclass(frozen=True)
class TensorField:
    """Rank-2 tensor field; ``slots`` marks each index up (``u``) or down (``d``).

    ``func`` returns the full 6x6 component matrix in one pass.  A ``"ud"``
    tensor acts on vectors as ``(T v)^i = sum_j T[i][j] v^j`` and on
    covectors by transposition."""

    chart: Chart
    func: Evaluator  # coords -> 6x6 component matrix
    slots: str
    name: str = ""

    def __post_init__(self):
        if self.slots not in _SLOTS:
            raise ValueError(f"tensor slots must be one of {_SLOTS}, got {self.slots!r}")

    def __call__(self, x):
        return [list(row) for row in self.func(_coords_of(x))]


def constant_tensor(chart: Chart, matrix, slots: str, name: str = "") -> TensorField:
    """Tensor field with constant components; a bivector (``"uu"``) or
    two-form (``"dd"``) matrix must be antisymmetric."""
    m = [[float(matrix[i][j]) for j in range(DIM)] for i in range(DIM)]
    field = TensorField(chart, lambda c: [list(row) for row in m], slots, name=name)
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
    return duals.grad(f.func, _coords_of(x))


def hamiltonian_vector_field(P: TensorField, f: ScalarField) -> VectorField:
    """The field ``X_f = P(df, .)`` whose action on g is ``{f, g}_P``."""

    def evaluate(coords):
        df = duals.grad(f.func, coords)
        mat = P.func(coords)
        return [sum(df[i] * mat[i][j] for i in range(DIM)) for j in range(DIM)]

    name = f"X_{f.name}" if f.name else "X"
    return VectorField(P.chart, evaluate, name=name)


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

    return ScalarField(P.chart, evaluate, name=f"{{{f.name},{g.name}}}")


def lie_bracket(X: VectorField, Y: VectorField, x) -> list:
    """``[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i)``, derivatives exact."""
    coords = _coords_of(x)
    Xv = X.func(coords)
    Yv = Y.func(coords)
    dY = duals.jacobian(Y.func, coords)
    dX = duals.jacobian(X.func, coords)
    return [
        sum(Xv[j] * dY[i][j] - Yv[j] * dX[i][j] for j in range(DIM))
        for i in range(DIM)
    ]


def lie_bracket_field(X: VectorField, Y: VectorField) -> VectorField:
    return VectorField(X.chart, lambda c: lie_bracket(X, Y, c), name=f"[{X.name},{Y.name}]")


def interior_product(X: VectorField, omega: TensorField, x) -> list:
    """``(iota_X omega)_j = sum_i X^i omega_{ij}``."""
    coords = _coords_of(x)
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

    ``T.func`` runs twice per point: one plain pass for ``m`` and one
    seeded pass for every ``d``.  The terms are summed in the order the
    four Lie brackets of the definition produce them, so each component
    equals the bracket-by-bracket value exactly.  ``N[b][a]`` is stored
    as ``-N[a][b]``, so the result is antisymmetric to the bit.
    """
    coords = _coords_of(x)
    m = T.func(coords)
    d = [[duals.tangents(e, DIM) for e in row] for row in T.func(duals.seed(coords))]

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
    vanishes for P = Q exactly when the bracket of P satisfies Jacobi.
    """
    coords = _coords_of(x)

    def matrices_and_derivs(B):
        mat = B(coords)
        # dmat[i][j][l] = d_l B^{ij}, from one seeded pass
        dmat = [[duals.tangents(e, DIM) for e in row] for row in B.func(duals.seed(coords))]
        return [[value(mat[i][j]) for j in range(DIM)] for i in range(DIM)], dmat

    Pm, dP = matrices_and_derivs(P)
    Qm, dQ = matrices_and_derivs(Q)

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
                s = 0.0
                for (a, b, c), sgn in (
                    ((i, j, k), 1.0), ((j, k, i), 1.0), ((k, i, j), 1.0),
                    ((j, i, k), -1.0), ((i, k, j), -1.0), ((k, j, i), -1.0),
                ):
                    s += sgn * cyc_term(a, b, c)
                s /= 6.0
                for (a, b, c), sgn in (
                    ((i, j, k), 1.0), ((j, k, i), 1.0), ((k, i, j), 1.0),
                    ((j, i, k), -1.0), ((i, k, j), -1.0), ((k, j, i), -1.0),
                ):
                    out[a][b][c] = sgn * s
    return out


def lie_derivative(Z: VectorField, T, x):
    """Lie derivative of ``T`` along ``Z`` at ``x``; rank follows ``T``.

    Scalars give ``Z(f)``, vectors the Lie bracket, and a tensor field the
    directional derivative of its components plus one Leibniz term per slot
    (see the module docstring for the signs), derivatives exact.
    """
    coords = _coords_of(x)
    if isinstance(T, ScalarField):
        df = duals.grad(T.func, coords)
        Zv = Z.func(coords)
        return sum(Zv[j] * df[j] for j in range(DIM))
    if isinstance(T, VectorField):
        return lie_bracket(Z, T, coords)
    if not isinstance(T, TensorField):
        raise TypeError(f"unsupported tensor type {type(T)!r}")

    Zv = [value(v) for v in Z.func(coords)]
    dZ = duals.jacobian(Z.func, coords)  # dZ[i][j] = d_j Z^i
    mat = [[value(e) for e in row] for row in T(coords)]
    # derivative of each matrix entry along Z, from one seeded pass
    seeded = T.func(duals.seed(coords))
    up0, up1 = (slot == "u" for slot in T.slots)
    out = [[0.0] * DIM for _ in range(DIM)]
    for a in range(DIM):
        for b in range(DIM):
            d = duals.tangents(seeded[a][b], DIM)
            s = 0.0
            for l in range(DIM):
                if Zv[l] != 0.0:
                    s += Zv[l] * d[l]
            if up0:
                s -= sum(mat[c][b] * dZ[a][c] for c in range(DIM))
            else:
                s += sum(mat[c][b] * dZ[c][a] for c in range(DIM))
            if up1:
                s -= sum(mat[a][c] * dZ[b][c] for c in range(DIM))
            else:
                s += sum(mat[a][c] * dZ[c][b] for c in range(DIM))
            out[a][b] = s
    return out


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


def max_abs(x) -> float:
    """Largest absolute value in a scalar or arbitrarily nested sequence."""
    if isinstance(x, (int, float, Dual)):
        return abs(value(x))
    return max((max_abs(e) for e in x), default=0.0)
