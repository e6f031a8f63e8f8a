"""Chart-agnostic differential geometry on the six-dimensional phase space.

Tensor fields are closed-form evaluators over six generic scalars, so every
derivative taken here (gradients, Lie brackets and derivatives, the
Schouten bracket, Nijenhuis torsion) is exact via dual-number forward mode.
Identities are verified pointwise at sampled points, never symbolically.

Sign and slot conventions, used consistently everywhere:

* wedge components: ``(a ^ b)^{ij} = a^i b^j - a^j b^i`` and likewise with
  lower indices;
* bracket induced by a bivector: ``{f, g}_P = sum_ij d_i f P^{ij} d_j g``;
* Hamiltonian field: ``X_f = P(df, .)``, i.e. ``X^j = sum_i d_i f P^{ij}``,
  so that ``X_f(g) = {f, g}_P``;
* interior product: ``(iota_X w)_j = sum_i X^i w_{ij}``;
* a two-form ``w`` and bivector ``P`` are mutually inverse when the flat map
  ``X -> iota_X w`` composed with the sharp map ``alpha -> alpha . P`` is the
  identity, which in matrices reads ``w^T P = 1``.
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


def _fill_antisymmetric(upper, c):
    mat = [[0.0] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i + 1, DIM):
            e = upper(c, i, j)
            mat[i][j] = e
            mat[j][i] = -e
    return mat


@dataclass(frozen=True)
class BivectorField:
    """Antisymmetric contravariant 2-tensor.

    ``func`` returns the full 6x6 component matrix in one pass; use
    :meth:`from_upper` to guarantee exact antisymmetry by construction."""

    chart: Chart
    func: Evaluator  # coords -> 6x6 antisymmetric matrix
    name: str = ""

    @classmethod
    def from_upper(cls, chart, upper, name=""):
        return cls(chart, lambda c: _fill_antisymmetric(upper, c), name=name)

    def __call__(self, x):
        return [list(row) for row in self.func(_coords_of(x))]


@dataclass(frozen=True)
class TwoForm:
    chart: Chart
    func: Evaluator  # coords -> 6x6 antisymmetric matrix
    name: str = ""

    @classmethod
    def from_upper(cls, chart, upper, name=""):
        return cls(chart, lambda c: _fill_antisymmetric(upper, c), name=name)

    def __call__(self, x):
        return [list(row) for row in self.func(_coords_of(x))]


@dataclass(frozen=True)
class MixedTensor:
    """One contravariant, one covariant slot: acts on vectors as
    ``(T v)^i = sum_j T[i][j] v^j`` and on covectors by transposition."""

    chart: Chart
    func: Evaluator  # coords -> 6x6 matrix T^i_j
    name: str = ""

    def __call__(self, x):
        return [list(row) for row in self.func(_coords_of(x))]


def constant_bivector(chart: Chart, matrix, name: str = "") -> BivectorField:
    m = [[float(matrix[i][j]) for j in range(DIM)] for i in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            if m[i][j] != -m[j][i]:
                raise ValueError("constant bivector matrix must be antisymmetric")
    return BivectorField(chart, lambda c: [list(row) for row in m], name=name)


def constant_two_form(chart: Chart, matrix, name: str = "") -> TwoForm:
    m = [[float(matrix[i][j]) for j in range(DIM)] for i in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            if m[i][j] != -m[j][i]:
                raise ValueError("constant two-form matrix must be antisymmetric")
    return TwoForm(chart, lambda c: [list(row) for row in m], name=name)


# ---------------------------------------------------------------------------
# derivative operations
# ---------------------------------------------------------------------------


def gradient(f: ScalarField, x) -> list:
    """Exact covector of first derivatives of ``f`` at ``x``.

    Works at dual-seeded coordinates too, which is what lets brackets of
    brackets differentiate through this function.
    """
    return duals.grad(f.func, _coords_of(x))


def hamiltonian_vector_field(P: BivectorField, f: ScalarField) -> VectorField:
    """The field ``X_f = P(df, .)`` whose action on g is ``{f, g}_P``."""

    def evaluate(coords):
        df = duals.grad(f.func, coords)
        mat = P.func(coords)
        return [sum(df[i] * mat[i][j] for i in range(DIM)) for j in range(DIM)]

    name = f"X_{f.name}" if f.name else "X"
    return VectorField(P.chart, evaluate, name=name)


def bivector_bracket(P: BivectorField, f: ScalarField, g: ScalarField) -> ScalarField:
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


def interior_product(X: VectorField, omega: TwoForm, x) -> list:
    """``(iota_X omega)_j = sum_i X^i omega_{ij}``."""
    coords = _coords_of(x)
    Xv = X.func(coords)
    w = omega(coords)
    return [sum(Xv[i] * w[i][j] for i in range(DIM)) for j in range(DIM)]


def pairing(alpha: Sequence, X: Sequence):
    """Natural pairing of a covector with a vector."""
    return sum(a * v for a, v in zip(alpha, X))


def nijenhuis_torsion(T: MixedTensor, x) -> list:
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


def schouten_bracket(P: BivectorField, Q: BivectorField, x) -> list:
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

    Scalars give ``Z(f)``, vectors the Lie bracket, and bivectors, two-forms
    and mixed tensors use the Leibniz component formulas with exact
    derivatives.
    """
    coords = _coords_of(x)
    if isinstance(T, ScalarField):
        df = duals.grad(T.func, coords)
        Zv = Z.func(coords)
        return sum(Zv[j] * df[j] for j in range(DIM))
    if isinstance(T, VectorField):
        return lie_bracket(Z, T, coords)

    Zv = [value(v) for v in Z.func(coords)]
    dZ = duals.jacobian(Z.func, coords)  # dZ[i][j] = d_j Z^i

    def directional(mat_func):
        # derivative of each matrix entry along Z
        mm = mat_func(duals.seed(coords))
        out = [[0.0] * DIM for _ in range(DIM)]
        for i in range(DIM):
            for j in range(DIM):
                d = duals.tangents(mm[i][j], DIM)
                for l in range(DIM):
                    if Zv[l] != 0.0:
                        out[i][j] += Zv[l] * d[l]
        return out

    mat = [[value(e) for e in row] for row in T(coords)]

    if isinstance(T, BivectorField):
        adv = directional(lambda c: T(c))
        out = [[0.0] * DIM for _ in range(DIM)]
        for a in range(DIM):
            for b in range(DIM):
                s = adv[a][b]
                s -= sum(mat[c][b] * dZ[a][c] for c in range(DIM))
                s -= sum(mat[a][c] * dZ[b][c] for c in range(DIM))
                out[a][b] = s
        return out
    if isinstance(T, TwoForm):
        adv = directional(lambda c: T(c))
        out = [[0.0] * DIM for _ in range(DIM)]
        for a in range(DIM):
            for b in range(DIM):
                s = adv[a][b]
                s += sum(mat[c][b] * dZ[c][a] for c in range(DIM))
                s += sum(mat[a][c] * dZ[c][b] for c in range(DIM))
                out[a][b] = s
        return out
    if isinstance(T, MixedTensor):
        adv = directional(lambda c: T.func(c))
        out = [[0.0] * DIM for _ in range(DIM)]
        for a in range(DIM):
            for b in range(DIM):
                s = adv[a][b]
                s -= sum(mat[c][b] * dZ[a][c] for c in range(DIM))
                s += sum(mat[a][c] * dZ[c][b] for c in range(DIM))
                out[a][b] = s
        return out
    raise TypeError(f"unsupported tensor type {type(T)!r}")


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
