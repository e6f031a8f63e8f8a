"""Delaunay-type variables and the ladder of compatible Poisson structures.

On the Delaunay chart (I, phi) the bound Kepler energy is
``H = -m k^2 / (2 I3^2)`` and the weighted canonical pair is

    P = sum_j N_j d/dI_j ^ d/dphi^j,   omega = sum_j (1/N_j) dI_j ^ dphi^j,

with weights N = (1, M, 1).  For every level h >= 0 the ladder members are

    F_h = -m k^2 / ((2 + h) I3^{2+h}),
    P_h = sum_j N_j^{h+1} I_j^h  d/dI_j ^ d/dphi^j,
    omega_h = its inverse, entries N_j^{-(h+1)} I_j^{-h},
    T_h = P_h o P^{-1},  diagonal with entries N_j^h I_j^h on both blocks,

and the level-h bracket weight matrix is diag(I1^h, M^{h+1} I2^h, I3^h).
The flow field is the same at every level: the h-th energy generates it
through the h-th bracket.

Action-angle images of all tensors are produced by exact transport through
the constant linear chart map; the separately displayed component tables for
that chart are kept as evaluators purely so reports can diff them against
the transported truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import duals
from .charts import forward_jacobian, inverse_jacobian
from .errors import ChartDomainError
from .geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    TensorField,
    VectorField,
    flat_sharp_composition,
    gradient,
    interior_product,
    max_abs,
    nijenhuis_torsion,
    schouten_bracket,
)
from .reduced import ReducedParams
from .report import SuiteReport


@dataclass(frozen=True)
class DelaunayState:
    I1: float
    I2: float
    I3: float
    phi1: float
    phi2: float
    phi3: float

    def __post_init__(self):
        if self.I3 == 0.0:
            raise ChartDomainError("Delaunay action I3 must be nonzero")

    def as_point(self) -> PhasePoint:
        return PhasePoint((self.I1, self.I2, self.I3, self.phi1, self.phi2, self.phi3),
                          Chart.DELAUNAY)

    @classmethod
    def from_point(cls, x: PhasePoint) -> "DelaunayState":
        return cls(*x.coords)


@dataclass(frozen=True)
class OrbitalElements:
    """Classical bound-orbit elements: semi-major axis, eccentricity,
    inclination, mean motion, pericenter epoch."""

    a: float
    e: float
    inclination: float
    n: float
    t0: float

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("semi-major axis must be positive")
        if not 0.0 <= self.e < 1.0:
            raise ValueError("eccentricity must lie in [0, 1)")
        if not 0.0 <= self.inclination <= math.pi:
            raise ValueError("inclination must lie in [0, pi]")


@dataclass(frozen=True)
class ClassicalDelaunay:
    """Delaunay actions of classical elements plus the mean-anomaly map."""

    I1: float
    I2: float
    I3: float
    mean_anomaly: Callable[[float], float]


def classical_delaunay(el: OrbitalElements, m: float, k: float) -> ClassicalDelaunay:
    """I1 = sqrt(mka(1-e^2)) cos xi, I2 = sqrt(mka(1-e^2)), I3 = sqrt(mka);
    the anomaly angle is n (t - t0)."""
    g = math.sqrt(m * k * el.a * (1.0 - el.e**2))
    l3 = math.sqrt(m * k * el.a)
    return ClassicalDelaunay(
        I1=g * math.cos(el.inclination),
        I2=g,
        I3=l3,
        mean_anomaly=lambda t: el.n * (t - el.t0),
    )


def weight_vector(rp: ReducedParams) -> tuple:
    return (1.0, rp.M, 1.0)


def delaunay_energy_field(rp: ReducedParams) -> ScalarField:
    m, k = rp.m, rp.k

    def f(c):
        return -m * k**2 / (2.0 * c[2] ** 2)

    return ScalarField(Chart.DELAUNAY, f, name="H")


def ladder_energy_field(h: int, rp: ReducedParams, chart: Chart = Chart.DELAUNAY) -> ScalarField:
    """Level-h energy ``F_h = -m k^2 / ((2 + h) I3^{2+h})``; level 0 is H."""
    m, k, M = rp.m, rp.k, rp.M

    if chart is Chart.DELAUNAY:
        def f(c):
            return -m * k**2 / ((2.0 + h) * c[2] ** (2 + h))
    else:
        def f(c):
            s = c[0] + M * c[1] + c[2]
            return -m * k**2 / ((2.0 + h) * s ** (2 + h))

    return ScalarField(chart, f, name=f"F{h}")


def delaunay_flow_field(rp: ReducedParams) -> VectorField:
    m, k = rp.m, rp.k

    def f(c):
        return [0.0, 0.0, 0.0, 0.0, 0.0, m * k**2 / c[2] ** 3]

    return VectorField(Chart.DELAUNAY, f, name="X_H")


def _diag_pair_matrix(w):
    """6x6 antisymmetric matrix coupling (I_j, phi^j) with the weights ``w``."""
    mat = [[0.0] * 6 for _ in range(6)]
    for j in range(3):
        mat[j][3 + j] = w[j]
        mat[3 + j][j] = -w[j]
    return mat


def level_bivector(h: int, rp: ReducedParams) -> TensorField:
    N = weight_vector(rp)

    def func(c):
        w = [N[j] ** (h + 1) * c[j] ** h for j in range(3)]
        return _diag_pair_matrix(w)

    return TensorField(Chart.DELAUNAY, func, "uu", name=f"P{h}")


def level_two_form(h: int, rp: ReducedParams) -> TensorField:
    N = weight_vector(rp)

    def func(c):
        w = [1.0 / (N[j] ** (h + 1) * c[j] ** h) for j in range(3)]
        return _diag_pair_matrix(w)

    return TensorField(Chart.DELAUNAY, func, "dd", name=f"omega{h}")


def recursion_operator(h: int, rp: ReducedParams) -> TensorField:
    N = weight_vector(rp)

    def func(c):
        mat = [[0.0] * 6 for _ in range(6)]
        for j in range(3):
            t = N[j] ** h * c[j] ** h
            mat[j][j] = t
            mat[3 + j][3 + j] = t
        return mat

    return TensorField(Chart.DELAUNAY, func, "ud", name=f"T{h}")


def level_weight_matrix(h: int, rp: ReducedParams, c) -> list:
    """diag(I1^h, M^{h+1} I2^h, I3^h), the level-h bracket weights."""
    M = rp.M
    return [
        [c[0] ** h, 0.0, 0.0],
        [0.0, M ** (h + 1) * c[1] ** h, 0.0],
        [0.0, 0.0, c[2] ** h],
    ]


def lambda_bracket(f: ScalarField, g: ScalarField, x, h: int, rp: ReducedParams):
    """Level-h bracket sum_ij W^i_j (d_I_i f d_phi_j g - d_phi_j f d_I_i g)."""
    coords = list(x.coords) if isinstance(x, PhasePoint) else list(x)
    W = level_weight_matrix(h, rp, coords)
    df = duals.grad(f.func, coords)
    dg = duals.grad(g.func, coords)
    total = 0.0
    for i in range(3):
        for j in range(3):
            if W[i][j] == 0.0:
                continue
            total = total + W[i][j] * (df[i] * dg[3 + j] - df[3 + j] * dg[i])
    return total


@dataclass(frozen=True)
class HierarchyLevel:
    h: int
    energy: ScalarField
    bivector: TensorField
    two_form: TensorField
    recursion: TensorField


def hierarchy_level(h: int, rp: ReducedParams) -> HierarchyLevel:
    if h < 0:
        raise ValueError("level index must be non-negative")
    return HierarchyLevel(
        h=h,
        energy=ladder_energy_field(h, rp),
        bivector=level_bivector(h, rp),
        two_form=level_two_form(h, rp),
        recursion=recursion_operator(h, rp),
    )


# -- exact transport into the action-angle chart ------------------------------


def _matmul(A, B):
    n, mlen, p = len(A), len(B), len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(mlen)) for j in range(p)] for i in range(n)
    ]


def _fwd_map(rp: ReducedParams):
    Dfwd = [list(row) for row in forward_jacobian(rp)]

    def fwd(c):
        return [sum(Dfwd[i][j] * c[j] for j in range(6) if Dfwd[i][j] != 0.0) for i in range(6)]

    return fwd, Dfwd


def transported_bivector(h: int, rp: ReducedParams) -> TensorField:
    """Level-h bivector pushed to the action-angle chart (exact Jacobians)."""
    src = level_bivector(h, rp)
    fwd, _ = _fwd_map(rp)
    Dinv = [list(row) for row in inverse_jacobian(rp)]

    def func(c):
        P = src.func(fwd(c))
        M1 = _matmul(Dinv, P)
        full = [
            [sum(M1[i][k] * Dinv[j][k] for k in range(6)) for j in range(6)]
            for i in range(6)
        ]
        out = [[0.0] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                out[i][j] = full[i][j]
                out[j][i] = -full[i][j]
        return out

    return TensorField(Chart.ACTION_ANGLE, func, "uu", name=f"P{h}_aa")


def transported_two_form(h: int, rp: ReducedParams) -> TensorField:
    src = level_two_form(h, rp)
    fwd, Dfwd = _fwd_map(rp)

    def func(c):
        W = src.func(fwd(c))
        M1 = _matmul(W, Dfwd)
        full = [
            [sum(Dfwd[k][i] * M1[k][j] for k in range(6)) for j in range(6)]
            for i in range(6)
        ]
        out = [[0.0] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                out[i][j] = full[i][j]
                out[j][i] = -full[i][j]
        return out

    return TensorField(Chart.ACTION_ANGLE, func, "dd", name=f"omega{h}_aa")


def transported_recursion(h: int, rp: ReducedParams) -> TensorField:
    src = recursion_operator(h, rp)
    fwd, Dfwd = _fwd_map(rp)
    Dinv = [list(row) for row in inverse_jacobian(rp)]

    def func(c):
        T = src.func(fwd(c))
        return _matmul(_matmul(Dinv, T), Dfwd)

    return TensorField(Chart.ACTION_ANGLE, func, "ud", name=f"T{h}_aa")


def hierarchy_in_action_angle(h: int, rp: ReducedParams):
    """(bivector, two-form, recursion operator) of level h on (J, varphi)."""
    return transported_bivector(h, rp), transported_two_form(h, rp), transported_recursion(h, rp)


# -- displayed action-angle component tables (for report diffs) ---------------


def displayed_bivector_table(h: int, rp: ReducedParams, c) -> list:
    """The separately displayed (J, varphi) components of the level-h bivector.

    Kept verbatim as an evaluator so reports can diff it against the exact
    transport; its internal relation (the (2,4) entry equals the difference
    of the (1,4) and (2,5) entries over M) holds by construction.
    """
    m, k, M = rp.m, rp.k, rp.M
    s = c[0] + M * c[1] + c[2]
    H = -m * k**2 / (2.0 * s**2)
    lt = M * c[1] + c[2]
    p14 = (k * math.sqrt(-m / (2.0 * H))) ** h
    p25 = M**h * lt**h
    p36 = c[2] ** h
    p24 = (p14 - p25) / M
    p34 = M * p24
    p35 = M * (p25 - p36)
    out = [[0.0] * 6 for _ in range(6)]
    entries = {(0, 3): p14, (1, 3): p24, (1, 4): p25, (2, 3): p34, (2, 4): p35, (2, 5): p36}
    for (i, j), v in entries.items():
        out[i][j] = v
        out[j][i] = -v
    return out


def displayed_two_form_table(h: int, rp: ReducedParams, c) -> list:
    m, k, M = rp.m, rp.k, rp.M
    s = c[0] + M * c[1] + c[2]
    H = -m * k**2 / (2.0 * s**2)
    lt = M * c[1] + c[2]
    w41 = (math.sqrt(-2.0 * H / m) / k) ** h
    w52 = 1.0 / (M**h * lt**h)
    w63 = c[2] ** (-h)
    w42 = M * (w41 - w52)
    w43 = w42 / M
    w53 = (w52 - w63) / M
    out = [[0.0] * 6 for _ in range(6)]
    entries = {(3, 0): w41, (3, 1): w42, (4, 1): w52, (3, 2): w43, (4, 2): w53, (5, 2): w63}
    for (i, j), v in entries.items():
        out[i][j] = v
        out[j][i] = -v
    return out


# -- canonical rescaling of the third pair ------------------------------------


def energy_rescaled_map(rp: ReducedParams):
    """The map (I, phi) -> (I1, I2, H, phi1, phi2, scaled phi3).

    The third angle is scaled by k sqrt(m) / (-2H)^{3/2}, which preserves the
    weighted canonical structure; the congruence test in the suite checks it.
    """
    m, k = rp.m, rp.k

    def fwd(c):
        i3 = c[2]
        H = -m * k**2 / (2.0 * i3**2)
        scale = k * math.sqrt(m) / (-2.0 * H) ** 1.5
        return [c[0], c[1], H, c[3], c[4], scale * c[5]]

    return fwd


# -- negative control ----------------------------------------------------------


def corrupted_first_level_bivector(rp: ReducedParams) -> TensorField:
    """Deliberately broken level-1 bivector for the negative control.

    A bare sign flip of a weight keeps the diagonal family compatible (any
    single-action weights stay mutually Schouten-compatible), so the mutation
    instead swaps one wedge pairing (the second action couples to the first
    angle), which demonstrably breaks the compatibility check.
    """
    M = rp.M

    def func(c):
        mat = [[0.0] * 6 for _ in range(6)]
        mat[0][3] = c[0]
        mat[3][0] = -c[0]
        mat[1][3] = M**2 * c[1]  # wrong pairing: (I2, phi1) instead of (I2, phi2)
        mat[3][1] = -(M**2) * c[1]
        mat[2][5] = c[2]
        mat[5][2] = -c[2]
        return mat

    return TensorField(Chart.DELAUNAY, func, "uu", name="P1_corrupted")


def verify_level(h: int, points, rp: ReducedParams, tolerance: float = 1e-9):
    """Per-level verification battery, one report entry per check.

    Checks at every sample point: (a) Schouten compatibility with the base
    bivector, (b) flow pairing with the level form against dF_h, (c)
    compatibility with every lower level, (d) vanishing torsion of the
    recursion operator on the coordinate frame, (e) flow-invariance of its
    eigenvalues, plus the mutual-inverse identity of the level pair.
    """
    if h < 0:
        raise ValueError("level index must be non-negative")
    rep = SuiteReport(f"hierarchy-level-{h}")
    P0 = level_bivector(0, rp)
    Ph = level_bivector(h, rp)
    om = level_two_form(h, rp)
    Fh = ladder_energy_field(h, rp)
    Th = recursion_operator(h, rp)
    X = delaunay_flow_field(rp)
    N = weight_vector(rp)
    x0 = points[0].coords if points else (0.0,) * 6

    w = max(max_abs(schouten_bracket(Ph, P0, x)) for x in points)
    rep.add("compatibility-base", "level bivector is Schouten-compatible with the base one",
            x0, w, 0.0, w, tolerance)
    for hp in range(1, h):
        w = max(max_abs(schouten_bracket(Ph, level_bivector(hp, rp), x)) for x in points)
        rep.add(f"compatibility-level-{hp}", "level bivectors are mutually Schouten-compatible",
                x0, w, 0.0, w, tolerance)
    w = 0.0
    for x in points:
        ip = interior_product(X, om, x)
        dF = gradient(Fh, x)
        w = max(w, max(abs(duals.value(ip[i]) + duals.value(dF[i])) for i in range(6)))
    rep.add("flow-pairing", "flow contraction with the level form is minus dF_h",
            x0, w, 0.0, w, tolerance)
    w = 0.0
    for x in points:
        comp = flat_sharp_composition(om(x), Ph(x))
        w = max(w, max(abs(comp[i][j] - (1.0 if i == j else 0.0))
                       for i in range(6) for j in range(6)))
    rep.add("inverse-pair", "level form and bivector are mutually inverse",
            x0, w, 0.0, w, tolerance)
    w = 0.0
    for x in points:
        w = max(w, max_abs(nijenhuis_torsion(Th, x)))
    rep.add("torsion", "recursion operator has vanishing torsion on the coordinate frame",
            x0, w, 0.0, w, tolerance)
    w = 0.0
    for x in points:
        Xv = X(x)
        for j in range(3):
            eig = ScalarField(Chart.DELAUNAY, lambda c, j=j: N[j] ** h * c[j] ** h)
            deig = gradient(eig, x)
            w = max(w, abs(sum(duals.value(Xv[a]) * duals.value(deig[a]) for a in range(6))))
    rep.add("eigenvalue-invariance", "recursion eigenvalues are annihilated by the flow",
            x0, w, 0.0, w, tolerance)
    return rep
