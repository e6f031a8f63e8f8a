"""Delaunay-type variables and the ladder of compatible Poisson structures.

On the Delaunay chart (I, phi) the bound Kepler energy is
``H = -m k^2 / (2 I3^2)`` and the weighted canonical pair is

    P = sum_j N_j d/dI_j ^ d/dphi^j,   omega = sum_j (1/N_j) dI_j ^ dphi^j,

with weights N = (1, M, 1).  For every level h >= 0 the ladder members are

    F_h = -m k^2 / ((2 + h) I3^{2+h}),
    P_h = sum_j N_j^{h+1} I_j^h  d/dI_j ^ d/dphi^j,
    omega_h = its inverse, entries N_j^{-(h+1)} I_j^{-h},
    T_h = P_h o P^{-1},  diagonal with entries N_j^h I_j^h on both blocks,

and the level-h bracket is the bracket of P_h, whose weight matrix is
diag(I1^h, M^{h+1} I2^h, I3^h).
The flow field, ``master.dynamical_symmetry(0, rp)``, is the same at every
level: the h-th energy generates it through the h-th bracket.

Every action-angle field, the energies and the three tensors of each level,
is the Delaunay one carried by :func:`transported` through the constant
linear chart map; the separately displayed component tables for that chart
are kept as evaluators purely so reports can diff them against the
transported truth.
"""

from __future__ import annotations

import math

from . import duals
from .charts import delaunay_coords, forward_jacobian, inverse_jacobian
from .geometry import (
    ScalarField,
    TensorField,
    bivector_bracket,
    dot,
    pair_matrix,
)
from .reduced import ReducedParams


def classical_delaunay(a: float, m: float, k: float) -> float:
    """The Delaunay action ``I3 = sqrt(m k a)`` of a bound orbit with
    semi-major axis ``a``: the one action that fixes the energy, whatever
    the eccentricity and inclination."""
    return math.sqrt(m * k * a)


def weight_vector(rp: ReducedParams) -> tuple:
    return (1.0, rp.M, 1.0)


def ladder_energy_field(h: int, rp: ReducedParams) -> ScalarField:
    """Level-h energy ``F_h = -m k^2 / ((2 + h) I3^{2+h})``; level 0 is H."""
    m, k = rp.m, rp.k
    return ScalarField(lambda c: -m * k**2 / ((2.0 + h) * duals.power(c[2], 2 + h)))


def level_bivector(h: int, rp: ReducedParams) -> TensorField:
    N = weight_vector(rp)

    def func(c):
        w = [N[j] ** (h + 1) * duals.power(c[j], h) for j in range(3)]
        return pair_matrix(w)

    return TensorField(func, "uu")


def level_two_form(h: int, rp: ReducedParams) -> TensorField:
    N = weight_vector(rp)

    def func(c):
        w = [1.0 / (N[j] ** (h + 1) * duals.power(c[j], h)) for j in range(3)]
        return pair_matrix(w)

    return TensorField(func, "dd")


def recursion_operator(h: int, rp: ReducedParams) -> TensorField:
    N = weight_vector(rp)

    def func(c):
        mat = [[0.0] * 6 for _ in range(6)]
        for j in range(3):
            t = N[j] ** h * duals.power(c[j], h)
            mat[j][j] = t
            mat[3 + j][3 + j] = t
        return mat

    return TensorField(func, "ud")


def lambda_bracket(f: ScalarField, g: ScalarField, x, h: int, rp: ReducedParams):
    """Level-h bracket of ``f`` and ``g`` at ``x``: the bracket of the
    level bivector, ``sum_j W_j (d_I_j f d_phi_j g - d_phi_j f d_I_j g)``."""
    return bivector_bracket(level_bivector(h, rp), f, g)(x)


# -- exact transport into the action-angle chart ------------------------------


def _matmul(A, B):
    columns = list(zip(*B))
    return [[dot(row, col) for col in columns] for row in A]


def _antisymmetric(entries) -> list:
    """6x6 matrix with ``m[i][j] = v`` and ``m[j][i] = -v`` for each
    ``(i, j): v`` of ``entries``, zero elsewhere."""
    out = [[0.0] * 6 for _ in range(6)]
    for (i, j), v in entries.items():
        out[i][j] = v
        out[j][i] = -v
    return out


def transported(F: ScalarField | TensorField, rp: ReducedParams) -> ScalarField | TensorField:
    """``F``, a field on the Delaunay chart, carried to the action-angle
    chart by the constant chart map :func:`~nckepler.charts.delaunay_coords`
    with Jacobian ``D``.

    A scalar field is composed with the map.  A tensor field becomes
    ``L F(map(c)) R`` with ``(L, R)`` by slots: ``(D^-1, D^-T)`` for
    ``"uu"``, ``(D^T, D)`` for ``"dd"`` and ``(D^-1, D)`` for ``"ud"``.  The
    antisymmetric kinds are rebuilt from their upper triangle.
    """
    if isinstance(F, ScalarField):
        return ScalarField(lambda c: F.func(delaunay_coords(c, rp)))
    D, Dinv = forward_jacobian(rp), inverse_jacobian(rp)
    L, R = {"uu": (Dinv, Dinv.T), "dd": (D.T, D), "ud": (Dinv, D)}[F.slots]
    L, R = L.tolist(), R.tolist()

    def func(c):
        full = _matmul(_matmul(L, F.func(delaunay_coords(c, rp))), R)
        if F.slots == "ud":
            return full
        return _antisymmetric({(i, j): full[i][j] for i in range(6) for j in range(i + 1, 6)})

    return TensorField(func, F.slots)


def hierarchy_in_action_angle(h: int, rp: ReducedParams):
    """(bivector, two-form, recursion operator) of level h on (J, varphi)."""
    return tuple(transported(F, rp) for F in (level_bivector(h, rp), level_two_form(h, rp),
                                                recursion_operator(h, rp)))


# -- displayed action-angle component tables (for report diffs) ---------------


def displayed_bivector_table(h: int, rp: ReducedParams, c) -> list:
    """The separately displayed (J, varphi) components of the level-h bivector.

    Kept verbatim as an evaluator so reports can diff it against the exact
    transport; its internal relation (the (2,4) entry equals the difference
    of the (1,4) and (2,5) entries over M) holds by construction.
    """
    m, k, M = rp.m, rp.k, rp.M
    s = c[0] + M * c[1] + c[2]
    H = -m * k**2 / (2.0 * duals.power(s, 2))
    lt = M * c[1] + c[2]
    p14 = duals.power(k * duals.sqrt(-m / (2.0 * H)), h)
    p25 = M**h * duals.power(lt, h)
    p36 = duals.power(c[2], h)
    p24 = (p14 - p25) / M
    p34 = M * p24
    p35 = M * (p25 - p36)
    return _antisymmetric({(0, 3): p14, (1, 3): p24, (1, 4): p25,
                           (2, 3): p34, (2, 4): p35, (2, 5): p36})


# -- canonical rescaling of the third pair ------------------------------------


def energy_rescaled_map(rp: ReducedParams):
    """The map (I, phi) -> (I1, I2, H, phi1, phi2, scaled phi3).

    The third angle is scaled by k sqrt(m) / (-2H)^{3/2}, which preserves the
    weighted canonical structure; the congruence test in the suite checks it.
    """
    m, k = rp.m, rp.k
    energy = ladder_energy_field(0, rp).func

    def fwd(c):
        H = energy(c)
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

    return TensorField(func, "uu")
