"""Conserved-vector candidates and their bracket algebra on the cartesian chart.

The angular momentum ``L = q' x p'`` and the Runge-Lenz vector
``A = p' x L - m k q' / Y`` are built from the primed coordinates.  Their
brackets close in several layered forms:

* the exact autodiff bracket (the arbiter for everything else);
* an equivalent chain-rule route through the constant structure matrices
  F, D, E of the primed coordinates;
* displayed closed forms for the brackets with the Hamiltonian, valid at
  generic deformations;
* structure-constant forms (so(3), so(4), so(1,3) patterns), exact in the
  commutative limit and reported with residuals elsewhere.

Each evaluator takes one point or a batch of points (six float64 arrays,
``geometry.batch``): each route differentiates (H, L, A) in one pass per
chart, over every point of the batch at once.  The closed forms read the
frame (q', p', Y, H, L, A) off the values of the cartesian seeded pass,
which :func:`observables_jacobian` returns with the rows.

Scaled Runge-Lenz vectors live on the negative/positive-energy regions;
:func:`scaled_basis` gives them with L as the six fields of the so(4) and
so(1,3) algebras, which :func:`closure_fit` fits and
:func:`generator_matrix` arranges in the 4x4 antisymmetric patterns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import duals
from .deformation import DeformationParams, transform_coordinates, weighted_bracket
from .errors import ChartDomainError
from .geometry import PhasePoint, ScalarField, batch, coords_of, dot
from .kepler import (
    primed_angular_momentum,
    primed_lrl_vector,
    primed_observables,
    primed_radius,
)


def levi_civita(i: int, j: int, k: int) -> float:
    """epsilon with 0-based indices, normalized so epsilon(0,1,2) = +1."""
    a, b, c = i + 1, j + 1, k + 1
    return 0.5 * (a - b) * (b - c) * (c - a)


class EnergySign(enum.Enum):
    MINUS = "minus"
    PLUS = "plus"


@dataclass(frozen=True)
class StructureMatrices:
    """Constant brackets of the primed coordinates: {p', q'} = F,
    {p', p'} = D and {q', q'} = E.  The structure-constant patterns are
    written in Fprime = -F."""

    F: tuple
    D: tuple
    E: tuple

    @property
    def chain_matrix(self) -> list:
        """The 6x6 brackets of ``(q', p')``: blocks ``E, -F^T`` over ``F, D``."""
        F, D, E = self.F, self.D, self.E
        return ([list(E[i]) + [-F[j][i] for j in range(3)] for i in range(3)]
                + [list(F[i]) + list(D[i]) for i in range(3)])


def structure_matrices(params: DeformationParams) -> StructureMatrices:
    a, l = params.alpha, params.lam
    th = params.theta
    F = [[0.0] * 3 for _ in range(3)]
    D = [[0.0] * 3 for _ in range(3)]
    E = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            F[i][j] = (1.0 / th[i] if i == j else 0.0) + 0.25 * sum(
                l[i][r] * a[j][r] / th[r] for r in range(3)
            )
            D[i][j] = 0.5 * l[j][i] * (1.0 / th[i] + 1.0 / th[j])
            E[i][j] = 0.5 * a[j][i] * (1.0 / th[i] + 1.0 / th[j])
    to_t = lambda m: tuple(tuple(row) for row in m)
    return StructureMatrices(F=to_t(F), D=to_t(D), E=to_t(E))


def angular_momentum(x, params: DeformationParams) -> list:
    """Components of L at a cartesian point (generic in the scalar type)."""
    return primed_angular_momentum(transform_coordinates(x, params))


def lrl_vector(x, params: DeformationParams) -> list:
    """Components of A at a cartesian point (generic in the scalar type)."""
    return primed_lrl_vector(transform_coordinates(x, params), params)


def angular_momentum_field(params: DeformationParams, i: int) -> ScalarField:
    return ScalarField(lambda c: angular_momentum(c, params)[i])


def lrl_field(params: DeformationParams, i: int) -> ScalarField:
    return ScalarField(lambda c: lrl_vector(c, params)[i])


# -- one seeded pass per point; its values are the frame ---------------------


class _Frame(NamedTuple):
    """Float values at one point, or arrays over a batch: ``q'``, ``p'``,
    ``Y`` and (H, L, A)."""

    qp: list
    pp: list
    y: float
    H: float
    L: list
    A: list


def _primed_and_observables(c, params: DeformationParams) -> list:
    """``(q', p', H, L1, L2, L3, A1, A2, A3)`` at the cartesian coordinates ``c``."""
    z = transform_coordinates(c, params)
    return z + primed_observables(z, params)


def observables_jacobian(x, params: DeformationParams) -> tuple:
    """The frame at ``x`` and the rows ``dH, dL1..dL3, dA1..dA3`` in the
    cartesian coordinates of ``x``, all from one seeded pass: the frame is
    its values, float to the bit."""
    out = duals.seeded_pass(lambda c: _primed_and_observables(c, params), coords_of(x))
    z = [duals.value(v) for v in out[:6]]
    H, *LA = [duals.value(v) for v in out[6:]]
    frame = _Frame(z[:3], z[3:], primed_radius(z), H, LA[:3], LA[3:])
    return frame, [list(duals.tangents(v, 6)) for v in out[6:]]


# -- closed forms for the brackets with the Hamiltonian ----------------------


def _H_with_L(fr: _Frame, sm: StructureMatrices, params: DeformationParams) -> tuple:
    """The closed forms of {H, L_i} and the rows ``G_rho = (D p')_rho / m +
    ky3 (F q')_rho`` they are built from, which the {H, A_i} forms share."""
    qp, pp = fr.qp, fr.pp
    m, k = params.mass, params.k
    ky3 = k / duals.power(fr.y, 3)
    G = [dot(sm.D[nu], pp) / m + ky3 * dot(sm.F[nu], qp) for nu in range(3)]
    Fp = [dot(column, pp) for column in zip(*sm.F)]
    Eq = [dot(column, qp) for column in zip(*sm.E)]
    out = []
    for i in range(3):
        total = 0.0
        for mu in range(3):
            for nu in range(3):
                eps = levi_civita(mu, i, nu)
                if eps == 0.0:
                    continue
                total += eps * (G[nu] * qp[mu] + (Fp[nu] / m + ky3 * Eq[nu]) * pp[mu])
        out.append(total)
    return out, G


def bracket_H_closed_forms(fr: _Frame, params: DeformationParams) -> tuple:
    """Closed forms of the brackets of H with L_1, L_2, L_3 and with A_1,
    A_2, A_3 at the frame ``fr`` of a cartesian point or batch (see
    :func:`observables_jacobian`); the {H, A_i} forms reuse the {H, L_i}
    ones.

    The middle group of {H, A_i} pairs the coefficient row with the
    Levi-Civita index that also labels the momentum derivative of H
    (pairing it with the angular-momentum index instead fails the autodiff
    cross-check).
    """
    qp, pp, y, L = fr.qp, fr.pp, fr.y, fr.L
    sm = structure_matrices(params)
    m, k = params.mass, params.k
    ky3 = k / duals.power(y, 3)
    B, G = _H_with_L(fr, sm, params)
    out = []
    for i in range(3):
        total = 0.0
        for eta in range(3):
            for rho in range(3):
                eps = levi_civita(i, eta, rho)
                if eps == 0.0:
                    continue
                total += eps * (B[rho] * pp[eta] + G[rho] * L[eta])
        total -= (m * k / y) * sum(
            sm.F[j][i] * pp[j] / m + ky3 * sm.E[j][i] * qp[j] for j in range(3)
        )
        total += (m * k / duals.power(y, 3)) * sum(
            (sm.F[j][h] * pp[j] / m + ky3 * sm.E[j][h] * qp[j]) * qp[h] * qp[i]
            for j in range(3)
            for h in range(3)
        )
        out.append(total)
    return B, out


# -- pairwise bracket closed forms -------------------------------------------


def _structure_pattern(block: str, i: int, j: int, fr: _Frame, sm: StructureMatrices,
                       params: DeformationParams) -> float:
    """Structure-constant form of entry ``(i, j)`` of a table block: LL is
    ``sum_h eps_ijh Fprime_hh L_h``, AA is ``-2 m H`` times it, LA on the
    diagonal ``sum_uv Fprime_uv (L_v p'_u + L_u p'_v)`` and off it ``sum_h
    eps_ijh (Fprime_hh A_h - Fprime_hj (mk/Y) q'^j + Fprime_hj L_i p'_h)``."""
    F = sm.F
    if block == "LL":
        return sum(levi_civita(i, j, h) * (-F[h][h]) * fr.L[h] for h in range(3))
    if block == "AA":
        return -2.0 * params.mass * sum(
            levi_civita(i, j, h) * (-F[h][h]) * fr.H * fr.L[h] for h in range(3)
        )
    if i == j:
        return sum(
            -F[u][v] * (fr.L[v] * fr.pp[u] + fr.L[u] * fr.pp[v]) for u in range(3) for v in range(3)
        )
    mky = params.mass * params.k / fr.y
    total = 0.0
    for h in range(3):
        eps = levi_civita(i, j, h)
        if eps == 0.0:
            continue
        fp = -F[h][j]
        total += eps * ((-F[h][h]) * fr.A[h] - fp * mky * fr.qp[j] + fp * fr.L[i] * fr.pp[h])
    return total


@dataclass(frozen=True)
class BracketEntry:
    ad: float
    chain: float
    closed: float

    @property
    def ad_vs_chain(self) -> float:
        return abs(self.ad - self.chain)

    @property
    def ad_vs_closed(self) -> float:
        return abs(self.ad - self.closed)


def pairwise_bracket_table(x, params: DeformationParams) -> dict:
    """All pairwise brackets of (L, A), each computed three ways.

    ``ad`` pairs cartesian gradients by the weighted bracket, ``chain`` pairs
    primed gradients by the chain matrix (the two agree at any deformation),
    and ``closed`` is the structure-constant pattern (exact in the
    commutative limit; residuals elsewhere are reported, not suppressed).
    """
    fr, ad = observables_jacobian(x, params)
    jet = duals.seeded_pass(lambda w: primed_observables(w, params), fr.qp + fr.pp)
    cz = [list(duals.tangents(v, 6)) for v in jet]
    sm = structure_matrices(params)
    B = sm.chain_matrix
    table = {"LL": {}, "AA": {}, "LA": {}}
    for i in range(3):
        for j in range(3):
            for block, r, s in (("LL", 1 + i, 1 + j), ("AA", 4 + i, 4 + j), ("LA", 1 + i, 4 + j)):
                chain = sum(cz[r][u] * B[u][v] * cz[s][v]
                            for u in range(6) for v in range(6) if B[u][v] != 0.0)
                table[block][(i, j)] = BracketEntry(
                    weighted_bracket(ad[r], ad[s], params.theta), chain,
                    _structure_pattern(block, i, j, fr, sm, params),
                )
    return table


# -- involution conditions ----------------------------------------------------


def involution_parameter_search() -> tuple:
    """Condition 1 solved exactly: ``(s, theta)``.

    Condition 1 is the linear system ``s_ij + (s_ik + s_jk) / 2 = -4`` in
    the products ``s_ij = lam_ij alpha_ij`` of the pairs (1,2), (1,3),
    (2,3).  Row ij reads ``s_ij / 2 + S / 2 = -4`` in the sum ``S`` of the
    products, and the rows sum to ``2 S = -12``, so ``s`` is ``-8 - S =
    -2`` for every pair, exact in floats.  ``theta`` holds the weights
    ``1 + (1/4) sum_mu s_mu,nu`` there, which all vanish: no valid
    deformation meets condition 1, so condition 3 needs no check.
    """
    S = -12.0 / 2.0
    s12 = s13 = s23 = -8.0 - S
    theta = [1.0 + 0.25 * (s12 + s13), 1.0 + 0.25 * (s12 + s23), 1.0 + 0.25 * (s13 + s23)]
    return [s12, s13, s23], theta


# -- scaled vectors and generator matrices -------------------------------------


def scaled_basis(c, params: DeformationParams, tau: EnergySign) -> list:
    """``[L1, L2, L3, G1, G2, G3]`` at the coordinates ``c`` (generic in the
    scalar type), with ``G = A / sqrt(-2mH)`` on the negative-energy region
    and ``G = A / sqrt(2mH)`` on the positive one; zero energy and the other
    region are excluded."""
    H, *LA = primed_observables(transform_coordinates(c, params), params)
    Hv = duals.value(H)
    if duals.anywhere(abs(Hv) < 1e-12):
        raise ChartDomainError("scaled Runge-Lenz vector undefined at zero energy")
    wrong = Hv >= 0.0 if tau is EnergySign.MINUS else Hv <= 0.0
    if duals.anywhere(wrong):
        raise ChartDomainError(f"energy sign mismatch: H = {duals.first(Hv, wrong)} is not "
                               f"{'negative' if tau is EnergySign.MINUS else 'positive'}")
    scale = duals.sqrt(-2.0 * params.mass * H if tau is EnergySign.MINUS else 2.0 * params.mass * H)
    return LA[:3] + [a / scale for a in LA[3:]]


def generator_matrix(params: DeformationParams, kind: str, x) -> list:
    """The 4x4 so(4) (``kind="so4"``) or so(1,3) (``"so13"``) generator
    matrix at ``x``, from one read of the scaled basis: the block
    ``sum_i eps_hji Fprime_ii L_i``, the corner column ``+-Fprime_hh G_h``
    (minus for so(1,3)), its mirror row (negated for so(4)) and a zero
    corner."""
    if kind not in ("so4", "so13"):
        raise ValueError(f"unknown generator set kind {kind!r}")
    sm = structure_matrices(params)
    tau = EnergySign.MINUS if kind == "so4" else EnergySign.PLUS
    corner_sign = 1.0 if kind == "so4" else -1.0
    basis = scaled_basis(coords_of(x), params, tau)
    L, G = basis[:3], basis[3:]
    corner = [corner_sign * (-sm.F[h][h]) * G[h] for h in range(3)]
    rows = [[sum(levi_civita(h, j, i) * (-sm.F[i][i]) * L[i] for i in range(3)) for j in range(3)]
            + [corner[h]] for h in range(3)]
    rows.append([-v if kind == "so4" else v for v in corner] + [0.0])
    return rows


@dataclass(frozen=True)
class ClosureFit:
    coefficient_LL: float
    coefficient_GG: float
    coefficient_LG: float
    residual: float


def closure_fit(points: Sequence[PhasePoint], params: DeformationParams, tau: EnergySign) -> ClosureFit:
    """Least-squares structure constants of the six fields (L, scaled A).

    Fits each bracket value against the basis values at the sample points;
    the so(4) pattern has the GG coefficient equal to the LL one, the
    so(1,3) pattern flips its sign.  The points form one batch: one seeded
    pass of the six fields gives their values and all their gradients.  The
    fit rows run point by point, each point's pairs in turn.
    """
    basis = duals.seeded_pass(lambda z: scaled_basis(z, params, tau), batch(points))
    values = [v.a for v in basis]
    grads = [v.b for v in basis]

    # {L_i, L_j} ~ c_LL eps_ijh L_h ; {G_i, G_j} ~ c_GG eps_ijh L_h ;
    # {L_i, G_j} ~ c_LG eps_ijh G_h    (single-coefficient fits per block,
    # basis indices 0-2 for L and 3-5 for G)
    def single_coeff(pairs, targets):
        A = np.stack([values[tgt] for tgt in targets], axis=1).reshape(-1, 1)
        b = np.stack([weighted_bracket(grads[f], grads[g], params.theta) for f, g in pairs],
                     axis=1).ravel()
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        return float(coef[0]), float(np.max(np.abs(A @ coef - b)))

    c_ll, r1 = single_coeff([(0, 1), (1, 2), (2, 0)], [2, 0, 1])
    c_gg, r2 = single_coeff([(3, 4), (4, 5), (5, 3)], [2, 0, 1])
    c_lg, r3 = single_coeff([(0, 4), (1, 5), (2, 3)], [5, 3, 4])
    return ClosureFit(
        coefficient_LL=c_ll,
        coefficient_GG=c_gg,
        coefficient_LG=c_lg,
        residual=max(r1, r2, r3),
    )
