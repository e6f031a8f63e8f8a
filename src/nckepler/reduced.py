"""Reduced Kepler system with a momentum-only deformation.

With position noncommutativity switched off and the momentum deformation
taken in the two-rate trigonometric form (rates ``thetadot`` and ``phidot``),
the system separates in spherical-polar coordinates:

    H = (1/2m) [p_r^2 + M^2 p_theta^2 / r^2
         + (1 + (thetadot/m) sin 2phi) p_phi^2 / (r^2 sin^2 theta)] - k/r,

with the constant ``M^2 = 1 + sqrt(2) phidot / m + phidot^2 / (2m)``.  The
three commuting integrals are the energy, the azimuthal constant
``D_phi = sqrt(1 + (thetadot/m) sin 2phi) p_phi``, and the modified total
angular momentum ``L~^2 = M^2 p_theta^2 + D_phi^2 / sin^2 theta``.  Bound
motion carries exact action-angle coordinates whose energy is
``-m k^2 / (2 (J1 + M J2 + J3)^2)``.

The closed-form angle expressions here were re-derived from the separated
characteristic function; where a displayed argument was dimensionally
inconsistent the re-derived argument is used, and the flow-rate tests pin
the result (each angle advances linearly at the frequency obtained by
differentiating the energy in its action).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import duals
from .errors import (
    ChartDomainError,
    NonCompactError,
    TurningPointError,
    config_number,
    config_object,
)
from .geometry import PhasePoint, VectorField, constant_tensor, coords_of, dot, pair_matrix

TWO_PI = 2.0 * math.pi
_PHI_RANGE = "coordinate phi must be finite, with 2 phi in the float range"

# Largest |thetadot| / m: below it the azimuthal identification J3 = D_phi
# sits in its expansion regime.
MAX_RATE_RATIO = 0.01


@dataclass(frozen=True)
class ReducedParams:
    """Angular-rate constants of the momentum deformation plus mass/coupling.

    ``|thetadot|`` may not exceed ``MAX_RATE_RATIO * m``, so the
    azimuthal-action identification always sits in its validity regime.
    """

    thetadot: float = 0.0
    phidot: float = 0.0
    m: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        if self.m <= 0.0 or self.k <= 0.0:
            raise ValueError("mass and coupling must be positive")
        if abs(self.thetadot) > MAX_RATE_RATIO * self.m:
            raise ValueError(
                f"|thetadot| = {abs(self.thetadot)} exceeds {MAX_RATE_RATIO} * m"
            )
        try:
            m2 = self.M_squared
        except OverflowError:
            m2 = math.inf
        if not 0.0 < m2 < math.inf:
            raise ValueError(f"M^2 must be positive and finite, got {m2}")

    @classmethod
    def from_dict(cls, doc) -> "ReducedParams":
        """Parse a ``reduced`` config block; absent keys keep the defaults.

        Valid numbers pass through unconverted; a block that is not an
        object or a value that is not a finite number is a ``ValueError``.
        """
        config_object(doc, "reduced block")
        defaults = {"thetadot": 0.0, "phidot": 0.0, "m": 1.0, "k": 1.0}
        return cls(**{key: config_number(doc, key, v, "reduced") for key, v in defaults.items()})

    @property
    def M_squared(self) -> float:
        return 1.0 + math.sqrt(2.0) * self.phidot / self.m + self.phidot**2 / (2.0 * self.m)

    @property
    def M(self) -> float:
        return math.sqrt(self.M_squared)


def lambda_matrix(rp: ReducedParams, phi) -> tuple:
    """Momentum-deformation matrix at azimuth ``phi`` (antisymmetric, zero trace)."""
    td, pd = rp.thetadot, rp.phidot
    s2 = duals.sin(2.0 * phi)
    c1 = duals.cos(phi)
    s1 = duals.sin(phi)
    l12 = -td * pd * s2
    l13 = math.sqrt(2.0) * td * pd * c1
    l23 = math.sqrt(2.0) * td * pd * s1
    return (
        (0.0, l12, l13),
        (-l12, 0.0, l23),
        (-l13, -l23, 0.0),
    )


def quadratic_condition_value(x, rp: ReducedParams) -> float:
    """The separability quadratic form sum_i ((lam q)_i)^2 at a cartesian point."""
    coords = coords_of(x)
    q = coords[:3]
    phi = math.atan2(duals.value(q[1]), duals.value(q[0]))
    lam = lambda_matrix(rp, phi)
    qv = [duals.value(v) for v in q]
    lq = [dot(row, qv) for row in lam]
    return lq[0] ** 2 + lq[1] ** 2 + lq[2] ** 2


def _azimuthal_factor(rp: ReducedParams, phi):
    two_phi = 2.0 * phi
    if duals.anywhere(~np.isfinite(duals.value(two_phi))):
        raise ChartDomainError(_PHI_RANGE)
    return 1.0 + (rp.thetadot / rp.m) * duals.sin(two_phi)


def spherical_hamiltonian(s, rp: ReducedParams):
    """Energy of a spherical state, or of each state of a batch, under the
    reduced Hamiltonian; raises when any state is off the chart, a
    denominator ``r^2`` or ``r^2 sin(theta)^2`` underflowing to 0 included."""
    r, theta, phi, p_r, p_t, p_p = coords_of(s)
    st = duals.sin(theta)
    rv = duals.value(r)
    if duals.anywhere(rv <= 0.0):
        raise ChartDomainError(f"coordinate r must be positive, got {rv}")
    r2 = duals.power(r, 2)
    if duals.anywhere(duals.value(r2) <= 0.0):
        raise ChartDomainError(f"coordinate r is too small: r**2 underflows to 0 at r = {rv}")
    r2st2 = r2 * duals.power(st, 2)
    if duals.anywhere(duals.value(r2st2) <= 0.0):
        raise ChartDomainError("coordinate theta hit the polar axis (sin theta = 0)")
    u = _azimuthal_factor(rp, phi)
    kin = (duals.power(p_r, 2) + rp.M_squared * duals.power(p_t, 2) / r2
           + u * duals.power(p_p, 2) / r2st2)
    return kin / (2.0 * rp.m) - rp.k / r


def spherical_rhs(rp: ReducedParams):
    """Closed-form flow of the reduced Hamiltonian (fast path for integrators)."""
    m, k, td, M2 = rp.m, rp.k, rp.thetadot, rp.M_squared

    def rhs(c):
        r, theta, phi, p_r, p_t, p_p = c
        if r <= 0.0:
            raise ChartDomainError("radius left the chart")
        st = math.sin(theta)
        ct = math.cos(theta)
        if abs(st) < 1e-12:
            raise ChartDomainError("polar axis reached")
        try:
            sin2, cos2 = math.sin(2.0 * phi), math.cos(2.0 * phi)
        except ValueError:  # 2 phi overflowed to inf
            raise ChartDomainError(_PHI_RANGE) from None
        u = 1.0 + (td / m) * sin2
        r2 = r * r
        s2 = st * st
        # of the five denominators, m r^3 is 0 whenever r^2 or m r^2 is, and
        # m r^2 sin(theta)^3 whenever m r^2 sin(theta)^2 is, as |sin| <= 1
        mr2 = m * r2
        mr3 = mr2 * r
        mr2s3 = mr2 * st * s2
        if mr3 == 0.0:
            raise ChartDomainError("radius left the chart")
        if mr2s3 == 0.0:
            raise ChartDomainError("polar axis reached")
        mr2s2 = mr2 * s2
        return [
            p_r / m,
            M2 * p_t / mr2,
            u * p_p / mr2s2,
            (M2 * p_t**2 + u * p_p**2 / s2) / mr3 - k / r2,
            u * p_p**2 * ct / mr2s3,
            -(td / m) * cos2 * p_p**2 / mr2s2,
        ]

    return rhs


def first_integrals(s, rp: ReducedParams) -> tuple:
    """(M, D_phi, L~) at a spherical state; all three commute with the flow."""
    _, theta, phi, _, p_t, p_p = coords_of(s)
    u = _azimuthal_factor(rp, phi)
    d_phi = duals.sqrt(u) * p_p
    st2 = duals.sin(theta) ** 2
    if duals.anywhere(duals.value(st2) <= 0.0):
        raise ChartDomainError("coordinate theta hit the polar axis (sin theta = 0)")
    lt2 = rp.M_squared * p_t**2 + d_phi**2 / st2
    return rp.M, d_phi, duals.sqrt(lt2)


def actions_from_integrals(E: float, l_tilde: float, d_phi: float, rp: ReducedParams) -> tuple:
    """Actions ``(J1, J2, J3)`` of a bound state: J3 = D_phi,
    J2 = (L~ - D_phi)/M, and J1 = -L~ + m k / sqrt(-2 m E)."""
    if E >= 0.0:
        raise NonCompactError(f"bound-state actions require E < 0, got E = {E}")
    if d_phi == 0.0 or l_tilde < abs(d_phi):
        raise ChartDomainError("actions require L~ >= |D_phi| > 0")
    j3 = d_phi
    j2 = (l_tilde - d_phi) / rp.M
    j1 = -l_tilde + rp.m * rp.k / math.sqrt(-2.0 * rp.m * E)
    return j1, j2, j3


def energy_from_actions(J, rp: ReducedParams):
    """``E = -m k^2 / (2 S^2)`` with ``S = J1 + M J2 + J3 > 0``."""
    j1, j2, j3 = J[0], J[1], J[2]
    s = j1 + rp.M * j2 + j3
    if duals.value(s) <= 0.0:
        raise ChartDomainError(f"action sum S must be positive, got {duals.value(s)}")
    return -rp.m * rp.k**2 / (2.0 * s**2)


def frequencies(J, rp: ReducedParams) -> tuple:
    """Angle rates (dE/dJ_i) = (m k^2 / S^3) (1, M, 1), at one point or at
    each point of a batch; raises unless ``S = J1 + M J2 + J3 > 0``."""
    s = J[0] + rp.M * J[1] + J[2]
    if duals.anywhere(duals.value(s) <= 0.0):
        raise ChartDomainError("action sum S must be positive")
    base = rp.m * rp.k**2 / duals.power(s, 3)
    return (base, rp.M * base, base)


def isochronous_derivative(E: float, rp: ReducedParams) -> float:
    """dE/dJ1 expressed through the energy: (-2E)^{3/2} / (k sqrt(m))."""
    return (-2.0 * E) ** 1.5 / (rp.k * math.sqrt(rp.m))


def action_hessian(J, rp: ReducedParams) -> list:
    """Exact 3x3 Hessian of the energy in the actions, via nested duals."""
    return duals.hessian(lambda c: energy_from_actions(c, rp), list(J[:3]))


def kolmogorov_determinant(J, rp: ReducedParams) -> float:
    return float(np.linalg.det(np.array(action_hessian(J, rp))))


# -- azimuthal quadratures ---------------------------------------------------

# Python floats: iterating numpy float64 scalars costs several times more
_GAUSS_NODES, _GAUSS_WEIGHTS = (a.tolist() for a in np.polynomial.legendre.leggauss(64))


def _quad(f, a, b):
    """64-node Gauss-Legendre rule over ``[a, b]``, float or array limits,
    summed as one left fold from 0.0 so that no ``sum()`` rounds it."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    for t, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        total = total + w * f(mid + half * t)
    return half * total


def azimuthal_phase(phi, rp: ReducedParams):
    """Exact ``int_0^phi (1 + (thetadot/m) sin 2t)^{-1/2} dt`` for any real
    phi, or for each azimuth of a batch: whole periods plus the remainder."""
    ratio = rp.thetadot / rp.m

    def integrand(t):
        return 1.0 / duals.sqrt(1.0 + ratio * duals.sin(2.0 * t))

    k = (phi / TWO_PI) // 1.0  # floor, of a float or of each point
    return k * _quad(integrand, 0.0, TWO_PI) + _quad(integrand, 0.0, phi - TWO_PI * k)


def polar_action_quadrature(l_tilde: float, d_phi: float, rp: ReducedParams) -> float:
    """Loop integral (1/2 pi M) oint sqrt(L~^2 - D^2/sin^2 theta) d theta.

    Uses the substitution cos theta = c sin psi (c = sqrt(1 - D^2/L~^2)),
    which makes the integrand smooth; the closed form (L~ - |D|)/M is what
    the cross-check compares against.
    """
    if l_tilde <= abs(d_phi):
        return 0.0
    c2 = 1.0 - (d_phi / l_tilde) ** 2

    def integrand(psi):
        s2 = 1.0 - c2 * math.sin(psi) ** 2
        return l_tilde * c2 * math.cos(psi) ** 2 / s2

    loop = 2.0 * _quad(integrand, -0.5 * math.pi, 0.5 * math.pi)
    return loop / (TWO_PI * rp.M)


def radial_action_quadrature(E: float, l_tilde: float, rp: ReducedParams) -> float:
    """Loop integral (1/2 pi) oint p_r dr between the radial turning points."""
    if E >= 0.0:
        raise NonCompactError("radial action quadrature requires E < 0")
    m, k = rp.m, rp.k
    s2 = -m * k**2 / (2.0 * E)
    s = math.sqrt(s2)
    disc = s2 - l_tilde**2
    if disc <= 0.0:
        return 0.0
    r_minus = (s / (m * k)) * (s - math.sqrt(disc))
    r_plus = (s / (m * k)) * (s + math.sqrt(disc))

    def integrand(u):
        # r = mid - amp cos is wrapped via u in (-pi/2, pi/2): r = mid + amp sin u
        mid = 0.5 * (r_plus + r_minus)
        amp = 0.5 * (r_plus - r_minus)
        r = mid + amp * math.sin(u)
        g = -(m * k) ** 2 * r * r + 2.0 * m * k * s2 * r - l_tilde**2 * s2
        g = max(g, 0.0)
        return math.sqrt(g) / (s * r) * amp * math.cos(u)

    loop = 2.0 * _quad(integrand, -0.5 * math.pi, 0.5 * math.pi)
    return loop / TWO_PI


# -- angle variables ---------------------------------------------------------


def _clamped_arcsin(arg, which: str):
    outside = abs(arg) > 1.0 + 1e-9
    if duals.anywhere(outside):
        raise TurningPointError(
            f"arcsin argument {duals.first(arg, outside)} outside [-1, 1] in the {which} angle formula"
        )
    # fmin and fmax clamp as min and max do, a NaN argument to 1 included
    return duals.asin(np.fmax(-1.0, np.fmin(1.0, arg)))


def continuous_angles(s: PhasePoint | Sequence[float], J, rp: ReducedParams) -> tuple:
    """Angle variables ``(phi1, phi2, phi3)`` of the actions ``J`` at a
    spherical state ``s``, or at each state of a batch (six float64
    arrays, see :func:`geometry.batch`); the azimuth may be unwrapped past
    2 pi.  One state gives three floats, a batch three arrays.

    Each principal arcsin is reflected across its turning points by the
    signs of p_r and p_theta, so that along the flow every angle advances
    linearly and (J, phi) are canonical.  A circular orbit has no radial
    terms and a planar one no latitude or node terms; a state outside the
    turning region of ``J`` raises :class:`TurningPointError`, and so does
    a batch that holds one.
    """
    m, k, M = rp.m, rp.k, rp.M
    j1, j2, j3 = J[0], J[1], J[2]
    S = j1 + M * j2 + j3
    lt = M * j2 + j3
    d = j3
    r, theta, phi, p_r, p_theta, _ = coords_of(s)

    disc = S * S - lt * lt
    if disc <= 1e-14 * S * S:
        ell = v = np.zeros_like(r)
    else:
        # G = Q^2 - (m k r - S^2)^2, so the radial guard |arg| <= 1 is G >= 0
        G = np.maximum(-(m * k) ** 2 * r * r + 2.0 * m * k * S * S * r - lt * lt * S * S, 0.0)
        Q = S * math.sqrt(disc)
        base = _clamped_arcsin((m * k * r - S * S) / Q, "radial") - duals.sqrt(G) / (S * S) + 0.5 * math.pi
        ell = np.where(p_r >= 0.0, base, TWO_PI - base)
        vb = _clamped_arcsin((1.0 - lt * lt / (m * k * r)) * S * S / Q, "radial-apsidal") + 0.5 * math.pi
        v = np.where(p_r >= 0.0, vb, TWO_PI - vb)

    if lt * lt - d * d <= 1e-14 * lt * lt:
        u_lat = node = np.zeros_like(r)
    else:
        C = _clamped_arcsin(lt / math.sqrt(lt * lt - d * d) * duals.cos(theta), "latitude")
        u_lat = np.where(p_theta >= 0.0, math.pi - C, np.where(C >= 0.0, C, TWO_PI + C))
        chi = _clamped_arcsin(d / duals.tan(theta) / math.sqrt(lt * lt - d * d), "node")
        node = np.where(p_theta >= 0.0, math.pi - chi, np.where(chi >= 0.0, chi, TWO_PI + chi))

    phi1 = ell
    phi2 = M * ell - M * v + u_lat
    phi3 = phi2 / M - node / M + azimuthal_phase(phi, rp)
    angles = (phi1, phi2, phi3)
    return angles if isinstance(r, np.ndarray) else tuple(map(float, angles))


def reduced_structures(rp: ReducedParams):
    """Canonical bivector, two-form and flow field on the action-angle chart."""
    mat = pair_matrix([1.0] * 3)
    bivector = constant_tensor(mat, "uu")
    omega = constant_tensor(mat, "dd")
    return bivector, omega, VectorField(lambda c: [0.0, 0.0, 0.0, *frequencies(c, rp)])
