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

import numpy as np

from . import duals
from .errors import (
    ChartDomainError,
    NonCompactError,
    TurningPointError,
    config_number,
    config_object,
)
from .geometry import Chart, PhasePoint, ScalarField, VectorField, constant_tensor

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ReducedParams:
    """Angular-rate constants of the momentum deformation plus mass/coupling.

    ``thetadot`` must stay small against the mass (default cap 1 percent) for
    the azimuthal-action identification to sit in its validity regime.
    """

    thetadot: float = 0.0
    phidot: float = 0.0
    m: float = 1.0
    k: float = 1.0
    max_rate_ratio: float = 0.01

    def __post_init__(self):
        if self.m <= 0.0 or self.k <= 0.0:
            raise ValueError("mass and coupling must be positive")
        if abs(self.thetadot) > self.max_rate_ratio * self.m:
            raise ValueError(
                f"|thetadot| = {abs(self.thetadot)} exceeds {self.max_rate_ratio} * m"
            )
        if self.M_squared <= 0.0:
            raise ValueError("M^2 must be positive")

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


@dataclass(frozen=True)
class SphericalState:
    r: float
    theta: float
    phi: float
    p_r: float
    p_theta: float
    p_phi: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ChartDomainError(f"coordinate r must be positive, got {self.r}")
        if not 0.0 < self.theta < math.pi:
            raise ChartDomainError(f"coordinate theta must lie in (0, pi), got {self.theta}")

    def as_point(self) -> PhasePoint:
        return PhasePoint(
            (self.r, self.theta, self.phi, self.p_r, self.p_theta, self.p_phi),
            Chart.SPHERICAL,
        )

    @classmethod
    def from_point(cls, x: PhasePoint) -> "SphericalState":
        return cls(*x.coords)


@dataclass(frozen=True)
class ActionAngleState:
    J1: float
    J2: float
    J3: float
    phi1: float
    phi2: float
    phi3: float
    M: float = 1.0

    def as_point(self) -> PhasePoint:
        return PhasePoint((self.J1, self.J2, self.J3, self.phi1, self.phi2, self.phi3),
                          Chart.ACTION_ANGLE)


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


def lambda_axis(rp: ReducedParams, phi) -> tuple:
    """Axis vector w with (lam q) = w x q."""
    lam = lambda_matrix(rp, phi)
    return (-lam[1][2], lam[0][2], -lam[0][1])


def perturbation_field(rp: ReducedParams) -> ScalarField:
    """Deviation of the reduced cartesian Hamiltonian from the plain Kepler one.

    Equals (1/2m) w . L + (1/8m) |lam q|^2 with the deformation matrix taken
    at the point's azimuth; the first term is the momentum-linear piece, the
    second the quadratic piece that the separability assumption discards.
    """

    def evaluate(c):
        q, p = c[:3], c[3:]
        phi = duals.atan2(q[1], q[0])
        w = lambda_axis(rp, phi)
        L = (
            q[1] * p[2] - q[2] * p[1],
            q[2] * p[0] - q[0] * p[2],
            q[0] * p[1] - q[1] * p[0],
        )
        lam = lambda_matrix(rp, phi)
        lq = [sum(lam[i][j] * q[j] for j in range(3)) for i in range(3)]
        quad = lq[0] ** 2 + lq[1] ** 2 + lq[2] ** 2
        return (w[0] * L[0] + w[1] * L[1] + w[2] * L[2]) / (2.0 * rp.m) + quad / (8.0 * rp.m)

    return ScalarField(Chart.CARTESIAN, evaluate, name="perturbation")


def quadratic_condition_value(x, rp: ReducedParams) -> float:
    """The separability quadratic form sum_i ((lam q)_i)^2 at a cartesian point."""
    coords = list(x.coords) if isinstance(x, PhasePoint) else list(x)
    q = coords[:3]
    phi = math.atan2(duals.value(q[1]), duals.value(q[0]))
    lam = lambda_matrix(rp, phi)
    lq = [sum(lam[i][j] * duals.value(q[j]) for j in range(3)) for i in range(3)]
    return lq[0] ** 2 + lq[1] ** 2 + lq[2] ** 2


@dataclass(frozen=True)
class ReductionConditions:
    quadratic_value: float
    quadratic_ok: bool
    alpha_is_zero: bool


def reduced_hamiltonian_conditions_check(
    x, rp: ReducedParams, tol: float = 1e-10, alpha=None
) -> ReductionConditions:
    """Report whether the separability conditions hold at ``x``."""
    val = quadratic_condition_value(x, rp)
    a_zero = True
    if alpha is not None:
        a_zero = all(v == 0.0 for row in alpha for v in row)
    return ReductionConditions(quadratic_value=val, quadratic_ok=abs(val) <= tol,
                               alpha_is_zero=a_zero)


def _azimuthal_factor(rp: ReducedParams, phi):
    return 1.0 + (rp.thetadot / rp.m) * duals.sin(2.0 * phi)


def spherical_hamiltonian(s, rp: ReducedParams):
    """Energy of a spherical state under the reduced Hamiltonian."""
    if isinstance(s, SphericalState):
        c = [s.r, s.theta, s.phi, s.p_r, s.p_theta, s.p_phi]
    else:
        c = list(s.coords) if isinstance(s, PhasePoint) else list(s)
    r, theta, phi, p_r, p_t, p_p = c
    rv = duals.value(r)
    sv = math.sin(duals.value(theta))
    if rv <= 0.0:
        raise ChartDomainError(f"coordinate r must be positive, got {rv}")
    if abs(sv) < 1e-300:
        raise ChartDomainError("coordinate theta hit the polar axis (sin theta = 0)")
    u = _azimuthal_factor(rp, phi)
    st = duals.sin(theta)
    kin = p_r**2 + rp.M_squared * p_t**2 / r**2 + u * p_p**2 / (r**2 * st**2)
    return kin / (2.0 * rp.m) - rp.k / r


def spherical_structures(rp: ReducedParams):
    """Canonical two-form and bivector on the spherical chart."""
    w = [[0.0] * 6 for _ in range(6)]
    p = [[0.0] * 6 for _ in range(6)]
    for i in range(3):
        w[3 + i][i] = 1.0
        w[i][3 + i] = -1.0
        p[3 + i][i] = 1.0
        p[i][3 + i] = -1.0
    return (
        constant_tensor(Chart.SPHERICAL, w, "dd", name="omega_sph"),
        constant_tensor(Chart.SPHERICAL, p, "uu", name="P_sph"),
    )


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
        u = 1.0 + (td / m) * math.sin(2.0 * phi)
        r2 = r * r
        s2 = st * st
        return [
            p_r / m,
            M2 * p_t / (m * r2),
            u * p_p / (m * r2 * s2),
            (M2 * p_t**2 + u * p_p**2 / s2) / (m * r2 * r) - k / r2,
            u * p_p**2 * ct / (m * r2 * st * s2),
            -(td / m) * math.cos(2.0 * phi) * p_p**2 / (m * r2 * s2),
        ]

    return rhs


def first_integrals(s, rp: ReducedParams) -> tuple:
    """(M, D_phi, L~) at a spherical state; all three commute with the flow."""
    if isinstance(s, SphericalState):
        c = [s.r, s.theta, s.phi, s.p_r, s.p_theta, s.p_phi]
    else:
        c = list(s.coords) if isinstance(s, PhasePoint) else list(s)
    _, theta, phi, _, p_t, p_p = c
    u = _azimuthal_factor(rp, phi)
    d_phi = duals.sqrt(u) * p_p
    st = duals.sin(theta)
    lt2 = rp.M_squared * p_t**2 + d_phi**2 / st**2
    return rp.M, d_phi, duals.sqrt(lt2)


def inclination(d_phi: float, l_tilde: float) -> float:
    """Angle between the orbit plane and the equatorial plane, from D = L~ cos xi."""
    if l_tilde <= 0.0 or abs(d_phi) > l_tilde * (1.0 + 1e-12):
        raise ChartDomainError("inclination requires |D_phi| <= L~ with L~ > 0")
    return math.acos(max(-1.0, min(1.0, d_phi / l_tilde)))


@dataclass(frozen=True)
class ActionSet:
    J1: float
    J2: float
    J3: float
    maclaurin_ok: bool = True
    azimuthal_action_average: float | None = None

    def __iter__(self):
        return iter((self.J1, self.J2, self.J3))

    def __getitem__(self, i):
        return (self.J1, self.J2, self.J3)[i]


def actions_from_integrals(E: float, l_tilde: float, d_phi: float, rp: ReducedParams) -> ActionSet:
    """Actions of a bound state: J3 = D_phi, J2 = (L~ - D_phi)/M, and
    J1 = -L~ + m k / sqrt(-2 m E)."""
    if E >= 0.0:
        raise NonCompactError(f"bound-state actions require E < 0, got E = {E}")
    if d_phi == 0.0 or l_tilde < abs(d_phi):
        raise ChartDomainError("actions require L~ >= |D_phi| > 0")
    j3 = d_phi
    j2 = (l_tilde - d_phi) / rp.M
    j1 = -l_tilde + rp.m * rp.k / math.sqrt(-2.0 * rp.m * E)
    # the azimuthal identification J3 = D_phi sits in its expansion regime
    # only while the polar rate stays below one percent of the mass
    ok = abs(rp.thetadot) <= 0.01 * rp.m
    avg = None
    if not ok:
        avg = d_phi * azimuthal_period_integral(rp) / TWO_PI
    return ActionSet(j1, j2, j3, maclaurin_ok=ok, azimuthal_action_average=avg)


def energy_from_actions(J, rp: ReducedParams):
    """``E = -m k^2 / (2 S^2)`` with ``S = J1 + M J2 + J3 > 0``."""
    j1, j2, j3 = J[0], J[1], J[2]
    s = j1 + rp.M * j2 + j3
    if duals.value(s) <= 0.0:
        raise ChartDomainError(f"action sum S must be positive, got {duals.value(s)}")
    return -rp.m * rp.k**2 / (2.0 * s**2)


def frequencies(J, rp: ReducedParams) -> tuple:
    """Angle rates (dE/dJ_i) = (m k^2 / S^3) (1, M, 1)."""
    s = J[0] + rp.M * J[1] + J[2]
    base = rp.m * rp.k**2 / s**3
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

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _quad(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(sum(w * f(mid + half * t) for t, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS)))


def azimuthal_phase(phi: float, rp: ReducedParams) -> float:
    """Exact ``int_0^phi (1 + (thetadot/m) sin 2t)^{-1/2} dt`` for any real phi."""
    period = azimuthal_period_integral(rp)
    k = math.floor(phi / TWO_PI)
    rem = phi - TWO_PI * k
    integrand = lambda t: 1.0 / math.sqrt(1.0 + (rp.thetadot / rp.m) * math.sin(2.0 * t))
    return k * period + _quad(integrand, 0.0, rem)


def azimuthal_period_integral(rp: ReducedParams) -> float:
    integrand = lambda t: 1.0 / math.sqrt(1.0 + (rp.thetadot / rp.m) * math.sin(2.0 * t))
    return _quad(integrand, 0.0, TWO_PI)


def polar_action_quadrature(l_tilde: float, d_phi: float, rp: ReducedParams) -> float:
    """Loop integral (1/2 pi M) oint sqrt(L~^2 - D^2/sin^2 theta) d theta.

    Uses the substitution cos theta = c sin psi (c = sqrt(1 - D^2/L~^2)),
    which makes the integrand smooth; the closed form (L~ - |D|)/M is what
    the cross-check compares against.
    """
    if l_tilde <= abs(d_phi):
        return 0.0
    c2 = 1.0 - (d_phi / l_tilde) ** 2
    c = math.sqrt(c2)

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


@dataclass(frozen=True)
class AngleSet:
    phi1: float
    phi2: float
    phi3: float
    branch_r: int
    branch_theta: int

    def __iter__(self):
        return iter((self.phi1, self.phi2, self.phi3))


def _clamped_arcsin(arg: float, which: str, tol: float = 1e-9) -> float:
    if abs(arg) > 1.0 + tol:
        raise TurningPointError(
            f"arcsin argument {arg} outside [-1, 1] in the {which} angle formula"
        )
    return math.asin(max(-1.0, min(1.0, arg)))


def angles_from_state(s: SphericalState, J, rp: ReducedParams) -> AngleSet:
    """Principal-branch angle variables at a spherical state.

    The returned values use the principal arcsin branch together with branch
    flags (signs of p_r and p_theta); :func:`continuous_angles` assembles the
    time-continuous representatives from them.
    """
    m, k, M = rp.m, rp.k, rp.M
    j1, j2, j3 = J[0], J[1], J[2]
    S = j1 + M * j2 + j3
    lt = M * j2 + j3
    d = j3
    r, theta = s.r, s.theta

    G = -(m * k) ** 2 * r * r + 2.0 * m * k * S * S * r - lt * lt * S * S
    if G < -1e-9 * (m * k * r) ** 2:
        raise TurningPointError("radial polynomial negative: point outside the turning region")
    G = max(G, 0.0)
    disc = S * S - lt * lt
    circular = disc <= 1e-14 * S * S
    if circular:
        phi1 = 0.0
        v_term = 0.0
    else:
        Q = S * math.sqrt(disc)
        phi1 = -math.sqrt(G) / (S * S) + _clamped_arcsin((m * k * r - S * S) / Q, "radial")
        v_term = _clamped_arcsin((1.0 - lt * lt / (m * k * r)) * S * S / Q, "radial-apsidal")

    planar = lt * lt - d * d <= 1e-14 * lt * lt
    if planar:
        lat_term = 0.0
        node_term = 0.0
    else:
        u_hat = lt / math.sqrt(lt * lt - d * d)
        lat_term = _clamped_arcsin(u_hat * math.cos(theta), "latitude")
        node_term = _clamped_arcsin(
            d / math.tan(theta) / math.sqrt(lt * lt - d * d), "node"
        )

    phi2 = M * phi1 - M * v_term - lat_term
    phi3 = phi2 / M + node_term / M + azimuthal_phase(s.phi, rp)
    return AngleSet(
        phi1=phi1,
        phi2=phi2,
        phi3=phi3,
        branch_r=1 if s.p_r >= 0.0 else -1,
        branch_theta=1 if s.p_theta >= 0.0 else -1,
    )


def continuous_angles(s: SphericalState, J, rp: ReducedParams, phi_unwrapped: float | None = None) -> tuple:
    """Time-continuous angle representatives over one orbital revolution.

    Reflects each principal arcsin across its turning points using the
    branch flags, so that along the flow every angle advances linearly.
    ``phi_unwrapped`` supplies the cumulative azimuth when the trajectory
    wraps past 2 pi.
    """
    m, k, M = rp.m, rp.k, rp.M
    j1, j2, j3 = J[0], J[1], J[2]
    S = j1 + M * j2 + j3
    lt = M * j2 + j3
    d = j3
    r, theta = s.r, s.theta
    phi = s.phi if phi_unwrapped is None else phi_unwrapped

    G = max(-(m * k) ** 2 * r * r + 2.0 * m * k * S * S * r - lt * lt * S * S, 0.0)
    disc = max(S * S - lt * lt, 0.0)
    Q = S * math.sqrt(disc) if disc > 0.0 else None

    if Q is None:
        ell = 0.0
        v = 0.0
    else:
        base = _clamped_arcsin((m * k * r - S * S) / Q, "radial") - math.sqrt(G) / (S * S) + 0.5 * math.pi
        ell = base if s.p_r >= 0.0 else TWO_PI - base
        vb = _clamped_arcsin((1.0 - lt * lt / (m * k * r)) * S * S / Q, "radial-apsidal") + 0.5 * math.pi
        v = vb if s.p_r >= 0.0 else TWO_PI - vb

    if lt * lt - d * d <= 1e-14 * lt * lt:
        u_lat = 0.0
        node = 0.0
    else:
        C = _clamped_arcsin(lt / math.sqrt(lt * lt - d * d) * math.cos(theta), "latitude")
        u_lat = math.pi - C if s.p_theta >= 0.0 else (C if C >= 0.0 else TWO_PI + C)
        chi = _clamped_arcsin(d / math.tan(theta) / math.sqrt(lt * lt - d * d), "node")
        node = math.pi - chi if s.p_theta >= 0.0 else (chi if chi >= 0.0 else TWO_PI + chi)

    phi1 = ell
    phi2 = M * ell - M * v + u_lat
    phi3 = phi2 / M - node / M + azimuthal_phase(phi, rp)
    return (phi1, phi2, phi3)


def reduced_structures(rp: ReducedParams):
    """Canonical bivector, two-form and flow field on the action-angle chart."""
    w = [[0.0] * 6 for _ in range(6)]
    p = [[0.0] * 6 for _ in range(6)]
    for h in range(3):
        w[h][3 + h] = 1.0
        w[3 + h][h] = -1.0
        p[h][3 + h] = 1.0
        p[3 + h][h] = -1.0
    bivector = constant_tensor(Chart.ACTION_ANGLE, p, "uu", name="P_aa")
    omega = constant_tensor(Chart.ACTION_ANGLE, w, "dd", name="omega_aa")

    M = rp.M

    def flow(c):
        s = c[0] + M * c[1] + c[2]
        if duals.value(s) <= 0.0:
            raise ChartDomainError("action sum S must be positive")
        base = rp.m * rp.k**2 / s**3
        return [0.0, 0.0, 0.0, base, M * base, base]

    field = VectorField(Chart.ACTION_ANGLE, flow, name="X_H")
    return bivector, omega, field
