"""Conversions between the four phase-space charts.

Cartesian <-> spherical uses the cotangent lift of the point transformation,
so round trips are exact to rounding.  Action-angle <-> Delaunay is the
linear recombination

    I1 = J3,  I2 = M J2 + J3,  I3 = J1 + M J2 + J3,
    phi1 = varphi3 - varphi2 / M,  phi2 = varphi2 - M varphi1,
    phi3 = varphi1,

which preserves the weighted canonical structure, and its inverse

    J1 = I3 - I2,  J2 = (I2 - I1) / M,  J3 = I1,
    varphi1 = phi3,  varphi2 = phi2 + M phi3,
    varphi3 = phi1 + phi2 / M + phi3.

Each is written once, generic in the scalar type (:func:`delaunay_coords`
and :func:`action_angle_coords`); each Jacobian is the matrix of the linear
map.  Spherical to action-angle goes through the integrals of motion and
the time-continuous angles of ``reduced.continuous_angles`` (bound states
only).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ChartDomainError
from .geometry import Chart, PhasePoint, dot
from .reduced import (
    ReducedParams,
    actions_from_integrals,
    continuous_angles,
    first_integrals,
    spherical_hamiltonian,
)


def cartesian_to_spherical(x: PhasePoint) -> PhasePoint:
    if x.chart is not Chart.CARTESIAN:
        raise ChartDomainError("cartesian_to_spherical expects a cartesian point")
    q1, q2, q3, p1, p2, p3 = x.coords
    r = math.sqrt(q1 * q1 + q2 * q2 + q3 * q3)
    if r <= 0.0:
        raise ChartDomainError("coordinate r must be positive, got 0")
    ct = q3 / r
    if abs(ct) >= 1.0:
        raise ChartDomainError("coordinate theta left (0, pi): point on the polar axis")
    theta = math.acos(ct)
    phi = math.atan2(q2, q1) % (2.0 * math.pi)
    st = math.sin(theta)
    rhat = (q1 / r, q2 / r, q3 / r)
    that = (math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -st)
    phat = (-math.sin(phi), math.cos(phi), 0.0)
    p = (p1, p2, p3)
    p_r = dot(rhat, p)
    p_t = r * dot(that, p)
    p_p = r * st * dot(phat, p)
    return PhasePoint((r, theta, phi, p_r, p_t, p_p), Chart.SPHERICAL)


def spherical_to_cartesian(x: PhasePoint) -> PhasePoint:
    if x.chart is not Chart.SPHERICAL:
        raise ChartDomainError("spherical_to_cartesian expects a spherical point")
    r, theta, phi, p_r, p_t, p_p = x.coords
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    rs = r * st
    if rs == 0.0:
        raise ChartDomainError("coordinate theta hit the polar axis (r sin theta = 0)")
    q = (rs * cp, rs * sp, r * ct)
    rhat = (st * cp, st * sp, ct)
    that = (ct * cp, ct * sp, -st)
    phat = (-sp, cp, 0.0)
    p = tuple(
        p_r * rhat[i] + (p_t / r) * that[i] + (p_p / rs) * phat[i] for i in range(3)
    )
    return PhasePoint(q + p, Chart.CARTESIAN)


def delaunay_coords(c, rp: ReducedParams) -> list:
    """The Delaunay coordinates (I, phi) of the action-angle coordinates
    ``c = (J, varphi)``: floats, ``Dual`` values or batched arrays."""
    J1, J2, J3, v1, v2, v3 = c
    M = rp.M
    return [J3, M * J2 + J3, J1 + M * J2 + J3, (-1 / M) * v2 + v3, (-M) * v1 + v2, v1]


def action_angle_coords(c, rp: ReducedParams) -> list:
    """The action-angle coordinates (J, varphi) of the Delaunay coordinates
    ``c = (I, phi)``: floats, ``Dual`` values or batched arrays."""
    I1, I2, I3, f1, f2, f3 = c
    M = rp.M
    return [-I2 + I3, (-1 / M) * I1 + (1 / M) * I2, I1, f3, f2 + M * f3, f1 + (1 / M) * f2 + f3]


def _matrix(linear_map, rp: ReducedParams) -> np.ndarray:
    """The matrix of ``linear_map``, column j its image of unit vector j."""
    return np.array([linear_map(e, rp) for e in np.eye(6).tolist()]).T


def forward_jacobian(rp: ReducedParams) -> np.ndarray:
    """Constant Jacobian of the (J, varphi) -> (I, phi) map."""
    return _matrix(delaunay_coords, rp)


def inverse_jacobian(rp: ReducedParams) -> np.ndarray:
    """Constant Jacobian of the (I, phi) -> (J, varphi) map."""
    return _matrix(action_angle_coords, rp)


def action_angle_to_delaunay(x: PhasePoint, rp: ReducedParams) -> PhasePoint:
    if x.chart is not Chart.ACTION_ANGLE:
        raise ChartDomainError("expected an action-angle point")
    return PhasePoint(tuple(delaunay_coords(x.coords, rp)), Chart.DELAUNAY)


def delaunay_to_action_angle(x: PhasePoint, rp: ReducedParams) -> PhasePoint:
    if x.chart is not Chart.DELAUNAY:
        raise ChartDomainError("expected a Delaunay point")
    return PhasePoint(tuple(action_angle_coords(x.coords, rp)), Chart.ACTION_ANGLE)


def spherical_to_action_angle(x: PhasePoint, rp: ReducedParams) -> PhasePoint:
    if x.chart is not Chart.SPHERICAL:
        raise ChartDomainError("expected a spherical point")
    E = spherical_hamiltonian(x, rp)
    _, d_phi, l_tilde = first_integrals(x, rp)
    J = actions_from_integrals(E, l_tilde, d_phi, rp)
    return PhasePoint(J + continuous_angles(x, J, rp), Chart.ACTION_ANGLE)


_CONVERSIONS = {
    (Chart.CARTESIAN, Chart.SPHERICAL): lambda x, rp: cartesian_to_spherical(x),
    (Chart.SPHERICAL, Chart.CARTESIAN): lambda x, rp: spherical_to_cartesian(x),
    (Chart.ACTION_ANGLE, Chart.DELAUNAY): action_angle_to_delaunay,
    (Chart.DELAUNAY, Chart.ACTION_ANGLE): delaunay_to_action_angle,
    (Chart.SPHERICAL, Chart.ACTION_ANGLE): spherical_to_action_angle,
    (Chart.CARTESIAN, Chart.ACTION_ANGLE): lambda x, rp: spherical_to_action_angle(
        cartesian_to_spherical(x), rp
    ),
    (Chart.CARTESIAN, Chart.DELAUNAY): lambda x, rp: action_angle_to_delaunay(
        spherical_to_action_angle(cartesian_to_spherical(x), rp), rp
    ),
    (Chart.SPHERICAL, Chart.DELAUNAY): lambda x, rp: action_angle_to_delaunay(
        spherical_to_action_angle(x, rp), rp
    ),
}


def convert(x: PhasePoint, target: Chart, rp: ReducedParams | None = None) -> PhasePoint:
    """Convert a point between charts; raises for undefined conversions."""
    if x.chart is target:
        return x
    key = (x.chart, target)
    if key not in _CONVERSIONS:
        raise ChartDomainError(
            f"no conversion defined from {x.chart.value} to {target.value}"
        )
    if rp is None:
        rp = ReducedParams()
    return _CONVERSIONS[key](x, rp)
