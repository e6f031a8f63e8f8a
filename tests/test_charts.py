import math

import numpy as np
import pytest

from nckepler.charts import (
    action_angle_to_delaunay,
    cartesian_to_spherical,
    convert,
    delaunay_to_action_angle,
    forward_jacobian,
    inverse_jacobian,
    spherical_to_action_angle,
    spherical_to_cartesian,
)
from nckepler.errors import ChartDomainError
from nckepler.geometry import Chart, PhasePoint, pair_matrix
from nckepler.reduced import (
    ReducedParams,
    energy_from_actions,
    spherical_hamiltonian,
)
from nckepler.sampling import sample_spherical_bound

RP = ReducedParams(thetadot=0.006, phidot=0.3)


def test_cartesian_spherical_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.uniform(-1.5, 1.5, size=3)
        p = rng.uniform(-1.0, 1.0, size=3)
        if np.linalg.norm(q[:2]) < 0.1:
            continue
        x = PhasePoint((*q, *p), Chart.CARTESIAN)
        back = spherical_to_cartesian(cartesian_to_spherical(x))
        assert max(abs(a - b) for a, b in zip(x.coords, back.coords)) < 1e-12


def test_polar_axis_rejected():
    x = PhasePoint((0.0, 0.0, 1.0, 0.1, 0.2, 0.3), Chart.CARTESIAN)
    with pytest.raises(ChartDomainError):
        cartesian_to_spherical(x)


def test_momenta_transform_preserves_kinetic_terms():
    x = PhasePoint((0.6, -0.8, 0.5, 0.3, -0.2, 0.4), Chart.CARTESIAN)
    s = cartesian_to_spherical(x)
    r, theta = s.coords[0], s.coords[1]
    p_r, p_t, p_p = s.coords[3:]
    kin_sph = p_r**2 + p_t**2 / r**2 + p_p**2 / (r**2 * math.sin(theta) ** 2)
    kin_cart = sum(v * v for v in x.coords[3:])
    assert abs(kin_sph - kin_cart) < 1e-13


def test_action_angle_delaunay_frozen_map():
    rp = ReducedParams()  # M = 1
    x = PhasePoint((0.0, 0.0, 1.0, 0.0, 0.0, 0.0), Chart.ACTION_ANGLE)
    d = action_angle_to_delaunay(x, rp)
    assert tuple(d.coords) == (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


def test_action_angle_delaunay_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = rng.uniform(0.2, 1.5, size=6)
        x = PhasePoint(tuple(c), Chart.ACTION_ANGLE)
        back = delaunay_to_action_angle(action_angle_to_delaunay(x, RP), RP)
        assert max(abs(a - b) for a, b in zip(x.coords, back.coords)) < 1e-14


def displayed_jacobians(M):
    """The forward and inverse Jacobians of the action-angle / Delaunay
    recombination, as the charts module docstring displays them."""
    forward = [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0], [0.0, M, 1.0, 0.0, 0.0, 0.0],
               [1.0, M, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, -1.0 / M, 1.0],
               [0.0, 0.0, 0.0, -M, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]]
    inverse = [[0.0, -1.0, 1.0, 0.0, 0.0, 0.0], [-1.0 / M, 1.0 / M, 0.0, 0.0, 0.0, 0.0],
               [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
               [0.0, 0.0, 0.0, 0.0, 1.0, M], [0.0, 0.0, 0.0, 1.0, 1.0 / M, 1.0]]
    return forward, inverse


@pytest.mark.parametrize("phidot", [0.0, 0.006, -0.3, 0.3, 0.5, 2.0])
def test_chart_jacobians_are_the_displayed_matrices_exactly(phidot):
    # an entry where the displayed map has no term is exactly 0.0, not a
    # rounding residue of a numerical inverse
    rp = ReducedParams(thetadot=0.005, phidot=phidot)
    forward, inverse = displayed_jacobians(rp.M)
    assert forward_jacobian(rp).tolist() == forward
    assert inverse_jacobian(rp).tolist() == inverse


def test_delaunay_map_symplectic_congruence():
    # pullback of the weighted form equals the canonical action-angle form
    D = forward_jacobian(RP)
    N = (1.0, RP.M, 1.0)
    omega_del = np.zeros((6, 6))
    omega_aa = np.zeros((6, 6))
    for j in range(3):
        omega_del[j][3 + j] = 1.0 / N[j]
        omega_del[3 + j][j] = -1.0 / N[j]
        omega_aa[j][3 + j] = 1.0
        omega_aa[3 + j][j] = -1.0
    assert np.max(np.abs(D.T @ omega_del @ D - omega_aa)) < 1e-12


def test_spherical_to_action_angle_energy_consistency():
    s = PhasePoint((1.1, 1.2, 0.5, 0.1, 0.3, 0.5), Chart.SPHERICAL)
    aa = spherical_to_action_angle(s, RP)
    E_direct = spherical_hamiltonian(s, RP)
    E_actions = energy_from_actions(aa.coords[:3], RP)
    assert abs(E_direct - E_actions) < 1e-12


def test_spherical_to_action_angle_is_canonical():
    # (J, phi) are canonical when the spherical Poisson matrix of the chart
    # map, D Pc D^T with D its Jacobian, is the canonical one: {phi_i, J_j}
    # = delta_ij, that is -Pc in the (J, phi) slot order.  D is a central
    # difference whose worst miss here is 7.5e-8, so 1e-6 leaves a factor
    # of 13 and sits far below the O(1) miss (up to 2.56) of principal
    # branches that ignore the signs of p_r and p_theta.
    points = sample_spherical_bound(40, 3, RP)
    assert any(s.coords[3] < 0.0 for s in points)
    assert any(s.coords[4] < 0.0 for s in points)
    pc = np.array(pair_matrix([1.0] * 3))
    h = 1e-6

    def chart_map(c):
        return np.array(spherical_to_action_angle(PhasePoint(tuple(c), Chart.SPHERICAL), RP).coords)

    for s in points:
        c = np.array(s.coords)
        D = np.column_stack([(chart_map(c + h * e) - chart_map(c - h * e)) / (2.0 * h)
                             for e in np.eye(6)])
        assert np.max(np.abs(D @ pc @ D.T + pc)) < 1e-6, s.coords


def test_convert_dispatch_and_undefined_pairs():
    x = PhasePoint((1.0, 0.3, -0.4, 0.1, 0.9, 0.2), Chart.CARTESIAN)
    s = convert(x, Chart.SPHERICAL)
    assert s.chart is Chart.SPHERICAL
    d = convert(x, Chart.DELAUNAY, RP)
    assert d.chart is Chart.DELAUNAY
    with pytest.raises(ChartDomainError):
        convert(d, Chart.SPHERICAL, RP)


def test_convert_identity():
    x = PhasePoint((1.0, 0.3, -0.4, 0.1, 0.9, 0.2), Chart.CARTESIAN)
    assert convert(x, Chart.CARTESIAN) is x
