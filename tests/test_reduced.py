import math

import numpy as np
import pytest

from nckepler import duals, reduced
from nckepler.errors import ChartDomainError, NonCompactError, TurningPointError
from nckepler.geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    constant_tensor,
    flat_sharp_composition,
    gradient,
    hamiltonian_vector_field,
    interior_product,
    pair_matrix,
)
from nckepler.kepler import integrate_field
from nckepler.reduced import (
    MAX_RATE_RATIO,
    ReducedParams,
    action_hessian,
    actions_from_integrals,
    azimuthal_phase,
    continuous_angles,
    energy_from_actions,
    first_integrals,
    frequencies,
    isochronous_derivative,
    kolmogorov_determinant,
    lambda_matrix,
    polar_action_quadrature,
    quadratic_condition_value,
    radial_action_quadrature,
    reduced_structures,
    spherical_hamiltonian,
    spherical_rhs,
)

RP = ReducedParams(thetadot=0.008, phidot=0.35, m=1.0, k=1.0)
CLASSICAL = ReducedParams()


def _spherical(*coords):
    return PhasePoint(coords, Chart.SPHERICAL)


def test_lambda_matrix_vanishes_without_polar_rate():
    assert lambda_matrix(ReducedParams(thetadot=0.0, phidot=0.7), 1.3) == (
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    )


def test_lambda_matrix_at_zero_azimuth():
    rp = ReducedParams(thetadot=0.01, phidot=0.5)
    lam = lambda_matrix(rp, 0.0)
    assert lam[0][1] == 0.0
    assert abs(lam[0][2] - math.sqrt(2.0) * 0.01 * 0.5) < 1e-17
    assert lam[1][2] == 0.0


def test_lambda_matrix_antisymmetric():
    rng = np.random.default_rng(0)
    rp = ReducedParams(thetadot=0.007, phidot=0.4)
    for phi in rng.uniform(0, 2 * math.pi, size=5):
        lam = lambda_matrix(rp, float(phi))
        for i in range(3):
            for j in range(3):
                assert lam[i][j] == -lam[j][i]


def test_rate_cap_enforced():
    assert MAX_RATE_RATIO == 0.01
    with pytest.raises(ValueError, match="exceeds 0.01 \\* m"):
        ReducedParams(thetadot=0.5, phidot=0.0, m=1.0)
    with pytest.raises(ValueError):
        ReducedParams(thetadot=-0.0201, phidot=0.0, m=2.0)
    ReducedParams(thetadot=0.02, phidot=0.0, m=2.0)


def test_quadratic_condition_values():
    rp = ReducedParams(thetadot=0.01, phidot=0.5)
    origin = PhasePoint((1e-12, 0, 0, 0.1, 0.2, 0.3), Chart.CARTESIAN)
    assert quadratic_condition_value(origin, rp) < 1e-20
    generic = PhasePoint((1.0, 0.4, 0.7, 0, 0, 0), Chart.CARTESIAN)
    assert quadratic_condition_value(generic, rp) > 0.0
    zero_rate = ReducedParams(thetadot=0.0, phidot=0.5)
    assert quadratic_condition_value(generic, zero_rate) == 0.0


def test_spherical_hamiltonian_classical_circular_point():
    s = _spherical(1.0, math.pi / 2, 0.3, 0.0, 0.0, 1.0)
    assert abs(spherical_hamiltonian(s, CLASSICAL) - (-0.5)) < 1e-15


def test_spherical_domain_errors():
    with pytest.raises(ChartDomainError, match="coordinate r must be positive"):
        _spherical(-1.0, 1.0, 0.0, 0, 0, 0)
    with pytest.raises(ChartDomainError, match="coordinate theta must lie in"):
        _spherical(1.0, 0.0, 0.0, 0, 0, 0)


@pytest.mark.parametrize("fn, coords, message", [
    ("hamiltonian", (7.9e-300, 1.0, 0.5, 0.1, 0.2, 0.3), r"r\*\*2 underflows"),
    ("hamiltonian", (1.0, 7.9e-300, 0.5, 0.1, 0.2, 0.3), "polar axis"),
    ("hamiltonian", (1.0, 1.0, 1e308, 0.1, 0.2, 0.3), "coordinate phi"),
    ("integrals", (1.0, 1e-170, 0.5, 0.1, 0.2, 0.3), "polar axis"),
    ("rhs", (1e-110, 1.0, 0.5, 0.1, 0.2, 0.3), "radius left the chart"),
    ("rhs", (1.0, 1.0, 1e308, 0.1, 0.1, 0.1), "coordinate phi"),
], ids=["hamiltonian-r", "hamiltonian-theta", "hamiltonian-phi", "integrals-theta", "rhs-r",
        "rhs-phi"])
def test_underflowing_denominators_leave_the_chart(fn, coords, message):
    """A denominator r^2 or r^2 sin(theta)^2 that underflows to 0, or a 2 phi
    that overflows, is off the chart, not a ZeroDivisionError or ValueError."""
    call = {
        "hamiltonian": lambda c: spherical_hamiltonian(c, RP),
        "integrals": lambda c: first_integrals(c, RP),
        "rhs": spherical_rhs(RP),
    }[fn]
    with pytest.raises(ChartDomainError, match=message):
        call(coords)


def test_first_integrals_classical_limit():
    s = _spherical(1.2, 1.1, 0.4, 0.2, 0.3, 0.5)
    M, d, lt = first_integrals(s, CLASSICAL)
    assert M == 1.0
    assert abs(d - 0.5) < 1e-15
    assert abs(lt**2 - (0.3**2 + 0.25 / math.sin(1.1) ** 2)) < 1e-14


def test_actions_classical_circular_equatorial():
    j1, j2, j3 = actions_from_integrals(-0.5, 1.0, 1.0, CLASSICAL)
    assert abs(j1) < 1e-15 and abs(j2) < 1e-15 and abs(j3 - 1.0) < 1e-15


def test_action_sum_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        E = -float(rng.uniform(0.1, 0.8))
        lt = float(rng.uniform(0.3, 1.2))
        d = float(rng.uniform(0.1, lt))
        j1, j2, j3 = actions_from_integrals(E, lt, d, RP)
        S = j1 + RP.M * j2 + j3
        assert abs(S - RP.m * RP.k / math.sqrt(-2 * RP.m * E)) < 1e-12


def test_action_domain_errors():
    with pytest.raises(NonCompactError):
        actions_from_integrals(0.1, 1.0, 0.5, RP)
    with pytest.raises(ChartDomainError):
        actions_from_integrals(-0.5, 0.4, 0.5, RP)


def test_energy_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        E = -float(rng.uniform(0.1, 0.9))
        lt = float(rng.uniform(0.3, 1.1))
        d = float(rng.uniform(0.1, lt))
        J = actions_from_integrals(E, lt, d, RP)
        assert abs(energy_from_actions(J, RP) - E) < 1e-12


def test_energy_frozen_value_and_scaling():
    assert energy_from_actions((0.0, 0.0, 1.0), CLASSICAL) == -0.5
    e1 = energy_from_actions((0.2, 0.3, 0.5), RP)
    e2 = energy_from_actions((0.4, 0.6, 1.0), RP)
    assert abs(e2 - e1 / 4.0) < 1e-15
    with pytest.raises(ChartDomainError):
        energy_from_actions((-1.0, 0.0, 0.5), CLASSICAL)


def test_frequencies_and_isochronous_derivative():
    J = (0.3, 0.4, 0.6)
    fr = frequencies(J, RP)
    assert abs(fr[0] - fr[2]) < 1e-15
    assert abs(fr[1] - RP.M * fr[0]) < 1e-15
    E = energy_from_actions(J, RP)
    assert abs(fr[0] - isochronous_derivative(E, RP)) < 1e-12


def _bits(values) -> list:
    return [float(v).hex() for v in values]


def test_frequencies_of_a_batch_equal_each_points_float_call_bitwise():
    rng = np.random.default_rng(28)
    J = rng.uniform([0.01, 0.01, 0.01], [2.0, 2.0, 2.0], size=(2_000, 3))
    got = frequencies(list(J.T), RP)
    for p, point in enumerate(J.tolist()):
        assert _bits(v[p] for v in got) == _bits(frequencies(point, RP))


def test_chart_flow_is_zero_actions_then_the_frequencies_bitwise():
    rng = np.random.default_rng(29)
    c = list(rng.uniform(0.01, 2.0, size=(6, 500)))
    field = reduced_structures(RP)[2]
    flow = field(c)
    assert all(v == 0.0 for v in flow[:3])
    assert [_bits(v) for v in flow[3:]] == [_bits(v) for v in frequencies(c[:3], RP)]
    for p in range(500):
        point = [float(v[p]) for v in c]
        assert _bits(field(point)) == _bits([0.0, 0.0, 0.0, *frequencies(point, RP)])


def test_frequencies_need_a_positive_action_sum():
    with pytest.raises(ChartDomainError, match="action sum S must be positive"):
        frequencies((-1.0, 0.0, 0.5), RP)
    with pytest.raises(ChartDomainError, match="action sum S must be positive"):
        frequencies([np.array([0.3, -1.0]), np.zeros(2), np.array([0.5, 0.5])], RP)


def test_kolmogorov_determinant_vanishes():
    assert abs(kolmogorov_determinant((0.3, 0.5, 0.7), RP)) < 1e-14


def test_action_hessian_runs_one_outer_column_per_action(monkeypatch):
    calls = []
    energy = reduced.energy_from_actions

    def counted(J, rp):
        calls.append(len(J))
        return energy(J, rp)

    monkeypatch.setattr(reduced, "energy_from_actions", counted)
    H = action_hessian((0.3, 0.5, 0.7), RP)
    assert calls == [3, 3, 3]
    assert len(H) == 3 and all(len(row) == 3 for row in H)


def test_action_hessian_equals_the_six_coordinate_hessian_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(20):
        J = [float(v) for v in rng.uniform(0.3, 2.0, size=3)]
        padded = duals.hessian(lambda c: energy_from_actions(c[:3], RP), J + [0.0, 0.0, 0.0])
        H = action_hessian(J, RP)
        for i in range(3):
            assert [v.hex() for v in H[i]] == [v.hex() for v in padded[i][:3]]


def test_polar_action_quadrature_matches_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(10):
        lt = float(rng.uniform(0.4, 1.2))
        d = float(rng.uniform(0.1, lt - 0.05))
        J2 = (lt - d) / RP.M
        assert abs(polar_action_quadrature(lt, d, RP) - J2) < 1e-6


def test_radial_action_quadrature_matches_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        E = -float(rng.uniform(0.15, 0.6))
        s = RP.m * RP.k / math.sqrt(-2 * RP.m * E)
        lt = float(rng.uniform(0.2, 0.95)) * s
        expected = -lt + s
        assert abs(radial_action_quadrature(E, lt, RP) - expected) < 1e-6


def _bound_state():
    return _spherical(1.0, 1.1, 0.4, 0.12, 0.35, 0.55)


def test_angles_at_pericenter_hit_branch_value():
    # at the inner turning point the radial polynomial vanishes and the
    # radial arcsin sits at its -pi/2 branch value
    s0 = _bound_state()
    E = spherical_hamiltonian(s0, RP)
    _, d, lt = first_integrals(s0, RP)
    J = actions_from_integrals(E, lt, d, RP)
    S = J[0] + RP.M * J[1] + J[2]
    r_peri = (S / (RP.m * RP.k)) * (S - math.sqrt(S**2 - lt**2))
    u = 1.0 + (RP.thetadot / RP.m) * math.sin(2 * 0.4)
    p_phi = d / math.sqrt(u)
    # at pericenter p_r = 0; choose p_theta consistent with L~ at theta
    theta = 1.2
    p_theta = math.sqrt(max(lt**2 - d**2 / math.sin(theta) ** 2, 0.0)) / RP.M
    s_peri = _spherical(r_peri * (1 + 1e-14), theta, 0.4, 0.0, p_theta, p_phi)
    # p_r = 0 counts as outgoing: the radial angle starts at 0
    assert abs(continuous_angles(s_peri, J, RP)[0]) < 1e-5


def test_angles_circular_orbit_defined():
    # circular: L~ = S, the radial arcsin degenerates and the angle is
    # reported on the declared branch
    rp = CLASSICAL
    s = _spherical(1.0, math.pi / 2, 0.2, 0.0, 0.0, 1.0)
    E = spherical_hamiltonian(s, rp)
    _, d, lt = first_integrals(s, rp)
    J = actions_from_integrals(E, lt, d, rp)
    ang = continuous_angles(s, J, rp)
    assert ang[0] == 0.0
    assert all(math.isfinite(v) for v in ang)


def test_angle_formula_outside_turning_region_raises():
    s0 = _bound_state()
    E = spherical_hamiltonian(s0, RP)
    _, d, lt = first_integrals(s0, RP)
    J = actions_from_integrals(E, lt, d, RP)
    far = _spherical(50.0, 1.1, 0.4, 0.0, 0.1, 0.5)
    with pytest.raises(TurningPointError):
        continuous_angles(far, J, RP)


def _energy_monitor(cols):
    E = spherical_hamiltonian(cols, RP)
    return None, E, (E,)


def test_angle_rates_match_frequencies_along_flow():
    s0 = _bound_state()
    traj = integrate_field(s0, spherical_rhs(RP), 5e-4, 1500, method="rk4",
                           observe=_energy_monitor, monitor_names=("H",))
    assert traj.completed
    energy = traj.monitor_series("H")
    assert [E.hex() for E in energy] == [spherical_hamiltonian(st, RP).hex() for st in traj.states]
    assert max(abs(E - energy[0]) for E in energy) < 1e-10
    _, d, lt = first_integrals(s0, RP)
    J = actions_from_integrals(energy[0], lt, d, RP)
    phi_seq = np.unwrap([st[2] for st in traj.states])
    angles = np.array([
        continuous_angles((st[0], st[1], float(pu), *st[3:]), J, RP)
        for st, pu in zip(traj.states, phi_seq)
    ])
    t = np.array(traj.times)
    fr = frequencies(J, RP)
    for k in range(3):
        series = np.unwrap(angles[:, k])
        coef = np.polyfit(t, series, 1)
        assert abs(coef[0] - fr[k]) / fr[k] < 1e-5


def _unhoisted_spherical_rhs(rp):
    """``spherical_rhs`` as written before ``td / m``, ``p_phi^2`` and ``u
    p_phi^2`` were computed once: the same operations in the same order."""
    m, k, td, M2 = rp.m, rp.k, rp.thetadot, rp.M_squared

    def rhs(c):
        r, theta, phi, p_r, p_t, p_p = c
        st, ct = math.sin(theta), math.cos(theta)
        sin2, cos2 = math.sin(2.0 * phi), math.cos(2.0 * phi)
        u = 1.0 + (td / m) * sin2
        r2 = r * r
        s2 = st * st
        mr2 = m * r2
        mr3 = mr2 * r
        mr2s3 = mr2 * st * s2
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


def test_hoisted_spherical_rhs_is_bitwise_the_unhoisted_one():
    # p_phi values whose squares differ under ** and * (about 1 in 1 000)
    # sit among the seeded states
    rng = np.random.default_rng(31)
    awkward = [v for v in rng.uniform(-2.0, 2.0, 400_000).tolist() if v**2 != v * v][:200]
    states = rng.uniform([0.2, 0.05, -7.0, -2.0, -2.0, -2.0], [3.0, 3.09, 7.0, 2.0, 2.0, 2.0],
                         size=(2_000, 6))
    states[:200, 5] = awkward
    for rp in (RP, ReducedParams(thetadot=-0.013, phidot=0.2, m=1.7, k=0.6)):
        rhs, want = spherical_rhs(rp), _unhoisted_spherical_rhs(rp)
        for c in states.tolist():
            assert [v.hex() for v in rhs(c)] == [v.hex() for v in want(c)], c


def test_integrals_conserved_exactly_by_flow_equations():
    # directional derivative of D and L~ along the closed-form flow vanishes
    rhs = spherical_rhs(RP)
    c = list(_bound_state().coords)
    v = rhs(c)

    def d_func(cc):
        u = 1.0 + (RP.thetadot / RP.m) * duals.sin(2.0 * cc[2])
        return duals.sqrt(u) * cc[5]

    g = duals.grad(d_func, c)
    assert abs(sum(g[i] * v[i] for i in range(6))) < 1e-14

    def lt_func(cc):
        u = 1.0 + (RP.thetadot / RP.m) * duals.sin(2.0 * cc[2])
        d2 = u * cc[5] ** 2
        return duals.sqrt(RP.M_squared * cc[4] ** 2 + d2 / duals.sin(cc[1]) ** 2)

    g = duals.grad(lt_func, c)
    assert abs(sum(g[i] * v[i] for i in range(6))) < 1e-13


def test_reduced_structures_identities():
    bivector, omega, flow = reduced_structures(RP)
    x = PhasePoint((0.3, 0.4, 0.8, 1.0, 2.0, 3.0), Chart.ACTION_ANGLE)
    H = ScalarField(lambda c: energy_from_actions(c[:3], RP))
    ip = interior_product(flow, omega, x)
    dH = gradient(H, x)
    assert max(abs(duals.value(ip[i]) + duals.value(dH[i])) for i in range(6)) < 1e-11
    comp = flat_sharp_composition(omega(x), bivector(x))
    assert max(abs(comp[i][j] - (i == j)) for i in range(6) for j in range(6)) < 1e-15
    assert flow(x)[:3] == [0.0, 0.0, 0.0]


def test_spherical_structures_generate_flow():
    # the canonical bivector of the spherical chart
    bivector = constant_tensor(pair_matrix([-1.0] * 3), "uu")
    Hf = ScalarField(lambda c: spherical_hamiltonian(c, RP))
    X = hamiltonian_vector_field(bivector, Hf)
    s = _bound_state()
    v1 = [duals.value(v) for v in X(s)]
    v2 = spherical_rhs(RP)(list(s.coords))
    assert max(abs(a - b) for a, b in zip(v1, v2)) < 1e-12


def test_maclaurin_regime_bound():
    ratio = abs(RP.thetadot) / RP.m
    worst = max(
        abs(1.0 / math.sqrt(1.0 + ratio * math.sin(2 * phi)) - 1.0)
        for phi in np.linspace(0, 2 * math.pi, 201)
    )
    assert worst <= 0.5 * ratio + ratio**2


def _ref_azimuthal_phase(phi, rp):
    """Reference: the quadrature on numpy float64 nodes and weights, with
    the period integrated afresh on every call."""
    nodes, weights = np.polynomial.legendre.leggauss(64)

    def quad(f, a, b):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        return half * float(sum(w * f(mid + half * t) for t, w in zip(nodes, weights)))

    integrand = lambda t: 1.0 / math.sqrt(1.0 + (rp.thetadot / rp.m) * math.sin(2.0 * t))
    k = math.floor(phi / reduced.TWO_PI)
    return k * quad(integrand, 0.0, reduced.TWO_PI) + quad(integrand, 0.0, phi - reduced.TWO_PI * k)


def test_azimuthal_phase_equals_the_numpy_node_route_bitwise():
    phis = np.linspace(-15.0, 40.0, 241).tolist() + [
        0.0, -0.0, 1e-300, -1e-9, math.pi, reduced.TWO_PI, -reduced.TWO_PI, 3 * reduced.TWO_PI + 0.25]
    for rp in (RP, CLASSICAL, ReducedParams(thetadot=-0.009, phidot=-0.2, m=1.3, k=0.7)):
        for phi in phis:
            assert azimuthal_phase(phi, rp).hex() == _ref_azimuthal_phase(phi, rp).hex(), (rp, phi)
