import numpy as np
import pytest

from nckepler import duals
from nckepler.geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    batch,
    flat_sharp_composition,
    gradient,
    interior_product,
    lie_derivative,
    max_abs,
    nijenhuis_torsion,
    schouten_bracket,
)
from nckepler.hierarchy import (
    classical_delaunay,
    corrupted_first_level_bivector,
    displayed_bivector_table,
    energy_rescaled_map,
    hierarchy_in_action_angle,
    ladder_energy_field,
    lambda_bracket,
    level_bivector,
    level_two_form,
    recursion_operator,
    transported,
    weight_vector,
)
from nckepler.errors import ChartDomainError
from nckepler.master import dynamical_symmetry
from nckepler.reduced import ReducedParams, reduced_structures
from nckepler.sampling import sample_action_angle, sample_delaunay
from nckepler.suites import VerifyConfig

RP = ReducedParams(thetadot=0.005, phidot=0.3)
M1 = ReducedParams()  # M = 1
PT = PhasePoint((0.5, 1.2, 2.0, 0.7, 1.9, 4.1), Chart.DELAUNAY)


def test_level_zero_energy_is_hamiltonian():
    F0 = ladder_energy_field(0, RP)
    for x in sample_delaunay(10, seed=0):
        assert abs(duals.value(F0(x)) - (-RP.m * RP.k**2 / (2.0 * x.coords[2] ** 2))) < 1e-15


def test_level_zero_recursion_is_identity():
    T0 = recursion_operator(0, RP)
    mat = T0(PT)
    for i in range(6):
        for j in range(6):
            assert mat[i][j] == (1.0 if i == j else 0.0)


def test_level_two_recursion_frozen_diagonal():
    T2 = recursion_operator(2, M1)
    mat = T2(PhasePoint((1.0, 2.0, 3.0, 0.0, 0.0, 0.0), Chart.DELAUNAY))
    assert [mat[j][j] for j in range(3)] == [1.0, 4.0, 9.0]
    assert [mat[3 + j][3 + j] for j in range(3)] == [1.0, 4.0, 9.0]


def test_compatibility_of_all_levels():
    P0 = level_bivector(0, RP)
    for h in range(4):
        Ph = level_bivector(h, RP)
        assert max_abs(schouten_bracket(Ph, P0, PT)) < 1e-12
        for hp in range(1, h):
            assert max_abs(schouten_bracket(Ph, level_bivector(hp, RP), PT)) < 1e-12


def test_flow_pairing_every_level():
    X = dynamical_symmetry(0, RP)
    for h in range(4):
        omega = level_two_form(h, RP)
        F = ladder_energy_field(h, RP)
        ip = interior_product(X, omega, PT)
        dF = gradient(F, PT)
        assert max(abs(duals.value(ip[i]) + duals.value(dF[i])) for i in range(6)) < 1e-12


def test_level_pair_mutually_inverse():
    for h in range(4):
        comp = flat_sharp_composition(level_two_form(h, RP)(PT), level_bivector(h, RP)(PT))
        assert max(abs(comp[i][j] - (i == j)) for i in range(6) for j in range(6)) < 1e-13


def test_recursion_torsion_vanishes_both_charts():
    for h in (1, 2):
        assert max_abs(nijenhuis_torsion(recursion_operator(h, RP), PT)) < 1e-12
    x = PhasePoint((0.3, 0.5, 1.2, 0.4, 2.2, 0.9), Chart.ACTION_ANGLE)
    Taa = hierarchy_in_action_angle(2, RP)[2]
    assert max_abs(nijenhuis_torsion(Taa, x)) < 1e-12


def test_recursion_eigenvalues_flow_invariant():
    X = dynamical_symmetry(0, RP)
    N = weight_vector(RP)
    for h in (1, 2, 3):
        for j in range(3):
            eig = ScalarField(lambda c, j=j, h=h: N[j] ** h * c[j] ** h)
            assert abs(lie_derivative(X, eig, PT)) < 1e-14


def test_recursion_semigroup():
    for h1 in range(3):
        for h2 in range(3):
            T1 = recursion_operator(h1, RP)(PT)
            T2 = recursion_operator(h2, RP)(PT)
            T12 = recursion_operator(h1 + h2, RP)(PT)
            prod = np.array(T1) @ np.array(T2)
            assert np.max(np.abs(prod - np.array(T12))) < 1e-12


def test_lambda_bracket_level_zero_is_weighted_canonical():
    f = ScalarField(lambda c: c[0] * c[3] + c[2] ** 2)
    g = ScalarField(lambda c: c[1] * c[5])
    v = lambda_bracket(f, g, PT, 0, M1)
    # level 0 with unit weights: canonical bracket in (I, phi)
    df = duals.grad(f.func, list(PT.coords))
    dg = duals.grad(g.func, list(PT.coords))
    expect = sum(df[i] * dg[3 + i] - df[3 + i] * dg[i] for i in range(3))
    assert abs(v - expect) < 1e-15


def test_lambda_bracket_generates_flow_at_each_level():
    X = dynamical_symmetry(0, RP)
    for h in range(3):
        F = ladder_energy_field(h, RP)
        for a in range(6):
            coord = ScalarField(lambda c, a=a: c[a])
            v = duals.value(lambda_bracket(F, coord, PT, h, RP))
            assert abs(v - duals.value(X(PT)[a])) < 1e-12


def test_lambda_bracket_antisymmetry_and_leibniz():
    f = ScalarField(lambda c: c[0] * c[4])
    g = ScalarField(lambda c: c[2] + c[5] ** 2)
    fg = ScalarField(lambda c: f.func(c) * g.func(c))
    h_field = ScalarField(lambda c: c[1] + c[3])
    v1 = lambda_bracket(f, g, PT, 2, RP)
    v2 = lambda_bracket(g, f, PT, 2, RP)
    assert abs(v1 + v2) < 1e-13
    lhs = lambda_bracket(fg, h_field, PT, 2, RP)
    rhs = duals.value(f(PT)) * lambda_bracket(g, h_field, PT, 2, RP) \
        + duals.value(g(PT)) * lambda_bracket(f, h_field, PT, 2, RP)
    assert abs(lhs - rhs) < 1e-12


def _recursion_gap(T, P, W0, x):
    """``max |T[a][b] - sum_c P[a][c] W0[b][c]|`` at ``x``: zero when
    ``T = P o P_0^{-1}``, with ``W0`` the two-form inverse to ``P_0``."""
    T, P, W0 = T(x), P(x), W0(x)
    return max_abs(T[a][b] - sum(P[a][c] * W0[b][c] for c in range(6))
                   for a in range(6) for b in range(6))


def test_recursion_operator_is_level_bivector_over_base_bivector():
    W0 = level_two_form(0, RP)
    for x in sample_delaunay(5, seed=7):
        for h in range(4):
            assert _recursion_gap(recursion_operator(h, RP), level_bivector(h, RP), W0, x) < 1e-14


def test_transported_tensors_keep_identities():
    x = PhasePoint((0.35, 0.6, 1.1, 0.5, 2.0, 1.3), Chart.ACTION_ANGLE)
    P0aa, W0aa, _ = hierarchy_in_action_angle(0, RP)
    for h in (1, 2, 3):
        Paa, Waa, Taa = hierarchy_in_action_angle(h, RP)
        assert max_abs(schouten_bracket(Paa, P0aa, x)) < 1e-11
        comp = flat_sharp_composition(Waa(x), Paa(x))
        assert max(abs(comp[i][j] - (i == j)) for i in range(6) for j in range(6)) < 1e-12
        assert _recursion_gap(Taa, Paa, W0aa, x) < 1e-14


def test_transported_pairing_with_in_chart_flow():
    x = PhasePoint((0.35, 0.6, 1.1, 0.5, 2.0, 1.3), Chart.ACTION_ANGLE)
    X = reduced_structures(RP)[2]
    for h in (1, 2, 3):
        Waa = hierarchy_in_action_angle(h, RP)[1]
        F = transported(ladder_energy_field(h, RP), RP)
        ip = interior_product(X, Waa, x)
        dF = gradient(F, x)
        assert max(abs(duals.value(ip[i]) + duals.value(dF[i])) for i in range(6)) < 1e-11


def test_displayed_table_level_zero_is_canonical():
    x = sample_action_angle(1, seed=3)[0]
    tab = displayed_bivector_table(0, RP, list(x.coords))
    for i in range(3):
        assert tab[i][3 + i] == 1.0
    assert tab[1][3] == 0.0 and tab[2][3] == 0.0 and tab[2][4] == 0.0


def test_displayed_table_diagonal_matches_transport_off_diagonal_does_not():
    x = sample_action_angle(1, seed=4)[0]
    for h in (1, 2):
        tab = displayed_bivector_table(h, RP, list(x.coords))
        true = hierarchy_in_action_angle(h, RP)[0](x)
        for i in range(3):
            assert abs(tab[i][3 + i] - duals.value(true[i][3 + i])) < 1e-12
        off = max(abs(tab[i][j] - duals.value(true[i][j])) for i in range(6) for j in range(6))
        assert off > 1e-3  # the displayed off-diagonal pattern is not the transport


def test_displayed_table_internal_relation():
    x = sample_action_angle(1, seed=5)[0]
    for h in (1, 2, 3):
        tab = displayed_bivector_table(h, RP, list(x.coords))
        assert abs(tab[1][3] - (tab[0][3] - tab[1][4]) / RP.M) < 1e-14


def test_negative_control_breaks_compatibility():
    Pc = corrupted_first_level_bivector(RP)
    P0 = level_bivector(0, RP)
    assert max_abs(schouten_bracket(Pc, P0, PT)) > 1e-2


def test_energy_rescaled_map_is_canonical():
    fwd = energy_rescaled_map(RP)
    N = weight_vector(RP)
    omega_w = np.zeros((6, 6))
    for j in range(3):
        omega_w[j][3 + j] = 1.0 / N[j]
        omega_w[3 + j][j] = -1.0 / N[j]
    for x in sample_delaunay(5, seed=6):
        J = np.array(duals.jacobian(fwd, list(x.coords)))
        assert np.max(np.abs(J.T @ omega_w @ J - omega_w)) < 1e-11


def test_classical_delaunay_frozen_values():
    assert classical_delaunay(1.0, 1.0, 1.0) == 1.0


def test_classical_delaunay_energy_consistency():
    a, m, k = 1.3, 1.2, 0.9
    i3 = classical_delaunay(a, m, k)
    assert abs(-m * k**2 / (2 * i3**2) - (-k / (2 * a))) < 1e-14


def test_delaunay_state_guard():
    # the flow field is undefined at I3 = 0
    x = PhasePoint((0.5, 0.6, 0.0, 0.0, 0.0, 0.0), Chart.DELAUNAY)
    with pytest.raises(ChartDomainError, match="I3 = 0"):
        dynamical_symmetry(0, RP)(x)


def test_transport_of_base_level_is_canonical_pair():
    x = PhasePoint((0.4, 0.7, 1.0, 0.2, 1.5, 2.8), Chart.ACTION_ANGLE)
    P0aa, W0aa, T0aa = hierarchy_in_action_angle(0, RP)
    P = P0aa(x)
    W = W0aa(x)
    T = T0aa(x)
    for i in range(3):
        assert abs(P[i][3 + i] - 1.0) < 1e-14
        assert abs(W[i][3 + i] - 1.0) < 1e-14
    for i in range(6):
        for j in range(6):
            assert abs(T[i][j] - (1.0 if i == j else 0.0)) < 1e-14
            if j != i + 3 and i != j + 3:
                assert abs(P[i][j]) < 1e-14


def _flat(nested) -> list:
    if isinstance(nested, (list, tuple)):
        return [v for e in nested for v in _flat(e)]
    return [nested]


def test_batched_level_checks_equal_the_per_point_route_bitwise():
    # every loop of the hierarchy suite's _levels check, at its own points:
    # each point's slice of the batched value is that point's float value
    cfg = VerifyConfig()
    rp, N = cfg.reduced, weight_vector(cfg.reduced)
    pts = sample_delaunay(cfg.samples, cfg.seed)
    X, P0 = dynamical_symmetry(0, rp), level_bivector(0, rp)
    routes = [(pts[:12], lambda x: schouten_bracket(corrupted_first_level_bivector(rp), P0, x))]
    for h in range(cfg.h_max + 1):
        Ph, om, Fh = level_bivector(h, rp), level_two_form(h, rp), ladder_energy_field(h, rp)
        routes += [
            (pts[:12], lambda x, h=h, Ph=Ph: [schouten_bracket(Ph, level_bivector(hp, rp), x)
                                              for hp in range(h)]),
            (pts, lambda x, om=om, Fh=Fh: [duals.value(a) + duals.value(b) for a, b in zip(
                interior_product(X, om, x), gradient(Fh, x))]),
            (pts[:20], lambda x, om=om, Ph=Ph: flat_sharp_composition(om(x), Ph(x))),
            (pts[:12], lambda x, h=h: nijenhuis_torsion(recursion_operator(h, rp), x)),
            (pts[:20], lambda x, h=h: [sum(duals.value(v) * duals.value(d) for v, d in zip(
                X(x), gradient(ScalarField(lambda c, j=j: N[j] ** h * duals.power(c[j], h)), x)))
                for j in range(3)]),
            (pts[:10], lambda x, h=h, Fh=Fh: [
                duals.value(lambda_bracket(Fh, ScalarField(lambda c, a=a: c[a]), x, h, rp))
                - duals.value(X(x)[a]) for a in range(6)]),
        ]
    for points, route in routes:
        n = len(points)
        batched = _flat(route(batch(points)))
        for p, x in enumerate(points):
            assert [float(np.broadcast_to(duals.value(v), n)[p]).hex() for v in batched] == \
                [duals.value(v).hex() for v in _flat(route(x))]


# -- the one transport against the hand-written ones --------------------------
#
# References: the three per-kind transports, built on the displayed chart
# matrices, and the action-angle energy written on the recombined action.
# ``transported`` must reproduce every value and tangent by ``float.hex``.


def _ref_matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def _ref_upper(full):
    out = [[0.0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            out[i][j] = full[i][j]
            out[j][i] = -full[i][j]
    return out


def _ref_inverse(rp):
    """The (I, phi) -> (J, varphi) Jacobian as the charts module displays it."""
    M = rp.M
    return [[0.0, -1.0, 1.0, 0.0, 0.0, 0.0], [-1.0 / M, 1.0 / M, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, M], [0.0, 0.0, 0.0, 1.0, 1.0 / M, 1.0]]


def _ref_fwd_map(rp):
    """The (J, varphi) -> (I, phi) map as a sum over the nonzero entries of
    its displayed Jacobian, and that Jacobian."""
    M = rp.M
    Dfwd = [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0], [0.0, M, 1.0, 0.0, 0.0, 0.0],
            [1.0, M, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, -1.0 / M, 1.0],
            [0.0, 0.0, 0.0, -M, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]]

    def fwd(c):
        return [sum(Dfwd[i][j] * c[j] for j in range(6) if Dfwd[i][j] != 0.0) for i in range(6)]

    return fwd, Dfwd


def ref_transported_bivector(h, rp):
    fwd, _ = _ref_fwd_map(rp)
    Dinv = _ref_inverse(rp)

    def func(c):
        M1 = _ref_matmul(Dinv, level_bivector(h, rp).func(fwd(c)))
        return _ref_upper([[sum(M1[i][k] * Dinv[j][k] for k in range(6)) for j in range(6)]
                           for i in range(6)])

    return func


def ref_transported_two_form(h, rp):
    fwd, Dfwd = _ref_fwd_map(rp)

    def func(c):
        M1 = _ref_matmul(level_two_form(h, rp).func(fwd(c)), Dfwd)
        return _ref_upper([[sum(Dfwd[k][i] * M1[k][j] for k in range(6)) for j in range(6)]
                           for i in range(6)])

    return func


def ref_transported_recursion(h, rp):
    fwd, Dfwd = _ref_fwd_map(rp)
    Dinv = _ref_inverse(rp)
    return lambda c: _ref_matmul(_ref_matmul(Dinv, recursion_operator(h, rp).func(fwd(c))), Dfwd)


def ref_action_angle_energy(h, rp):
    m, k, M = rp.m, rp.k, rp.M
    return lambda c: -m * k**2 / ((2.0 + h) * duals.power(c[0] + M * c[1] + c[2], 2 + h))


def _hexes(v) -> list:
    """Every float inside ``v`` (nested lists, duals and arrays), in order."""
    if isinstance(v, (list, tuple)):
        return [x for e in v for x in _hexes(e)]
    if isinstance(v, duals.Dual):
        return _hexes(v.a) + _hexes(list(v.b))
    if isinstance(v, np.ndarray):
        return [float(x).hex() for x in v.tolist()]
    return [float(v).hex()]


TRANSPORT_PARAMS = [RP, VerifyConfig().reduced]


@pytest.mark.parametrize("rp", TRANSPORT_PARAMS, ids=["thetadot-0.005", "thetadot-0.006"])
def test_transported_equals_the_per_kind_transports_bitwise(rp):
    pts = [list(x.coords) for x in sample_action_angle(20, seed=21)]
    inputs = pts + [duals.seed(c) for c in pts] + [duals.seed(duals.seed(c)) for c in pts[:3]]
    inputs.append(batch(pts))
    for h in range(4):
        pairs = [
            (level_bivector(h, rp), ref_transported_bivector(h, rp)),
            (level_two_form(h, rp), ref_transported_two_form(h, rp)),
            (recursion_operator(h, rp), ref_transported_recursion(h, rp)),
            (ladder_energy_field(h, rp), ref_action_angle_energy(h, rp)),
        ]
        for F, ref in pairs:
            new = transported(F, rp).func
            for c in inputs:
                assert _hexes(new(c)) == _hexes(ref(c)), (h, ref)
        energy = transported(ladder_energy_field(h, rp), rp)
        for c in pts:
            assert _hexes(duals.hessian(energy.func, c)) == \
                _hexes(duals.hessian(ref_action_angle_energy(h, rp), c))
