import math

import numpy as np
import pytest

from nckepler import duals, suites
from nckepler.charts import forward_jacobian, inverse_jacobian
from nckepler.errors import ChartDomainError
from nckepler.geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    VectorField,
    batch,
    gradient,
    hamiltonian_vector_field,
    lie_bracket,
    lie_bracket_field,
    lie_derivative,
    max_abs,
    max_abs_per_point,
    pair_matrix,
)
from nckepler.hierarchy import (
    ladder_energy_field,
    level_bivector,
    recursion_operator,
    weight_vector,
)
from nckepler.master import (
    apply_recursion_to_vector,
    coefficient_pattern_table,
    conformal_coefficients,
    dynamical_symmetry,
    family_energy_field,
    family_flow_field,
    family_gamma_field,
    family_two_form,
    master_integral,
    master_symmetry_field,
    pairing_residual,
    scaling_ledger,
)
from nckepler.reduced import ReducedParams, energy_from_actions
from nckepler.sampling import sample_delaunay
from nckepler.suites import VerifyConfig

RP = ReducedParams(thetadot=0.006, phidot=0.25)
PT = PhasePoint((0.6, 1.1, 1.9, 0.3, 2.2, 5.0), Chart.DELAUNAY)
MASTER_POINTS = sample_delaunay(max(50, VerifyConfig().samples // 2), VerifyConfig().seed)


def _point(batched, p: int, n: int) -> float:
    """Point ``p`` of a batched value; a float stands for every point."""
    return float(np.broadcast_to(duals.value(batched), n)[p])


def test_dynamical_symmetries_commute_with_flow():
    XH = dynamical_symmetry(0, RP)
    for h in range(4):
        Xh = dynamical_symmetry(h, RP)
        assert max_abs(lie_bracket(XH, Xh, PT)) < 1e-13


def test_level_zero_symmetry_is_the_flow():
    # X_0 = (m k^2 / I3^3) d/dphi^3, the flow of H = -m k^2 / (2 I3^2)
    X0 = dynamical_symmetry(0, RP)
    assert X0(PT) == [0.0, 0.0, 0.0, 0.0, 0.0, RP.m * RP.k**2 / PT.coords[2] ** 3]


def test_dynamical_symmetry_is_level_hamiltonian_field():
    P0 = level_bivector(0, RP)
    for h in range(3):
        F = ladder_energy_field(h, RP)
        X_from_P = hamiltonian_vector_field(P0, F)
        Xh = dynamical_symmetry(h, RP)
        for x in sample_delaunay(5, seed=1):
            a = [duals.value(v) for v in X_from_P(x)]
            b = [duals.value(v) for v in Xh(x)]
            assert max(abs(u - v) for u, v in zip(a, b)) < 1e-11


def test_ladder_bracket_lands_on_angle_direction_field():
    # the bracket produces the d/dphi^3 field; the action-direction reading
    # of the same display fails by construction
    for i in range(3):
        for mu in range(4):
            Xi = dynamical_symmetry(i, RP)
            G = master_symmetry_field(i, mu, RP)
            br = [duals.value(v) for v in lie_bracket(Xi, G, PT)]
            angle_reading = [duals.value(v) for v in dynamical_symmetry(i + mu, RP)(PT)]
            assert max(abs(a - b) for a, b in zip(br, angle_reading)) < 1e-10
            action_reading = [0.0, 0.0, angle_reading[5], 0.0, 0.0, 0.0]
            assert max(abs(a - b) for a, b in zip(br, action_reading)) > 1e-3


def test_generated_symmetries_commute():
    for i in range(3):
        for mu in range(4):
            Xi = dynamical_symmetry(i, RP)
            Xt = dynamical_symmetry(i + mu, RP)
            assert max_abs(lie_bracket(Xi, Xt, PT)) < 1e-13


def test_degree_one_master_property():
    XH = dynamical_symmetry(0, RP)
    for mu in range(3):
        G = master_symmetry_field(0, mu, RP)
        first = lie_bracket_field(XH, G)
        assert max_abs(first(PT)) > 1e-4
        assert max_abs(lie_bracket(XH, first, PT)) < 1e-12


def test_master_integral_pairing_on_zero_angle_section():
    probe = PhasePoint((0.7, 1.3, 2.1, 0.0, 0.0, 0.0), Chart.DELAUNAY)
    for mu in range(4):
        assert pairing_residual(0, mu, RP, probe) < 1e-12
    for x in sample_delaunay(10, seed=2, zero_angles=True):
        for mu in range(4):
            assert pairing_residual(0, mu, RP, x) < 1e-12


def test_master_integral_pairing_obstruction_off_section():
    # for mu != 1 the pairing one-form is not closed: nonzero residual with
    # the predicted phi-linear coefficients
    x = PT
    for mu in (0, 2, 3):
        resid = pairing_residual(0, mu, RP, x)
        N = weight_vector(RP)
        predicted = max(
            abs((mu - 1) * N[j] ** (mu - 1) * x.coords[3 + j] / (3.0 * x.coords[j] ** mu))
            for j in range(3)
        )
        assert abs(resid - predicted) < 1e-12
    assert pairing_residual(0, 1, RP, x) < 1e-14


def test_log_branch_master_integral():
    F2 = master_integral(0, 2, RP)
    x = PT
    expect = sum(
        weight_vector(RP)[j] / 3.0 * (math.log(x.coords[j]) - x.coords[3 + j] / x.coords[j])
        for j in range(3)
    )
    assert abs(duals.value(F2(x)) - expect) < 1e-14


def test_conformal_coefficients_frozen_and_verified():
    # each residual holds only with its coefficient: -1/(3+i), 0 and -2/(3+i)
    for i in range(0, 5):
        cc = conformal_coefficients(i, RP, PT)
        assert cc.residual_P < 1e-13
        assert cc.residual_P1 < 1e-13
        assert cc.residual_H < 1e-13


def test_conformal_energy_scaling_in_action_angle_chart():
    # transported scaling field acts on the action-angle energy with the
    # same coefficient
    Dinv = inverse_jacobian(RP)
    Dfwd = forward_jacobian(RP)
    G_del = master_symmetry_field(0, 0, RP)

    def gamma_aa(c):
        y = [sum(Dfwd[i][j] * c[j] for j in range(6)) for i in range(6)]
        g = G_del.func(y)
        return [sum(Dinv[i][j] * g[j] for j in range(6)) for i in range(6)]

    G_aa = VectorField(gamma_aa)
    H_aa = ScalarField(lambda c: energy_from_actions(c[:3], RP))
    x = PhasePoint((0.4, 0.7, 1.0, 0.3, 1.1, 2.0), Chart.ACTION_ANGLE)
    lhs = lie_derivative(G_aa, H_aa, x)
    assert abs(duals.value(lhs) + (2.0 / 3.0) * duals.value(H_aa(x))) < 1e-13


def test_recursion_family_closed_forms():
    XH = dynamical_symmetry(0, RP)
    assert max(
        abs(duals.value(a) - duals.value(b)) for a, b in zip(family_flow_field(0, RP)(PT), XH(PT))
    ) < 1e-15
    for h in range(4):
        Xcf = family_flow_field(h, RP)
        Xap = apply_recursion_to_vector(dynamical_symmetry(0, RP), h, RP)
        Gcf = family_gamma_field(0, h, RP)
        Gap = apply_recursion_to_vector(master_symmetry_field(0, 0, RP), h, RP)
        for x in sample_delaunay(5, seed=3):
            assert max(abs(duals.value(a) - duals.value(b))
                       for a, b in zip(Xcf(x), Xap(x))) < 1e-10
            assert max(abs(duals.value(a) - duals.value(b))
                       for a, b in zip(Gcf(x), Gap(x))) < 1e-10


def test_family_energy_differentials():
    for h in range(4):
        Hh = family_energy_field(h, RP)
        for x in sample_delaunay(5, seed=4):
            g = gradient(Hh, x)
            expect = RP.m * RP.k**2 * x.coords[2] ** (h - 3)
            assert abs(duals.value(g[2]) - expect) < 1e-11
            assert max(abs(duals.value(g[a])) for a in (0, 1, 3, 4, 5)) < 1e-15
    # level 0 energy is the Hamiltonian itself
    H0 = family_energy_field(0, RP)
    assert abs(duals.value(H0(PT)) - (-RP.m * RP.k**2 / (2 * PT.coords[2] ** 2))) < 1e-15


def test_ledger_frozen_flow_coefficient():
    # i = h = l = 0: the flow-family derivative carries coefficient -1,
    # and the residual holds only with it
    entries = scaling_ledger(RP, PT, 0, 0, 0)
    flow_entry = [e for e in entries if "X'l" in e.identity][0]
    assert flow_entry.residual < 1e-13


def test_ledger_pairing_constant_at_degree_two():
    # h + l = 2 at i = 0: the pairing is the constant m k^2 / 3
    # (i, h, l) = (0, 1, 1) is the last triple, and the pairing its last relation
    pair_entry = scaling_ledger(RP, PT, 0, 1, 1)[-1]
    assert "pairing" in pair_entry.identity
    assert pair_entry.residual < 1e-14
    gih = family_gamma_field(0, 1, RP)
    pair = duals.value(gih(PT)[2]) * RP.m * RP.k**2 * PT.coords[2] ** (1 - 3)
    assert abs(pair - RP.m * RP.k**2 / 3.0) < 1e-14


def test_full_ledger_small_residuals():
    entries = scaling_ledger(RP, PT, 2, 2, 2)
    assert len(entries) == 27 * 6
    for n, e in enumerate(entries):
        assert e.residual < 1e-12, (n, e.identity, e.residual)


def _ref_ledger(i, h, l, rp, x):
    """Reference: one index triple, each relation through ``lie_derivative``
    along a fresh Gamma'_{i,h} and a fresh evaluation of its right-hand side."""
    gih = family_gamma_field(i, h, rp)
    den = 3.0 + i
    m, k = rp.m, rp.k

    def vec(lhs, rhs, coeff):
        return max_abs(duals.value(lhs[a]) - coeff * duals.value(rhs[a]) for a in range(6))

    def mat(lhs, rhs, coeff):
        return max_abs(duals.value(lhs[a][b]) - coeff * duals.value(rhs[a][b])
                       for a in range(6) for b in range(6))

    rows = [
        vec(lie_derivative(gih, family_gamma_field(i, l, rp), x),
            family_gamma_field(i, l + h, rp)(x), (l - h) / den),
        vec(lie_derivative(gih, family_flow_field(l, rp), x),
            family_flow_field(l + h, rp)(x), -(3.0 - l) / den),
        mat(lie_derivative(gih, level_bivector(l, rp), x),
            level_bivector(l + h, rp)(x), (l - h - 1.0) / den),
        mat(lie_derivative(gih, family_two_form(l, rp), x),
            family_two_form(l + h, rp)(x), (l + h + 1.0) / den),
        mat(lie_derivative(gih, recursion_operator(1, rp), x),
            recursion_operator(1 + h, rp)(x), 1.0 / den),
    ]
    pair = duals.value(gih(x)[2]) * (m * k**2 * x.coords[2] ** (l - 3))
    if h + l == 2:
        rows.append(abs(pair - m * k**2 / den))
    else:
        coeff = -(2.0 - (h + l)) / den
        rows.append(abs(pair - coeff * duals.value(family_energy_field(l + h, rp)(x))))
    return rows


@pytest.mark.parametrize("rp", [VerifyConfig().reduced,
                                ReducedParams(thetadot=-0.004, phidot=-0.2, m=1.3, k=0.7)])
def test_scaling_ledger_equals_the_per_relation_route_bitwise(rp):
    # the master suite's points; the second parameter set has m k^2 != 1
    cfg = VerifyConfig()
    largest = 0.0
    for x in sample_delaunay(max(50, cfg.samples // 2), cfg.seed)[:20]:
        entries = scaling_ledger(rp, x, 2, 2, 2)
        ref = [(i, h, l, resid) for i in range(3) for h in range(3) for l in range(3)
               for resid in _ref_ledger(i, h, l, rp, x)]
        assert len(entries) == len(ref) == 27 * 6
        for e, (i, h, l, resid) in zip(entries, ref):
            assert e.residual.hex() == resid.hex(), (i, h, l, e.identity)
            largest = max(largest, e.residual)
    assert largest > 0.0


@pytest.mark.parametrize("rp", [VerifyConfig().reduced,
                                ReducedParams(thetadot=-0.004, phidot=-0.2, m=1.3, k=0.7)])
def test_batched_scaling_ledger_equals_the_per_point_route_bitwise(rp):
    # each point's slice of the one batched call is that point's float-route
    # residual, over all 50 of the master suite's ledger points
    n = len(MASTER_POINTS)
    batched = scaling_ledger(rp, batch(MASTER_POINTS), 2, 2, 2)
    assert len(batched) == 27 * 6
    for p, x in enumerate(MASTER_POINTS):
        per_point = scaling_ledger(rp, x, 2, 2, 2)
        for b, e in zip(batched, per_point, strict=True):
            assert b.identity == e.identity
            assert _point(b.residual, p, n).hex() == e.residual.hex(), (p, e.identity)


def test_batched_ladder_and_degree_one_equal_the_per_point_route_bitwise():
    # the component gaps of _ladder (25 points) and _degree_one (10 points)
    rp = VerifyConfig().reduced
    for pts, pairs, route in (
        (MASTER_POINTS[:25], [(i, mu) for i in range(4) for mu in range(4)],
         lambda i, mu, x: (
             [duals.value(a) - duals.value(b) for a, b in zip(
                 lie_bracket(dynamical_symmetry(i, rp), master_symmetry_field(i, mu, rp), x),
                 dynamical_symmetry(i + mu, rp)(x))]
             + lie_bracket(dynamical_symmetry(i, rp), dynamical_symmetry(i + mu, rp), x))),
        (MASTER_POINTS[:10], [(i, mu) for i in range(3) for mu in range(3)],
         lambda i, mu, x: (
             lie_bracket_field(dynamical_symmetry(0, rp), master_symmetry_field(i, mu, rp))(x)
             + lie_bracket(dynamical_symmetry(0, rp), lie_bracket_field(
                 dynamical_symmetry(0, rp), master_symmetry_field(i, mu, rp)), x))),
    ):
        n = len(pts)
        for i, mu in pairs:
            batched = route(i, mu, batch(pts))
            for p, x in enumerate(pts):
                assert [_point(v, p, n).hex() for v in batched] == \
                    [duals.value(v).hex() for v in route(i, mu, x)], (i, mu, p)


def test_batched_smallest_first_bracket_equals_the_per_point_minimum():
    rp = VerifyConfig().reduced
    first = lie_bracket_field(dynamical_symmetry(0, rp), master_symmetry_field(1, 2, rp))
    pts = MASTER_POINTS[:10]
    assert max_abs_per_point(first(batch(pts))).tolist() == [max_abs(first(x)) for x in pts]


def test_scaling_ledger_check_takes_19_seeded_passes_for_its_50_points(monkeypatch):
    # one batch for the whole check; one call per point took 19 each, 950
    calls = []
    seed = duals.seed
    monkeypatch.setattr(duals, "seed", lambda coords: calls.append(1) or seed(coords))
    entry, = suites._scaling_ledger(suites.Context(VerifyConfig(), MASTER_POINTS))
    assert len(calls) == 19
    assert len(entry.residual) == 27 * 6 and all(r.shape == (50,) for r in entry.residual)


@pytest.mark.parametrize("at", [0, 17, 49])
def test_zero_action_guards_test_every_point_of_a_batch(at):
    b = batch(MASTER_POINTS)
    for j in range(3):
        coords = [c.copy() for c in b]
        coords[j][at] = 0.0
        with pytest.raises(ChartDomainError, match=f"^master symmetry undefined at I{j + 1} = 0$"):
            master_symmetry_field(0, 1, RP)(coords)
        with pytest.raises(ChartDomainError, match=f"^master symmetry undefined at I{j + 1} = 0$"):
            master_symmetry_field(0, 2, RP)(duals.seed(coords))
        if j == 2:
            with pytest.raises(ChartDomainError, match="^dynamical symmetry undefined at I3 = 0$"):
                dynamical_symmetry(1, RP)(coords)
            with pytest.raises(ChartDomainError, match="^dynamical symmetry undefined at I3 = 0$"):
                dynamical_symmetry(0, RP)(duals.seed(coords))
    assert len(dynamical_symmetry(1, RP)(b)[5]) == len(MASTER_POINTS)


def test_scaling_ledger_takes_one_seeded_pass_per_field(monkeypatch):
    # Gamma'_{i,n} for i, n <= 2, then X'_l, P'_l, omega'_l for l <= 2, and
    # T_1: 19 per point; the per-triple route took 270
    calls = []
    seed = duals.seed
    monkeypatch.setattr(duals, "seed", lambda coords: calls.append(1) or seed(coords))
    scaling_ledger(RP, PT, 2, 2, 2)
    assert len(calls) == 19
    calls.clear()
    scaling_ledger(RP, PT, 1, 1, 3)  # 2 * 4 + 3 * 4 + 1
    assert len(calls) == 21


def test_coefficient_patterns_match_except_flow_family():
    for i in range(3):
        for h in range(3):
            for l in range(3):
                for row in coefficient_pattern_table(i, h, l):
                    if row.identity == "flow family":
                        assert row.consistent == (l == 1)
                    else:
                        assert row.consistent, (i, h, l, row)


def test_two_form_family_matches_adjoint_application():
    # omega'_h is (T*)^h applied to the rows of the weighted base form,
    # with the adjoint (T* a)_b = a_c T^c_b
    N = weight_vector(RP)
    T = recursion_operator(1, RP)
    for x in sample_delaunay(3, seed=5):
        mat = T.func(list(x.coords))
        rows = pair_matrix([1.0 / n for n in N])
        for h in range(3):
            W = family_two_form(h, RP)(x)
            for a in range(6):
                assert max(abs(duals.value(W[a][b]) - duals.value(rows[a][b])) for b in range(6)) < 1e-12
            rows = [[sum(r[c] * mat[c][b] for c in range(6)) for b in range(6)] for r in rows]
