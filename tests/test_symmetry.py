import math

import numpy as np
import pytest

from nckepler import duals, symmetry
from nckepler.deformation import (
    DeformationParams,
    nc_bracket,
    transform_coordinates,
)
from nckepler.errors import ChartDomainError, InvalidDeformationError, SingularConfigurationError
from nckepler.geometry import Chart, PhasePoint, ScalarField, batch, coords_of
from nckepler.kepler import (
    deformed_radius,
    hamiltonian,
    hamiltonian_field,
    primed_angular_momentum,
    primed_lrl_vector,
    primed_observables,
    primed_radius,
)
from nckepler.sampling import sample_cartesian, sample_deformations
from nckepler.symmetry import (
    EnergySign,
    angular_momentum,
    angular_momentum_field,
    bracket_H_closed_forms,
    closure_fit,
    generator_matrix,
    involution_parameter_search,
    levi_civita,
    lrl_field,
    lrl_vector,
    observables_jacobian,
    pairwise_bracket_table,
    scaled_basis,
    structure_matrices,
)

COMM = DeformationParams()
GENERIC = DeformationParams(
    alpha=[[0, 0.15, -0.08], [-0.15, 0, 0.11], [0.08, -0.11, 0]],
    lam=[[0, 0.09, 0.05], [-0.09, 0, -0.13], [-0.05, 0.13, 0]],
    mass=1.2,
    k=1.7,
)
X = PhasePoint((1.0, 0.4, -0.2, 0.1, 0.9, 0.3), Chart.CARTESIAN)


def test_levi_civita_normalization():
    assert levi_civita(0, 1, 2) == 1.0
    assert levi_civita(1, 0, 2) == -1.0
    assert levi_civita(0, 0, 2) == 0.0


def test_angular_momentum_classical_value():
    x = PhasePoint((1, 0, 0, 0, 1, 0), Chart.CARTESIAN)
    assert angular_momentum(x, COMM) == [0.0, 0.0, 1.0]


def test_angular_momentum_orthogonality():
    for x in sample_cartesian(20, seed=1, params=GENERIC):
        L = angular_momentum(x, GENERIC)
        primed = transform_coordinates(x, GENERIC)
        qd = sum(L[i] * primed[i] for i in range(3))
        pd = sum(L[i] * primed[3 + i] for i in range(3))
        assert abs(qd) < 1e-12 and abs(pd) < 1e-12


def test_lrl_zero_on_circular_orbit():
    x = PhasePoint((1, 0, 0, 0, 1, 0), Chart.CARTESIAN)
    assert max(abs(v) for v in lrl_vector(x, COMM)) < 1e-15


def test_lrl_hand_value():
    x = PhasePoint((1, 0, 0, 0, 0.5, 0), Chart.CARTESIAN)
    A = lrl_vector(x, COMM)
    assert abs(A[0] - (-0.75)) < 1e-15
    assert abs(A[1]) < 1e-15 and abs(A[2]) < 1e-15


def test_lrl_orthogonal_to_angular_momentum():
    for x in sample_cartesian(20, seed=2, params=GENERIC):
        L = angular_momentum(x, GENERIC)
        A = lrl_vector(x, GENERIC)
        scale = max(1.0, max(abs(v) for v in A))
        assert abs(sum(L[i] * A[i] for i in range(3))) / scale < 1e-11


def test_structure_matrices_commutative():
    sm = structure_matrices(COMM)
    assert sm.F == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert sm.D == ((0,) * 3,) * 3
    assert sm.E == ((0,) * 3,) * 3


def test_structure_matrices_match_weighted_brackets():
    sm = structure_matrices(GENERIC)
    primed = [ScalarField(lambda c, i=i: transform_coordinates(c, GENERIC)[i]) for i in range(6)]
    for i in range(3):
        for j in range(3):
            assert abs(nc_bracket(primed[3 + i], primed[j], X, GENERIC) - sm.F[i][j]) < 1e-12
            assert abs(nc_bracket(primed[3 + i], primed[3 + j], X, GENERIC) - sm.D[i][j]) < 1e-12
            assert abs(nc_bracket(primed[i], primed[j], X, GENERIC) - sm.E[i][j]) < 1e-12


def _closed_forms(x, params):
    """The {H, L_i} and {H, A_i} closed forms at the frame of ``x``."""
    return bracket_H_closed_forms(observables_jacobian(x, params)[0], params)


def _hexes(values) -> list:
    """Each value, a float or an array over points, as exact hex strings."""
    return [[e.hex() for e in np.ravel(v).tolist()] for v in values]


def test_observables_frame_is_the_float_evaluation_bitwise(monkeypatch):
    calls = []
    seed = duals.seed
    monkeypatch.setattr(duals, "seed", lambda coords: calls.append(1) or seed(coords))
    for params in sample_deformations(5) + [COMM]:
        points = sample_cartesian(20, params=params)
        for coords in [coords_of(x) for x in points] + [batch(points)]:
            calls.clear()
            fr, rows = observables_jacobian(coords, params)
            assert len(calls) == 1 and len(rows) == 7
            z = transform_coordinates(coords, params)
            H, *LA = primed_observables(z, params)
            want = [*z, primed_radius(z), H, *LA]
            got = [*fr.qp, *fr.pp, fr.y, fr.H, *fr.L, *fr.A]
            assert _hexes(got) == _hexes(want)
            assert all(type(v) is type(coords[0]) for v in got)


def test_bracket_H_L_closed_form_vanishes_commutative():
    cL, cA = _closed_forms(X, COMM)
    assert max(abs(v) for v in cL) < 1e-14
    assert max(abs(v) for v in cA) < 1e-13


def test_bracket_H_closed_forms_match_autodiff():
    Hf = hamiltonian_field(GENERIC)
    for x in sample_cartesian(30, seed=3, params=GENERIC):
        cL, cA = _closed_forms(x, GENERIC)
        for i in range(3):
            ad = nc_bracket(Hf, angular_momentum_field(GENERIC, i), x, GENERIC)
            assert abs(ad - cL[i]) < 1e-9
            ad = nc_bracket(Hf, lrl_field(GENERIC, i), x, GENERIC)
            assert abs(ad - cA[i]) < 1e-9


def test_reduced_bracket_forms_when_de_vanish():
    # in the commutative limit D = E = 0 and the closed forms reduce to the
    # F-only expressions, which vanish identically
    sm = structure_matrices(COMM)
    assert all(v == 0.0 for row in sm.D for v in row)
    assert all(v == 0.0 for row in sm.E for v in row)
    for x in sample_cartesian(5, seed=4):
        assert abs(_closed_forms(x, COMM)[0][0]) < 1e-13


def test_pairwise_table_chain_route_everywhere():
    for x in sample_cartesian(10, seed=5, params=GENERIC):
        t = pairwise_bracket_table(x, GENERIC)
        for block in t.values():
            for e in block.values():
                assert e.ad_vs_chain < 1e-12


def test_pairwise_table_diagonals_vanish():
    t = pairwise_bracket_table(X, GENERIC)
    for i in range(3):
        assert abs(t["LL"][(i, i)].ad) < 1e-13
        assert abs(t["AA"][(i, i)].ad) < 1e-12


def test_structure_constant_forms_exact_in_commutative_limit():
    for x in sample_cartesian(20, seed=7, params=COMM, energy_sign="minus"):
        t = pairwise_bracket_table(x, COMM)
        for block in t.values():
            for e in block.values():
                assert e.ad_vs_closed < 1e-12


def test_commutative_ll_bracket_sign_convention():
    # {L1, L2} under the weighted bracket equals -L3 (the flipped-sign
    # convention), which is the structure-constant form with Fprime = -1
    x = PhasePoint((1.0, 0.3, -0.5, 0.4, 0.8, 0.1), Chart.CARTESIAN)
    L = angular_momentum(x, COMM)
    v = nc_bracket(angular_momentum_field(COMM, 0), angular_momentum_field(COMM, 1), x, COMM)
    assert abs(v - (-L[2])) < 1e-13


def test_aa_bracket_scales_with_energy():
    x = PhasePoint((1.2, 0.1, 0.3, 0.2, 0.7, -0.1), Chart.CARTESIAN)
    v = nc_bracket(lrl_field(COMM, 0), lrl_field(COMM, 1), x, COMM)
    H = hamiltonian(x, COMM)
    L = angular_momentum(x, COMM)
    assert abs(v - 2.0 * COMM.mass * H * L[2]) < 1e-12
    assert abs(v - pairwise_bracket_table(x, COMM)["AA"][(0, 1)].closed) < 1e-12


def test_involution_condition_1_is_solved_exactly():
    # s_ij = lam_ij alpha_ij = -2 for every pair, where every theta weight
    # vanishes; each row s_ij + (s_ik + s_jk) / 2 = -4 holds with no residue
    s, theta = involution_parameter_search()
    s12, s13, s23 = s
    assert [s12 + (s13 + s23) / 2 + 4.0, s13 + (s12 + s23) / 2 + 4.0,
            s23 + (s12 + s13) / 2 + 4.0] == [0.0, 0.0, 0.0]
    assert s == [-2.0, -2.0, -2.0] and theta == [0.0, 0.0, 0.0]
    one = [[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]]
    two = [[-2.0 * v for v in row] for row in one]
    with pytest.raises(InvalidDeformationError, match="theta weight 1 vanishes"):
        DeformationParams(alpha=one, lam=two)


def test_scaled_runge_lenz_matches_unit_scale_at_half_energy():
    x = PhasePoint((1, 0, 0, 0, 0.5, 0), Chart.CARTESIAN)  # H = -0.875
    H = hamiltonian(x, COMM)
    G = scaled_basis(coords_of(x), COMM, EnergySign.MINUS)[3:]
    A = lrl_vector(x, COMM)
    s = math.sqrt(-2 * COMM.mass * H)
    assert max(abs(G[i] - A[i] / s) for i in range(3)) < 1e-15


def test_scaled_runge_lenz_sign_guards():
    bound = PhasePoint((1, 0, 0, 0, 0.5, 0), Chart.CARTESIAN)
    free = PhasePoint((1, 0, 0, 0, 2.0, 0), Chart.CARTESIAN)
    with pytest.raises(ChartDomainError, match="not positive"):
        scaled_basis(coords_of(bound), COMM, EnergySign.PLUS)
    with pytest.raises(ChartDomainError, match="not negative"):
        scaled_basis(coords_of(free), COMM, EnergySign.MINUS)
    near_zero = PhasePoint((1, 0, 0, 0, math.sqrt(2.0), 0), Chart.CARTESIAN)
    for tau in EnergySign:
        with pytest.raises(ChartDomainError, match="zero energy"):
            scaled_basis(coords_of(near_zero), COMM, tau)


def test_generator_set_patterns():
    pts = sample_cartesian(3, seed=12, params=COMM, energy_sign="minus")
    mat = generator_matrix(COMM, "so4", pts[0])
    assert mat[3][3] == 0.0
    for h in range(3):
        assert abs(mat[h][3] + mat[3][h]) < 1e-14
    # commutative reduction: the 3x3 block is -eps_{hji} L_i
    L = angular_momentum(pts[0], COMM)
    assert abs(mat[0][1] - (-L[2])) < 1e-13
    plus = sample_cartesian(3, seed=13, params=COMM, energy_sign="plus")
    mat13 = generator_matrix(COMM, "so13", plus[0])
    assert mat13[3][3] == 0.0
    for h in range(3):
        assert abs(mat13[h][3] - mat13[3][h]) < 1e-14
    with pytest.raises(ValueError, match="unknown generator set kind"):
        generator_matrix(COMM, "so3", pts[0])


# -- the generator matrix against the closure route ---------------------------
#
# Reference: one scalar field per scaled Runge-Lenz component and a 4x4
# table of field closures, each evaluated at the point on its own.
# ``generator_matrix`` must reproduce every entry by ``float.hex`` and every
# domain error by its message.


def ref_scaled_runge_lenz_field(params, tau, i):
    def evaluate(c):
        H = hamiltonian(c, params)
        Hv = duals.value(H)
        if abs(Hv) < 1e-12:
            raise ChartDomainError("scaled Runge-Lenz vector undefined at zero energy")
        if tau is EnergySign.MINUS and Hv >= 0.0:
            raise ChartDomainError(f"energy sign mismatch: H = {Hv} is not negative")
        if tau is EnergySign.PLUS and Hv <= 0.0:
            raise ChartDomainError(f"energy sign mismatch: H = {Hv} is not positive")
        scale = duals.sqrt(-2.0 * params.mass * H if tau is EnergySign.MINUS
                           else 2.0 * params.mass * H)
        return lrl_vector(c, params)[i] / scale

    return ScalarField(evaluate)


def ref_generator_matrix(params, kind, x):
    sm = structure_matrices(params)
    L = [angular_momentum_field(params, i) for i in range(3)]

    def block(h, j):
        return ScalarField(lambda c: sum(
            levi_civita(h, j, i) * (-sm.F[i][i]) * L[i](c) for i in range(3)))

    tau = EnergySign.MINUS if kind == "so4" else EnergySign.PLUS
    G = [ref_scaled_runge_lenz_field(params, tau, i) for i in range(3)]
    corner_sign = 1.0 if kind == "so4" else -1.0

    def corner(h):
        return ScalarField(lambda c: corner_sign * (-sm.F[h][h]) * G[h](c))

    rows = [[block(h, j) for j in range(3)] + [corner(h)] for h in range(3)]
    last = [corner(h) if kind == "so13" else ScalarField(lambda c, f=corner(h): -f(c))
            for h in range(3)]
    rows.append(last + [None])
    return [[0.0 if f is None else duals.value(f(x)) for f in row] for row in rows]


def matrix_outcome(route, params, kind, x):
    """The matrix a route gives, as hex strings, or the error that ends it."""
    try:
        return [[v.hex() for v in row] for row in route(params, kind, x)]
    except ChartDomainError as err:
        return f"ChartDomainError: {err}"


@pytest.mark.parametrize("params", [COMM, GENERIC], ids=["commutative", "generic"])
def test_generator_matrix_equals_the_closure_route_bitwise(params):
    bound = sample_cartesian(40, seed=16, params=params, energy_sign="minus")
    free = sample_cartesian(40, seed=17, params=params, energy_sign="plus")
    for kind in ("so4", "so13"):
        for x in bound + free:
            assert matrix_outcome(generator_matrix, params, kind, x) == \
                matrix_outcome(ref_generator_matrix, params, kind, x)


def _ref_closure_fit(points, params, tau):
    """Reference: two ``nc_bracket`` gradients per bracket and one plain
    pass of the six basis fields per block and point."""
    L_f = [angular_momentum_field(params, i) for i in range(3)]
    G_f = [ref_scaled_runge_lenz_field(params, tau, i) for i in range(3)]
    basis = L_f + G_f

    def single_coeff(pairs, targets):
        rows, rhs = [], []
        for x in points:
            bevals = [duals.value(b(x)) for b in basis]
            for (f, g), tgt in zip(pairs, targets):
                rows.append([bevals[tgt]])
                rhs.append(nc_bracket(f, g, x, params))
        A, b = np.array(rows), np.array(rhs)
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        return float(coef[0]), float(np.max(np.abs(A @ coef - b)))

    c_ll, r1 = single_coeff([(L_f[0], L_f[1]), (L_f[1], L_f[2]), (L_f[2], L_f[0])], [2, 0, 1])
    c_gg, r2 = single_coeff([(G_f[0], G_f[1]), (G_f[1], G_f[2]), (G_f[2], G_f[0])], [2, 0, 1])
    c_lg, r3 = single_coeff([(L_f[0], G_f[1]), (L_f[1], G_f[2]), (L_f[2], G_f[0])], [5, 3, 4])
    return c_ll, c_gg, c_lg, max(r1, r2, r3)


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_closure_fit_equals_the_nc_bracket_route_bitwise(sign, monkeypatch):
    tau = EnergySign(sign)
    for params in (COMM, GENERIC):
        points = sample_cartesian(30, seed=14, params=params, energy_sign=sign)
        ref = _ref_closure_fit(points, params, tau)
        calls = []
        basis = symmetry.scaled_basis
        monkeypatch.setattr(symmetry, "scaled_basis",
                            lambda c, *args: calls.append(isinstance(c[0], duals.Dual)) or basis(c, *args))
        fit = closure_fit(points, params, tau)
        monkeypatch.setattr(symmetry, "scaled_basis", basis)
        # one seeded pass of the six fields for the batch gives values and
        # gradients; the reference takes 18 per point
        assert calls == [True]
        got = (fit.coefficient_LL, fit.coefficient_GG, fit.coefficient_LG, fit.residual)
        assert [v.hex() for v in got] == [v.hex() for v in ref], params


def test_closure_fits_commutative_patterns():
    minus = sample_cartesian(30, seed=14, params=COMM, energy_sign="minus")
    fit = closure_fit(minus, COMM, EnergySign.MINUS)
    assert fit.residual < 1e-8
    assert abs(fit.coefficient_LL - (-1.0)) < 1e-9
    assert abs(fit.coefficient_GG - fit.coefficient_LL) < 1e-9
    assert abs(fit.coefficient_LG - fit.coefficient_LL) < 1e-9
    plus = sample_cartesian(30, seed=15, params=COMM, energy_sign="plus")
    fit13 = closure_fit(plus, COMM, EnergySign.PLUS)
    assert fit13.residual < 1e-8
    assert abs(fit13.coefficient_GG + fit13.coefficient_LL) < 1e-9


# -- the primed-coordinate evaluators against reference copies ----------------
#
# References: a cartesian route that transforms the point once per quantity
# it reads, and one function per component on the primed vector z.  The
# evaluators must match them bit for bit, values and tangents.


def _ref_deformed_radius(x, params):
    primed = transform_coordinates(x, params)
    y2 = primed[0] ** 2 + primed[1] ** 2 + primed[2] ** 2
    if duals.value(y2) <= 0.0:
        raise SingularConfigurationError("deformed radius Y vanished (q = alpha p / 2)")
    return duals.sqrt(y2)


def _ref_hamiltonian(x, params):
    primed = transform_coordinates(x, params)
    y = _ref_deformed_radius(x, params)
    kinetic = (primed[3] ** 2 + primed[4] ** 2 + primed[5] ** 2) / (2.0 * params.mass)
    return kinetic - params.k / y


def _ref_angular_momentum(x, params):
    z = transform_coordinates(x, params)
    q, p = z[:3], z[3:]
    return [
        q[1] * p[2] - q[2] * p[1],
        q[2] * p[0] - q[0] * p[2],
        q[0] * p[1] - q[1] * p[0],
    ]


def _ref_lrl_vector(x, params):
    z = transform_coordinates(x, params)
    q, p = z[:3], z[3:]
    L = _ref_angular_momentum(x, params)
    y = _ref_deformed_radius(x, params)
    mk = params.mass * params.k
    return [
        p[1] * L[2] - p[2] * L[1] - mk * q[0] / y,
        p[2] * L[0] - p[0] * L[2] - mk * q[1] / y,
        p[0] * L[1] - p[1] * L[0] - mk * q[2] / y,
    ]


def _ref_chain_angular_momentum(i):
    def f(z, i=i):
        q, p = z[:3], z[3:]
        j, kk = (i + 1) % 3, (i + 2) % 3
        return q[j] * p[kk] - q[kk] * p[j]

    return f


def _ref_chain_lrl(i, params):
    m, k = params.mass, params.k

    def f(z, i=i):
        q, p = z[:3], z[3:]
        L = [_ref_chain_angular_momentum(a)(z) for a in range(3)]
        j, kk = (i + 1) % 3, (i + 2) % 3
        y = duals.sqrt(q[0] ** 2 + q[1] ** 2 + q[2] ** 2)
        return p[j] * L[kk] - p[kk] * L[j] - m * k * q[i] / y

    return f


def _bits(v):
    """The value and every tangent of ``v``, as exact hex strings."""
    if isinstance(v, duals.Dual):
        return (v.a.hex(),) + tuple(t.hex() for t in v.b)
    return (float(v).hex(),)


def test_primed_evaluators_equal_the_reference_copies_bitwise():
    for params in sample_deformations(10):
        for x in sample_cartesian(100, params=params):
            for c in (list(x.coords), duals.seed(x.coords)):
                assert _bits(deformed_radius(c, params)) == _bits(_ref_deformed_radius(c, params))
                assert _bits(hamiltonian(c, params)) == _bits(_ref_hamiltonian(c, params))
                for new, ref in ((angular_momentum, _ref_angular_momentum),
                                 (lrl_vector, _ref_lrl_vector)):
                    assert [_bits(v) for v in new(c, params)] == \
                        [_bits(v) for v in ref(c, params)]
                z = transform_coordinates(c, params)
                assert _bits(primed_radius(z)) == _bits(_ref_deformed_radius(c, params))
                for i in range(3):
                    assert _bits(primed_angular_momentum(z)[i]) == \
                        _bits(_ref_chain_angular_momentum(i)(z))
                    assert _bits(primed_lrl_vector(z, params)[i]) == \
                        _bits(_ref_chain_lrl(i, params)(z))


# -- the bracket tables against the per-pair route ----------------------------
#
# References: the per-pair route the bracket tables replaced, kept verbatim
# up to names.  It differentiates each bracket's two observables separately
# (two seeded passes per bracket and route), rebuilds the structure and chain
# matrices per bracket and transforms the point once per quantity it reads.
# The one-pass tables must match it bit for bit, field by field.


def _ref_nc_bracket(f, g, x, params):
    coords = coords_of(x)
    df = duals.grad(f.func, coords)
    dg = duals.grad(g.func, coords)
    th = params.theta
    total = 0.0
    for nu in range(3):
        total = total + (df[3 + nu] * dg[nu] - df[nu] * dg[3 + nu]) / th[nu]
    return total


def _ref_primed_chain_bracket(f_primed, g_primed, x, params):
    sm = structure_matrices(params)
    z = [duals.value(v) for v in transform_coordinates(x, params)]
    B = [[0.0] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            B[i][j] = sm.E[i][j]
            B[i][3 + j] = -sm.F[j][i]
            B[3 + i][j] = sm.F[i][j]
            B[3 + i][3 + j] = sm.D[i][j]
    df = duals.grad(f_primed, z)
    dg = duals.grad(g_primed, z)
    return sum(
        df[u] * B[u][v] * dg[v] for u in range(6) for v in range(6) if B[u][v] != 0.0
    )


def _ref_primed_split(x, params):
    z = transform_coordinates(x, params)
    return [duals.value(v) for v in z[:3]], [duals.value(v) for v in z[3:]]


def _ref_bracket_H_with_L(x, params, i):
    qp, pp = _ref_primed_split(x, params)
    y = duals.value(deformed_radius(x, params))
    sm = structure_matrices(params)
    m, k = params.mass, params.k
    ky3 = k / y**3
    Dp = [sum(sm.D[nu][j] * pp[j] for j in range(3)) for nu in range(3)]
    Fq = [sum(sm.F[nu][j] * qp[j] for j in range(3)) for nu in range(3)]
    Fp = [sum(sm.F[j][nu] * pp[j] for j in range(3)) for nu in range(3)]
    Eq = [sum(sm.E[j][nu] * qp[j] for j in range(3)) for nu in range(3)]
    total = 0.0
    for mu in range(3):
        for nu in range(3):
            eps = levi_civita(mu, i, nu)
            if eps == 0.0:
                continue
            total += eps * (
                (Dp[nu] / m + ky3 * Fq[nu]) * qp[mu] + (Fp[nu] / m + ky3 * Eq[nu]) * pp[mu]
            )
    return total


def _ref_bracket_H_with_A(x, params, i):
    qp, pp = _ref_primed_split(x, params)
    y = duals.value(deformed_radius(x, params))
    sm = structure_matrices(params)
    m, k = params.mass, params.k
    ky3 = k / y**3
    L = [duals.value(v) for v in angular_momentum(x, params)]
    G = [
        sum(sm.D[rho][j] * pp[j] for j in range(3)) / m
        + ky3 * sum(sm.F[rho][j] * qp[j] for j in range(3))
        for rho in range(3)
    ]
    B = [_ref_bracket_H_with_L(x, params, rho) for rho in range(3)]
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
    total += (m * k / y**3) * sum(
        (sm.F[j][h] * pp[j] / m + ky3 * sm.E[j][h] * qp[j]) * qp[h] * qp[i]
        for j in range(3)
        for h in range(3)
    )
    return total


def _ref_ll_structure_form(x, params, i, j):
    sm = structure_matrices(params)
    L = [duals.value(v) for v in angular_momentum(x, params)]
    return sum(levi_civita(i, j, h) * (-sm.F[h][h]) * L[h] for h in range(3))


def _ref_aa_structure_form(x, params, i, j):
    sm = structure_matrices(params)
    L = [duals.value(v) for v in angular_momentum(x, params)]
    H = duals.value(hamiltonian(x, params))
    return -2.0 * params.mass * sum(
        levi_civita(i, j, h) * (-sm.F[h][h]) * H * L[h] for h in range(3)
    )


def _ref_lai_structure_form(x, params):
    _, pp = _ref_primed_split(x, params)
    sm = structure_matrices(params)
    L = [duals.value(v) for v in angular_momentum(x, params)]
    return sum(
        -sm.F[j][h] * (L[h] * pp[j] + L[j] * pp[h]) for j in range(3) for h in range(3)
    )


def _ref_la_structure_form(x, params, i, j):
    qp, pp = _ref_primed_split(x, params)
    sm = structure_matrices(params)
    y = duals.value(deformed_radius(x, params))
    L = [duals.value(v) for v in angular_momentum(x, params)]
    A = [duals.value(v) for v in lrl_vector(x, params)]
    mky = params.mass * params.k / y
    total = 0.0
    for h in range(3):
        eps = levi_civita(i, j, h)
        if eps == 0.0:
            continue
        fp = -sm.F[h][j]
        total += eps * ((-sm.F[h][h]) * A[h] - fp * mky * qp[j] + fp * L[i] * pp[h])
    return total


def _ref_pairwise_bracket_table(x, params):
    L_z = [lambda z, i=i: primed_angular_momentum(z)[i] for i in range(3)]
    A_z = [lambda z, i=i: primed_lrl_vector(z, params)[i] for i in range(3)]
    L_f = [angular_momentum_field(params, i) for i in range(3)]
    A_f = [lrl_field(params, i) for i in range(3)]
    table = {"LL": {}, "AA": {}, "LA": {}}
    for i in range(3):
        for j in range(3):
            ad = _ref_nc_bracket(L_f[i], L_f[j], x, params)
            chain = _ref_primed_chain_bracket(L_z[i], L_z[j], x, params)
            table["LL"][(i, j)] = (ad, chain, _ref_ll_structure_form(x, params, i, j))
            ad = _ref_nc_bracket(A_f[i], A_f[j], x, params)
            chain = _ref_primed_chain_bracket(A_z[i], A_z[j], x, params)
            table["AA"][(i, j)] = (ad, chain, _ref_aa_structure_form(x, params, i, j))
            ad = _ref_nc_bracket(L_f[i], A_f[j], x, params)
            chain = _ref_primed_chain_bracket(L_z[i], A_z[j], x, params)
            closed = (
                _ref_lai_structure_form(x, params)
                if i == j
                else _ref_la_structure_form(x, params, i, j)
            )
            table["LA"][(i, j)] = (ad, chain, closed)
    return table


def test_bracket_tables_equal_the_per_pair_route_bitwise():
    for params in sample_deformations(10) + [COMM]:
        for x in sample_cartesian(20, params=params):
            got = pairwise_bracket_table(x, params)
            ref = _ref_pairwise_bracket_table(x, params)
            assert list(got) == list(ref)
            for block, entries in ref.items():
                assert list(got[block]) == list(entries)
                for key, fields in entries.items():
                    e = got[block][key]
                    assert [_bits(v) for v in (e.ad, e.chain, e.closed)] == \
                        [_bits(v) for v in fields], (block, key)
            cL, cA = _closed_forms(x, params)
            assert [_bits(v) for v in cL] == [_bits(_ref_bracket_H_with_L(x, params, i)) for i in range(3)]
            assert [_bits(v) for v in cA] == \
                [_bits(_ref_bracket_H_with_A(x, params, i)) for i in range(3)]


def test_bracket_table_takes_one_seeded_pass_per_chart(monkeypatch):
    # the per-pair route took 108: two per bracket, 27 brackets, two routes
    calls = []
    seed = duals.seed
    monkeypatch.setattr(duals, "seed", lambda coords: calls.append(1) or seed(coords))
    pairwise_bracket_table(X, GENERIC)
    assert len(calls) == 2
