import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nckepler import duals
from nckepler.deformation import DeformationParams
from nckepler.geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    VectorField,
    batch,
    bivector_bracket,
    TensorField,
    constant_tensor,
    flow_pairing_residual,
    gradient,
    hamiltonian_vector_field,
    interior_product,
    inverse_pair_residual,
    jet,
    lie_bracket,
    lie_derivative,
    max_abs,
    max_abs_per_point,
    nijenhuis_torsion,
    pair_matrix,
    schouten_bracket,
)
from nckepler.deformation import nc_symplectic_structures
from nckepler.hierarchy import (
    hierarchy_in_action_angle,
    level_bivector,
    level_two_form,
    recursion_operator,
    weight_vector,
)
from nckepler.kepler import hamiltonian_field, hamiltonian_vector_field_nc
from nckepler.master import family_gamma_field, family_two_form
from nckepler.reduced import ReducedParams, reduced_structures
from nckepler.sampling import sample_action_angle, sample_deformations, sample_delaunay
from nckepler.suites import VerifyConfig

CANONICAL = [[0.0] * 6 for _ in range(6)]
for _nu in range(3):
    CANONICAL[3 + _nu][_nu] = 1.0
    CANONICAL[_nu][3 + _nu] = -1.0

P_CANONICAL = constant_tensor(CANONICAL, "uu")

POINT = PhasePoint((1.0, 0.5, -0.3, 0.2, 1.1, 0.4), Chart.CARTESIAN)


def central_difference(f, coords, i, h=1e-5):
    up = list(coords)
    dn = list(coords)
    up[i] += h
    dn[i] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def test_gradient_polynomial_exact():
    f = ScalarField(lambda c: sum(ci**2 for ci in c))
    g = gradient(f, PhasePoint((1, 2, 3, 4, 5, 6), Chart.CARTESIAN))
    assert g == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]


def test_gradient_constant_zero():
    f = ScalarField(lambda c: 3.0)
    assert gradient(f, POINT) == [0.0] * 6


def test_gradient_matches_central_differences_for_energy():
    params = DeformationParams()
    H = hamiltonian_field(params)
    g = gradient(H, POINT)
    for i in range(6):
        fd = central_difference(H.func, list(POINT.coords), i)
        assert abs(g[i] - fd) / max(1.0, abs(fd)) < 1e-6


def test_hamiltonian_field_of_momentum_matches_bracket_sign():
    # X_{p1} must act as {p1, .}: on q^1 the canonical bracket gives +1
    f = ScalarField(lambda c: c[3])
    X = hamiltonian_vector_field(P_CANONICAL, f)
    v = X(POINT)
    assert v == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_hamiltonian_field_of_constant_vanishes():
    f = ScalarField(lambda c: 2.0)
    assert hamiltonian_vector_field(P_CANONICAL, f)(POINT) == [0.0] * 6


def test_hamiltonian_field_with_zero_bivector():
    zero = constant_tensor([[0.0] * 6 for _ in range(6)], "uu")
    f = ScalarField(lambda c: c[0] * c[4])
    assert hamiltonian_vector_field(zero, f)(POINT) == [0.0] * 6


def _poly_vector_field(coeffs):
    def f(c):
        return [
            coeffs[i][0] + sum(coeffs[i][1 + j] * c[j] for j in range(6))
            + coeffs[i][7] * c[i] * c[(i + 1) % 6]
            for i in range(6)
        ]

    return VectorField(f)


def test_lie_bracket_of_field_with_itself_vanishes():
    rng = np.random.default_rng(0)
    X = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    assert max_abs(lie_bracket(X, X, POINT)) < 1e-15


def test_lie_bracket_of_constant_fields_vanishes():
    X = VectorField(lambda c: [1.0, 2, 3, 4, 5, 6])
    Y = VectorField(lambda c: [0.5] * 6)
    assert max_abs(lie_bracket(X, Y, POINT)) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_lie_bracket_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    X = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    Y = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    pt = PhasePoint(tuple(rng.uniform(-1, 1, size=6)), Chart.CARTESIAN)
    ab = lie_bracket(X, Y, pt)
    ba = lie_bracket(Y, X, pt)
    assert max(abs(a + b) for a, b in zip(ab, ba)) < 1e-11


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_lie_derivative_leibniz_on_products(seed):
    rng = np.random.default_rng(seed)
    Z = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    cf, cg = rng.uniform(-1, 1, size=(2, 6))
    f = ScalarField(lambda c: sum(cf[i] * c[i] for i in range(6)) + c[0] * c[3])
    g = ScalarField(lambda c: sum(cg[i] * c[i] for i in range(6)) + c[1] ** 2)
    fg = ScalarField(lambda c: f.func(c) * g.func(c))
    pt = PhasePoint(tuple(rng.uniform(-1, 1, size=6)), Chart.CARTESIAN)
    lhs = lie_derivative(Z, fg, pt)
    rhs = lie_derivative(Z, f, pt) * g(pt) + f(pt) * lie_derivative(Z, g, pt)
    assert abs(lhs - rhs) < 1e-11


def test_lie_derivative_along_zero_field():
    Z = VectorField(lambda c: [0.0] * 6)
    f = ScalarField(lambda c: c[0] ** 3 + c[4])
    assert lie_derivative(Z, f, POINT) == 0.0


def _jacobiator(P, x):
    coords = [
        ScalarField(lambda c, a=a: c[a]) for a in range(6)
    ]
    worst = 0.0
    for a in range(6):
        for b in range(a + 1, 6):
            for c in range(b + 1, 6):
                s = (
                    duals.value(bivector_bracket(P, coords[a], bivector_bracket(P, coords[b], coords[c]))(x))
                    + duals.value(bivector_bracket(P, coords[b], bivector_bracket(P, coords[c], coords[a]))(x))
                    + duals.value(bivector_bracket(P, coords[c], bivector_bracket(P, coords[a], coords[b]))(x))
                )
                worst = max(worst, abs(s))
    return worst


def test_schouten_of_constant_tensor_vanishes():
    assert max_abs(schouten_bracket(P_CANONICAL, P_CANONICAL, POINT)) == 0.0


def test_schouten_vanishes_iff_jacobi_holds():
    # Poisson direction: the canonical bivector has zero self-bracket and
    # zero Jacobiator.  Non-Poisson direction: an x-dependent entry breaks
    # both, with the same vanishing locus.
    assert _jacobiator(P_CANONICAL, POINT) < 1e-12

    def bad(c):
        mat = [list(row) for row in CANONICAL]
        mat[0][1] = c[2]
        mat[1][0] = -c[2]
        return mat

    P_bad = TensorField(bad, "uu")
    s = max_abs(schouten_bracket(P_bad, P_bad, POINT))
    j = _jacobiator(P_bad, POINT)
    assert s > 1e-3
    assert j > 1e-3


def test_schouten_symmetric_in_its_bivector_arguments():
    def other(c):
        mat = [[0.0] * 6 for _ in range(6)]
        mat[0][3] = 1.0 + c[1] ** 2
        mat[3][0] = -mat[0][3]
        mat[1][4] = 2.0
        mat[4][1] = -2.0
        mat[2][5] = 1.0
        mat[5][2] = -1.0
        return mat

    Q = TensorField(other, "uu")
    spq = schouten_bracket(P_CANONICAL, Q, POINT)
    sqp = schouten_bracket(Q, P_CANONICAL, POINT)
    diff = max(
        abs(spq[i][j][k] - sqp[i][j][k])
        for i in range(6) for j in range(6) for k in range(6)
    )
    assert diff < 1e-14


def _contract(N, Xv, Yv):
    """``sum_ab X^a Y^b N[a][b]``: the torsion on two vectors at a point."""
    return [
        sum(Xv[a] * Yv[b] * N[a][b][i] for a in range(6) for b in range(6))
        for i in range(6)
    ]


def test_nijenhuis_identity_operator():
    T = TensorField(lambda c: [[1.0 if i == j else 0.0 for j in range(6)] for i in range(6)], "ud")
    rng = np.random.default_rng(1)
    X = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    Y = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    N = nijenhuis_torsion(T, POINT)
    assert max_abs(_contract(N, X(POINT), Y(POINT))) < 1e-13
    assert max_abs(N) < 1e-13


def test_nijenhuis_constant_diagonal():
    T = TensorField(lambda c: [[float(i + 1) if i == j else 0.0 for j in range(6)] for i in range(6)], "ud")
    assert max_abs(nijenhuis_torsion(T, POINT)) == 0.0


def _diag_x1(c):
    """``diag(x_1, 1, 1, 1, 1, 1)``: the simplest operator with torsion."""
    return [[(c[1] if i == 0 else 1.0) if i == j else 0.0 for j in range(6)] for i in range(6)]


def test_nijenhuis_nonzero_torsion_on_the_frame():
    # T d_0 = x_1 d_0 and T d_1 = d_1, so [T d_0, T d_1] = -d_0 and
    # T[T d_0, d_1] = -x_1 d_0 leave N(d_0, d_1) = (x_1 - 1) d_0; every
    # other frame pair commutes through T.
    T = TensorField(_diag_x1, "ud")
    x = PhasePoint((0.3, 2.5, 0.1, 0.2, 0.4, 0.6), Chart.CARTESIAN)
    N = nijenhuis_torsion(T, x)
    assert N[0][1] == [1.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert N[1][0] == [-1.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    for a in range(6):
        for b in range(6):
            if {a, b} != {0, 1}:
                assert N[a][b] == [0.0] * 6


def _torsion_by_definition(T, X, Y, x):
    """Reference ``N_T(X,Y) = [TX,TY] - T[TX,Y] - T[X,TY] + T^2[X,Y]`` at
    ``x``, one Lie bracket per term."""
    coords = list(x.coords)

    def apply(V):
        def evaluate(c):
            mat = [list(row) for row in T.func(c)]
            Vv = V.func(c)
            return [sum(mat[i][j] * Vv[j] for j in range(6)) for i in range(6)]

        return VectorField(evaluate)

    mat = [list(row) for row in T.func(coords)]

    def tmul(vec):
        return [sum(mat[i][j] * vec[j] for j in range(6)) for i in range(6)]

    TX, TY = apply(X), apply(Y)
    term1 = lie_bracket(TX, TY, coords)
    term2 = tmul(lie_bracket(TX, Y, coords))
    term3 = tmul(lie_bracket(X, TY, coords))
    term4 = tmul(tmul(lie_bracket(X, Y, coords)))
    return [term1[i] - term2[i] - term3[i] + term4[i] for i in range(6)]


def test_nijenhuis_frame_components_contract_to_the_definition():
    T = TensorField(_diag_x1, "ud")
    rng = np.random.default_rng(5)
    X = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    Y = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    definition = _torsion_by_definition(T, X, Y, POINT)
    frame = _contract(nijenhuis_torsion(T, POINT), X(POINT), Y(POINT))
    scale = max_abs(definition)
    assert scale > 0.1
    assert max(abs(frame[i] - definition[i]) for i in range(6)) <= 1e-12 * scale


def _polynomial_tensor(seed):
    """A dense operator, quadratic in the coordinates, with nonzero torsion."""
    coef = np.random.default_rng(seed).uniform(-1, 1, size=(6, 6, 3))

    def func(c):
        return [[coef[i][j][0] + coef[i][j][1] * c[j] + coef[i][j][2] * c[i] * c[(j + 1) % 6]
                 for j in range(6)] for i in range(6)]

    return TensorField(func, "ud")


def test_nijenhuis_equals_the_definition_bitwise_in_one_seeded_pass():
    # the hierarchy suite's torsion checks: its points, levels and operators
    cfg = VerifyConfig()
    rp = cfg.reduced
    n = max(12, cfg.samples // 8)
    delaunay = sample_delaunay(cfg.samples, cfg.seed)[:n]
    action_angle = sample_action_angle(n, cfg.seed + 1)[:6]
    cases = [(recursion_operator(h, rp), delaunay) for h in range(cfg.h_max + 1)]
    cases += [(hierarchy_in_action_angle(h, rp)[2], action_angle) for h in range(1, cfg.h_max + 1)]
    cartesian = [PhasePoint(tuple(np.random.default_rng(s).uniform(-1, 1, size=6)), Chart.CARTESIAN)
                 for s in range(3)]
    cases += [(_polynomial_tensor(s), cartesian) for s in range(3)]

    def frame(k):
        return VectorField(lambda c: [1.0 if i == k else 0.0 for i in range(6)])

    largest = 0.0
    for T, pts in cases:
        calls = []

        def counted(c, func=T.func):
            calls.append(any(isinstance(e, duals.Dual) for e in c))
            return func(c)

        for x in pts:
            calls.clear()
            N = nijenhuis_torsion(TensorField(counted, "ud"), x)
            assert calls == [True]
            for a in range(6):
                assert N[a][a] == [0.0] * 6
                for b in range(a + 1, 6):
                    ref = _torsion_by_definition(T, frame(a), frame(b), x)
                    assert N[a][b] == ref
                    assert N[b][a] == [-v for v in ref]
                    largest = max(largest, max_abs(ref))
    assert largest > 0.1


def _lie_derivative_by_type(Z, T, x):
    """Reference: the per-type Lie-derivative formulas that one slot loop
    replaced, one branch each for a bivector, a two-form and a mixed tensor."""
    coords = list(x.coords)
    Zv = [duals.value(v) for v in Z.func(coords)]
    dZ = duals.jacobian(Z.func, coords)
    seeded = T.func(duals.seed(coords))
    adv = [[0.0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            d = duals.tangents(seeded[i][j], 6)
            for l in range(6):
                if Zv[l] != 0.0:
                    adv[i][j] += Zv[l] * d[l]
    mat = [[duals.value(e) for e in row] for row in T(coords)]
    out = [[0.0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            s = adv[a][b]
            if T.slots == "uu":
                s -= sum(mat[c][b] * dZ[a][c] for c in range(6))
                s -= sum(mat[a][c] * dZ[b][c] for c in range(6))
            elif T.slots == "dd":
                s += sum(mat[c][b] * dZ[c][a] for c in range(6))
                s += sum(mat[a][c] * dZ[c][b] for c in range(6))
            else:
                s -= sum(mat[c][b] * dZ[a][c] for c in range(6))
                s += sum(mat[a][c] * dZ[c][b] for c in range(6))
            out[a][b] = s
    return out


def test_lie_derivative_equals_the_per_type_formulas_bitwise():
    # the master suite's Delaunay points and its ledger tensors and fields
    cfg = VerifyConfig()
    rp = cfg.reduced
    points = sample_delaunay(max(50, cfg.samples // 2), cfg.seed)
    tensors = [build(h, rp) for h in range(3)
               for build in (level_bivector, family_two_form, recursion_operator)]
    assert [T.slots for T in tensors[:3]] == ["uu", "dd", "ud"]
    largest = 0.0
    for i in range(3):
        for h in range(3):
            Z = family_gamma_field(i, h, rp)
            for T in tensors:
                for x in points:
                    ref = _lie_derivative_by_type(Z, T, x)
                    assert _hex(lie_derivative(Z, T, x)) == _hex(ref)
                    largest = max(largest, max_abs(ref))
    assert largest > 0.1


@pytest.mark.parametrize("slots", ["uu", "dd", "ud"])
def test_lie_derivative_of_a_dense_tensor_equals_the_per_type_formulas_bitwise(slots):
    # every product of every contraction nonzero, so any change of summation
    # order shows in the last bits
    rng = np.random.default_rng(11)
    for s in range(3):
        T = TensorField(_polynomial_tensor(s).func, slots)
        Z = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
        for _ in range(4):
            x = PhasePoint(tuple(rng.uniform(-1, 1, size=6)), Chart.CARTESIAN)
            assert _hex(lie_derivative(Z, T, x)) == _hex(_lie_derivative_by_type(Z, T, x))


def _hex(v):
    """``float.hex`` of every value in a nested list, duals unpacked."""
    if isinstance(v, duals.Dual):
        return [_hex(v.a), _hex(list(v.b))]
    if isinstance(v, (list, tuple)):
        return [_hex(e) for e in v]
    return float(v).hex()


def _ref_lie_bracket(X, Y, coords):
    """Reference: the bracket summed per component over two Jacobians."""
    Xv, Yv = X.func(coords), Y.func(coords)
    dY, dX = duals.jacobian(Y.func, coords), duals.jacobian(X.func, coords)
    return [sum(Xv[j] * dY[i][j] - Yv[j] * dX[i][j] for j in range(6)) for i in range(6)]


def test_lie_bracket_equals_the_per_component_route_bitwise():
    rng = np.random.default_rng(3)
    rp = VerifyConfig().reduced
    poly = [_poly_vector_field(rng.uniform(-1, 1, size=(6, 8))) for _ in range(3)]
    gammas = [family_gamma_field(i, h, rp) for i in range(3) for h in range(3)]
    for X, Y, x in ([(X, Y, POINT) for X in poly for Y in poly]
                    + [(X, Y, pt) for X in gammas[:4] for Y in gammas
                       for pt in sample_delaunay(3, seed=2)]):
        coords = list(x.coords)
        assert _hex(lie_bracket(X, Y, x)) == _hex(_ref_lie_bracket(X, Y, coords))
        assert _hex(lie_derivative(X, Y, x)) == _hex(_ref_lie_bracket(X, Y, coords))
        # nested: the bracket differentiated again, as the degree-one check does
        nested = duals.jacobian(lambda c: lie_bracket(X, Y, c), coords)
        assert _hex(nested) == _hex(duals.jacobian(lambda c: _ref_lie_bracket(X, Y, c), coords))


def test_jet_takes_one_seeded_pass():
    # the field runs once per jet, on seeded coordinates, and its values are
    # the float evaluation's to the bit
    rp = VerifyConfig().reduced
    x = sample_delaunay(1, seed=4)[0]
    for F in (family_gamma_field(1, 2, rp), level_bivector(2, rp), recursion_operator(1, rp)):
        calls = []

        def counted(c, func=F.func):
            calls.append(all(isinstance(e, duals.Dual) for e in c))
            return func(c)

        j = jet(VectorField(counted) if isinstance(F, VectorField) else TensorField(counted, F.slots), x)
        assert calls == [True]
        assert _hex(j.value) == _hex(F(x))
        assert j.slots == ("u" if isinstance(F, VectorField) else F.slots)
    assert _hex(jet(level_bivector(2, rp), x).d) == _hex(
        [[duals.tangents(e, 6) for e in row] for row in level_bivector(2, rp).func(duals.seed(list(x.coords)))])
    with pytest.raises(TypeError):
        jet(ScalarField(lambda c: c[0]), x)


@pytest.mark.parametrize("slots", ["uu", "dd"])
def test_constant_tensor_rejects_a_non_antisymmetric_matrix(slots):
    bad = [list(row) for row in CANONICAL]
    bad[0][1] = 1.0
    with pytest.raises(ValueError, match="antisymmetric"):
        constant_tensor(bad, slots)
    assert constant_tensor(bad, "ud")(POINT) == bad


def test_tensor_field_rejects_unknown_slots():
    with pytest.raises(ValueError, match="slots"):
        TensorField(lambda c: CANONICAL, "du")


def test_interior_product_zero_field():
    omega, _ = nc_symplectic_structures(DeformationParams())
    X = VectorField(lambda c: [0.0] * 6)
    assert interior_product(X, omega, POINT) == [0.0] * 6


def test_interior_product_of_flow_is_minus_differential():
    params = DeformationParams()
    omega, _ = nc_symplectic_structures(params)
    H = hamiltonian_field(params)
    X = hamiltonian_vector_field_nc(params)
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = rng.uniform(0.5, 1.5, size=3)
        p = rng.uniform(-1, 1, size=3)
        x = PhasePoint((*q, *p), Chart.CARTESIAN)
        ip = interior_product(X, omega, x)
        dH = gradient(H, x)
        assert max(abs(duals.value(ip[i]) + duals.value(dH[i])) for i in range(6)) < 1e-10


def _pair_matrices_by_loops(params, rp, h, c):
    """Reference: the hand-written loops that built each canonical pair
    matrix before ``pair_matrix`` replaced them, one block per builder."""
    out = {}
    th = params.theta
    w = [[0.0] * 6 for _ in range(6)]
    p = [[0.0] * 6 for _ in range(6)]
    for nu in range(3):
        w[3 + nu][nu] = th[nu]
        w[nu][3 + nu] = -th[nu]
        p[3 + nu][nu] = 1.0 / th[nu]
        p[nu][3 + nu] = -1.0 / th[nu]
    out["nc-omega"], out["nc-bivector"] = w, p

    w = [[0.0] * 6 for _ in range(6)]
    p = [[0.0] * 6 for _ in range(6)]
    for k in range(3):
        w[k][3 + k] = 1.0
        w[3 + k][k] = -1.0
        p[k][3 + k] = 1.0
        p[3 + k][k] = -1.0
    out["aa-bivector"], out["aa-omega"] = p, w

    N = weight_vector(rp)
    for name, wts in (
        ("level-bivector", [N[j] ** (h + 1) * c[j] ** h for j in range(3)]),
        ("level-two-form", [1.0 / (N[j] ** (h + 1) * c[j] ** h) for j in range(3)]),
    ):
        mat = [[0.0] * 6 for _ in range(6)]
        for j in range(3):
            mat[j][3 + j] = wts[j]
            mat[3 + j][j] = -wts[j]
        out[name] = mat

    mat = [[0.0] * 6 for _ in range(6)]
    for j in range(3):
        wj = N[j] ** (h - 1) * c[j] ** h
        mat[j][3 + j] = wj
        mat[3 + j][j] = -wj
    out["family-two-form"] = mat
    return out


def test_pair_matrix_builders_equal_the_loops_they_replaced_bitwise():
    rp = ReducedParams(thetadot=0.005, phidot=0.3)
    checked = 0
    for params in sample_deformations(3, 5):
        for x in sample_delaunay(4, seed=11):
            c = list(x.coords)
            for h in range(4):
                ref = _pair_matrices_by_loops(params, rp, h, c)
                nc_omega, nc_bivector = nc_symplectic_structures(params)
                aa_bivector, aa_omega, _ = reduced_structures(rp)
                new = {
                    "nc-omega": nc_omega(POINT),
                    "nc-bivector": nc_bivector(POINT),
                    "aa-bivector": aa_bivector(c),
                    "aa-omega": aa_omega(c),
                    "level-bivector": level_bivector(h, rp).func(c),
                    "level-two-form": level_two_form(h, rp).func(c),
                    "family-two-form": family_two_form(h, rp).func(c),
                }
                assert set(new) == set(ref)
                for name, mat in new.items():
                    # float.hex tells -0.0 from 0.0, so this is bit equality
                    assert [[v.hex() for v in row] for row in mat] == \
                        [[float(v).hex() for v in row] for row in ref[name]], (name, h)
                    checked += 1
    assert checked == 3 * 4 * 4 * 7


def test_flow_pairing_residual_reads_the_pairing_defect():
    omega = constant_tensor(pair_matrix([1.0, 2.0, 3.0]), "dd")
    X = VectorField(lambda c: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    # iota_X omega is row 0 of omega: 1.0 in slot 3
    F = ScalarField(lambda c: -c[3])
    assert flow_pairing_residual(X, omega, F, POINT) == 0.0
    G = ScalarField(lambda c: -c[3] + 0.25 * c[1])
    assert flow_pairing_residual(X, omega, G, POINT) == 0.25


def test_inverse_pair_residual_reads_the_composition_defect():
    P = pair_matrix([2.0, 4.0, 0.5])
    assert inverse_pair_residual(pair_matrix([0.5, 0.25, 2.0]), P) == 0.0
    assert inverse_pair_residual(pair_matrix([0.5, 0.25, 1.0]), P) == 0.5
    assert inverse_pair_residual(CANONICAL, CANONICAL) == 0.0
    assert math.isnan(inverse_pair_residual(pair_matrix([0.5, math.nan, 2.0]), P))


def test_max_abs_folds_nested_values_and_keeps_nan():
    assert max_abs([]) == 0.0
    assert max_abs(-3.5) == 3.5
    nested = [(0.5, -2.0), [[1.0], np.array([[-1.5, 0.25]])], duals.Dual(-1.75, (1.0,)), []]
    assert max_abs(nested) == 2.0
    assert max_abs(x for x in (-4.0, 1.0)) == 4.0
    # max(0.0, nan) is 0.0: a NaN after the first value would read as a pass
    for values in ([0.0, math.nan], [math.nan, 1.0], [[1.0, [2.0, math.nan]], 3.0]):
        assert math.isnan(max_abs(values)), values



def test_max_abs_of_an_array_keeps_nan_and_equals_the_list_route():
    rng = np.random.default_rng(3)
    for size in (0, 1, 7, 1000):
        x = rng.standard_normal(size) * 10.0 ** rng.uniform(-5.0, 5.0, size)
        assert max_abs(x).hex() == max_abs(x.tolist()).hex()
        assert max_abs(x.reshape(-1, 1)).hex() == max_abs(x.tolist()).hex()
        if size:
            for at in (0, size // 2, size - 1):
                y = x.copy()
                y[at] = math.nan
                assert math.isnan(max_abs(y)) and math.isnan(max_abs([0.0, y]))
    assert max_abs(duals.Dual(np.array([-3.0, 2.0]), (1.0,))) == 3.0


def test_max_abs_per_point_folds_each_point_alone():
    values = [np.array([1.0, -4.0, 0.5]), 0.0, np.array([-2.0, math.nan, 0.25])]
    got = max_abs_per_point(values)
    assert got[0] == 2.0 and math.isnan(got[1]) and got[2] == 0.5
    for p in range(3):
        ref = max_abs([np.broadcast_to(v, 3)[p] for v in values])
        assert math.isnan(ref) if math.isnan(got[p]) else got[p] == ref
    assert max_abs_per_point([0.5, -1.5]) == 1.5 and type(max_abs_per_point([0.5])) is float
    assert max_abs_per_point([]) == 0.0


def test_batch_stacks_each_coordinate_over_the_points():
    pts = sample_delaunay(4, seed=9)
    b = batch(pts)
    assert len(b) == 6 and all(c.dtype == np.float64 and c.shape == (4,) for c in b)
    assert [[float(c[p]) for c in b] for p in range(4)] == [list(x.coords) for x in pts]


def _slices(batched, n: int) -> list:
    """The per-point slices of a nested list of arrays and floats: a float
    component stands for the same value at every point."""
    if isinstance(batched, (list, tuple)):
        return list(zip(*[_slices(e, n) for e in batched]))
    return [v.hex() for v in np.broadcast_to(batched, n).tolist()]


def _hexes(nested):
    if isinstance(nested, (list, tuple)):
        return tuple(_hexes(e) for e in nested)
    return duals.value(nested).hex()


def test_batched_operators_equal_the_per_point_route_bitwise():
    # each point's slice of a batched Schouten bracket, torsion, Lie
    # derivative, Lie bracket and gradient is that point's float result
    rp = VerifyConfig().reduced
    pts = sample_delaunay(12, seed=4)
    b = batch(pts)
    P1, P2, T2 = level_bivector(1, rp), level_bivector(2, rp), recursion_operator(2, rp)
    G = family_gamma_field(1, 2, rp)
    W = family_two_form(2, rp)
    X = VectorField(lambda c: [c[0] * c[4], duals.power(c[1], 3), c[2], c[3] * c[5], 0.0, c[1] / c[2]])
    f = ScalarField(lambda c: c[0] * c[3] - c[2] / c[1])
    for route in (
        lambda x: schouten_bracket(P1, P2, x),
        lambda x: nijenhuis_torsion(T2, x),
        lambda x: lie_derivative(G, W, x),
        lambda x: lie_derivative(X, P2, x),
        lambda x: lie_bracket(X, G, x),
        lambda x: gradient(f, x),
    ):
        assert _slices(route(b), len(pts)) == [_hexes(route(x)) for x in pts]
