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
    bivector_bracket,
    TensorField,
    constant_tensor,
    gradient,
    hamiltonian_vector_field,
    interior_product,
    lie_bracket,
    lie_derivative,
    max_abs,
    nijenhuis_torsion,
    schouten_bracket,
)
from nckepler.hierarchy import hierarchy_in_action_angle, level_bivector, recursion_operator
from nckepler.kepler import hamiltonian_field
from nckepler.master import family_gamma_field, family_two_form
from nckepler.sampling import sample_action_angle, sample_delaunay
from nckepler.suites import VerifyConfig

CANONICAL = [[0.0] * 6 for _ in range(6)]
for _nu in range(3):
    CANONICAL[3 + _nu][_nu] = 1.0
    CANONICAL[_nu][3 + _nu] = -1.0

P_CANONICAL = constant_tensor(Chart.CARTESIAN, CANONICAL, "uu", name="P")

POINT = PhasePoint((1.0, 0.5, -0.3, 0.2, 1.1, 0.4), Chart.CARTESIAN)


def central_difference(f, coords, i, h=1e-5):
    up = list(coords)
    dn = list(coords)
    up[i] += h
    dn[i] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def test_gradient_polynomial_exact():
    f = ScalarField(Chart.CARTESIAN, lambda c: sum(ci**2 for ci in c))
    g = gradient(f, PhasePoint((1, 2, 3, 4, 5, 6), Chart.CARTESIAN))
    assert g == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]


def test_gradient_constant_zero():
    f = ScalarField(Chart.CARTESIAN, lambda c: 3.0)
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
    f = ScalarField(Chart.CARTESIAN, lambda c: c[3], name="p1")
    X = hamiltonian_vector_field(P_CANONICAL, f)
    v = X(POINT)
    assert v == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_hamiltonian_field_of_constant_vanishes():
    f = ScalarField(Chart.CARTESIAN, lambda c: 2.0)
    assert hamiltonian_vector_field(P_CANONICAL, f)(POINT) == [0.0] * 6


def test_hamiltonian_field_with_zero_bivector():
    zero = constant_tensor(Chart.CARTESIAN, [[0.0] * 6 for _ in range(6)], "uu")
    f = ScalarField(Chart.CARTESIAN, lambda c: c[0] * c[4])
    assert hamiltonian_vector_field(zero, f)(POINT) == [0.0] * 6


def _poly_vector_field(coeffs):
    def f(c):
        return [
            coeffs[i][0] + sum(coeffs[i][1 + j] * c[j] for j in range(6))
            + coeffs[i][7] * c[i] * c[(i + 1) % 6]
            for i in range(6)
        ]

    return VectorField(Chart.CARTESIAN, f)


def test_lie_bracket_of_field_with_itself_vanishes():
    rng = np.random.default_rng(0)
    X = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    assert max_abs(lie_bracket(X, X, POINT)) < 1e-15


def test_lie_bracket_of_constant_fields_vanishes():
    X = VectorField(Chart.CARTESIAN, lambda c: [1.0, 2, 3, 4, 5, 6])
    Y = VectorField(Chart.CARTESIAN, lambda c: [0.5] * 6)
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
    f = ScalarField(Chart.CARTESIAN, lambda c: sum(cf[i] * c[i] for i in range(6)) + c[0] * c[3])
    g = ScalarField(Chart.CARTESIAN, lambda c: sum(cg[i] * c[i] for i in range(6)) + c[1] ** 2)
    fg = ScalarField(Chart.CARTESIAN, lambda c: f.func(c) * g.func(c))
    pt = PhasePoint(tuple(rng.uniform(-1, 1, size=6)), Chart.CARTESIAN)
    lhs = lie_derivative(Z, fg, pt)
    rhs = lie_derivative(Z, f, pt) * g(pt) + f(pt) * lie_derivative(Z, g, pt)
    assert abs(lhs - rhs) < 1e-11


def test_lie_derivative_along_zero_field():
    Z = VectorField(Chart.CARTESIAN, lambda c: [0.0] * 6)
    f = ScalarField(Chart.CARTESIAN, lambda c: c[0] ** 3 + c[4])
    assert lie_derivative(Z, f, POINT) == 0.0


def _jacobiator(P, x):
    coords = [
        ScalarField(Chart.CARTESIAN, lambda c, a=a: c[a], name=f"x{a}") for a in range(6)
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

    P_bad = TensorField(Chart.CARTESIAN, bad, "uu", name="bad")
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

    Q = TensorField(Chart.CARTESIAN, other, "uu")
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
    T = TensorField(Chart.CARTESIAN, lambda c: [[1.0 if i == j else 0.0 for j in range(6)] for i in range(6)], "ud")
    rng = np.random.default_rng(1)
    X = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    Y = _poly_vector_field(rng.uniform(-1, 1, size=(6, 8)))
    N = nijenhuis_torsion(T, POINT)
    assert max_abs(_contract(N, X(POINT), Y(POINT))) < 1e-13
    assert max_abs(N) < 1e-13


def test_nijenhuis_constant_diagonal():
    T = TensorField(Chart.CARTESIAN, lambda c: [[float(i + 1) if i == j else 0.0 for j in range(6)] for i in range(6)], "ud")
    assert max_abs(nijenhuis_torsion(T, POINT)) == 0.0


def _diag_x1(c):
    """``diag(x_1, 1, 1, 1, 1, 1)``: the simplest operator with torsion."""
    return [[(c[1] if i == 0 else 1.0) if i == j else 0.0 for j in range(6)] for i in range(6)]


def test_nijenhuis_nonzero_torsion_on_the_frame():
    # T d_0 = x_1 d_0 and T d_1 = d_1, so [T d_0, T d_1] = -d_0 and
    # T[T d_0, d_1] = -x_1 d_0 leave N(d_0, d_1) = (x_1 - 1) d_0; every
    # other frame pair commutes through T.
    T = TensorField(Chart.CARTESIAN, _diag_x1, "ud")
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

        return VectorField(T.chart, evaluate)

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
    T = TensorField(Chart.CARTESIAN, _diag_x1, "ud")
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

    return TensorField(Chart.CARTESIAN, func, "ud")


def test_nijenhuis_equals_the_definition_bitwise_in_one_plain_and_one_seeded_pass():
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

    def frame(chart, k):
        return VectorField(chart, lambda c: [1.0 if i == k else 0.0 for i in range(6)])

    largest = 0.0
    for T, pts in cases:
        calls = []

        def counted(c, func=T.func):
            calls.append(any(isinstance(e, duals.Dual) for e in c))
            return func(c)

        for x in pts:
            calls.clear()
            N = nijenhuis_torsion(TensorField(T.chart, counted, "ud"), x)
            assert calls == [False, True]
            for a in range(6):
                assert N[a][a] == [0.0] * 6
                for b in range(a + 1, 6):
                    ref = _torsion_by_definition(T, frame(T.chart, a), frame(T.chart, b), x)
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
                    assert lie_derivative(Z, T, x) == ref
                    largest = max(largest, max_abs(ref))
    assert largest > 0.1


@pytest.mark.parametrize("slots", ["uu", "dd"])
def test_constant_tensor_rejects_a_non_antisymmetric_matrix(slots):
    bad = [list(row) for row in CANONICAL]
    bad[0][1] = 1.0
    with pytest.raises(ValueError, match="antisymmetric"):
        constant_tensor(Chart.CARTESIAN, bad, slots)
    assert constant_tensor(Chart.CARTESIAN, bad, "ud")(POINT) == bad


def test_tensor_field_rejects_unknown_slots():
    with pytest.raises(ValueError, match="slots"):
        TensorField(Chart.CARTESIAN, lambda c: CANONICAL, "du")


def test_interior_product_zero_field():
    from nckepler.deformation import nc_symplectic_structures

    omega, _ = nc_symplectic_structures(DeformationParams())
    X = VectorField(Chart.CARTESIAN, lambda c: [0.0] * 6)
    assert interior_product(X, omega, POINT) == [0.0] * 6


def test_interior_product_of_flow_is_minus_differential():
    from nckepler.deformation import nc_symplectic_structures
    from nckepler.kepler import hamiltonian_vector_field_nc

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
