import json

import numpy as np
import pytest

from nckepler import duals
from nckepler.deformation import (
    DeformationParams,
    beta_bracket_table,
    coordinate_function,
    nc_bracket,
    nc_bracket_field,
    nc_symplectic_structures,
    transform_coordinates,
    weighted_bracket,
)
from nckepler.errors import InvalidDeformationError
from nckepler.geometry import Chart, PhasePoint, batch, bivector_bracket, flat_sharp_composition
from nckepler.sampling import polynomial_field, random_polynomial_coefficients

X = PhasePoint((1.0, 0.5, -0.3, 0.2, 1.0, 0.4), Chart.CARTESIAN)


def pair_deformation(a, l, **kw):
    alpha = [[0, a, 0], [-a, 0, 0], [0, 0, 0]]
    lam = [[0, l, 0], [-l, 0, 0], [0, 0, 0]]
    return DeformationParams(alpha=alpha, lam=lam, **kw)


def test_theta_commutative_limit():
    assert DeformationParams().theta == (1.0, 1.0, 1.0)


def test_theta_single_pair():
    params = pair_deformation(0.3, 0.5)
    expected = 1.0 + 0.25 * 0.3 * 0.5
    assert abs(params.theta[0] - expected) < 1e-15
    assert abs(params.theta[1] - expected) < 1e-15
    assert params.theta[2] == 1.0


def test_theta_zero_rejected():
    with pytest.raises(InvalidDeformationError):
        pair_deformation(2.0, -2.0)


def test_antisymmetry_enforced():
    with pytest.raises(InvalidDeformationError):
        DeformationParams(alpha=[[0, 1, 0], [1, 0, 0], [0, 0, 0]])


def test_theta_permutation_covariance():
    # swapping particle axes 1 and 2 in both matrices swaps theta_1, theta_2
    rng = np.random.default_rng(5)
    a = rng.uniform(-0.4, 0.4, size=3)
    l = rng.uniform(-0.4, 0.4, size=3)
    alpha = np.array([[0, a[0], a[1]], [-a[0], 0, a[2]], [-a[1], -a[2], 0]])
    lam = np.array([[0, l[0], l[1]], [-l[0], 0, l[2]], [-l[1], -l[2], 0]])
    perm = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    p1 = DeformationParams(alpha=alpha, lam=lam)
    p2 = DeformationParams(alpha=perm @ alpha @ perm.T, lam=perm @ lam @ perm.T)
    assert abs(p1.theta[0] - p2.theta[1]) < 1e-15
    assert abs(p1.theta[1] - p2.theta[0]) < 1e-15
    assert abs(p1.theta[2] - p2.theta[2]) < 1e-15


def test_bracket_coordinate_pattern():
    params = pair_deformation(0.3, 0.2)
    coord = [coordinate_function(i) for i in range(6)]
    for i in range(3):
        for j in range(3):
            pq = nc_bracket(coord[3 + i], coord[j], X, params)
            expected = 1.0 / params.theta[j] if i == j else 0.0
            assert abs(pq - expected) < 1e-15
            assert abs(nc_bracket(coord[i], coord[j], X, params)) < 1e-15
            assert abs(nc_bracket(coord[3 + i], coord[3 + j], X, params)) < 1e-15


def test_bracket_antisymmetry_in_same_argument():
    params = pair_deformation(0.2, 0.4)
    f = coordinate_function(0)
    assert nc_bracket(f, f, X, params) == 0.0


def random_polynomial_field(rng):
    """A random quadratic observable with float coefficients."""
    return polynomial_field(*random_polynomial_coefficients(rng))


def test_jacobi_cyclic_sum_vanishes():
    params = pair_deformation(0.25, 0.15)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = random_polynomial_field(rng)
        g = random_polynomial_field(rng)
        h = random_polynomial_field(rng)
        s = (
            nc_bracket(f, nc_bracket_field(g, h, params), X, params)
            + nc_bracket(g, nc_bracket_field(h, f, params), X, params)
            + nc_bracket(h, nc_bracket_field(f, g, params), X, params)
        )
        assert abs(s) < 1e-10


def test_transform_identity_at_zero_deformation():
    assert transform_coordinates(X, DeformationParams()) == list(X.coords)


def test_transform_hand_value():
    params = pair_deformation(0.1, 0.0)
    out = transform_coordinates(
        PhasePoint((1, 0, 0, 0, 1, 0), Chart.CARTESIAN), params
    )
    assert abs(out[0] - 0.95) < 1e-15
    assert out[1:3] == [0.0, 0.0]
    assert out[3:] == [0.0, 1.0, 0.0]


def test_beta_table_commutative():
    table = beta_bracket_table(DeformationParams())
    assert table.qq == ((0.0,) * 3,) * 3
    assert table.pp == ((0.0,) * 3,) * 3
    assert table.qp == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def test_beta_table_matches_canonical_brackets_of_primed_coordinates():
    params = pair_deformation(0.3, 0.2)
    table = beta_bracket_table(params)
    primed = duals.jacobian(lambda c: transform_coordinates(c, params), X.coords)
    # the canonical bracket {f, g} is the weighted one of (g, f) at unit weights
    def canonical(df, dg):
        return weighted_bracket(dg, df, (1.0, 1.0, 1.0))

    for i in range(3):
        for j in range(3):
            assert abs(canonical(primed[i], primed[j]) - table.qq[i][j]) < 1e-14
            assert abs(canonical(primed[i], primed[3 + j]) - table.qp[i][j]) < 1e-14
            assert abs(canonical(primed[3 + i], primed[3 + j]) - table.pp[i][j]) < 1e-14
    assert table.qq == params.alpha
    assert table.pp == params.lam


def test_symplectic_pair_commutative_limit_is_canonical():
    omega, bivector = nc_symplectic_structures(DeformationParams())
    w = omega(X)
    p = bivector(X)
    for nu in range(3):
        assert w[3 + nu][nu] == 1.0
        assert p[3 + nu][nu] == 1.0


def test_symplectic_pair_mutually_inverse():
    params = pair_deformation(0.4, 0.3)
    omega, bivector = nc_symplectic_structures(params)
    comp = flat_sharp_composition(omega(X), bivector(X))
    err = max(abs(comp[i][j] - (1.0 if i == j else 0.0)) for i in range(6) for j in range(6))
    assert err < 1e-14
    w = omega(X)
    p = bivector(X)
    assert all(w[i][j] == -w[j][i] for i in range(6) for j in range(6))
    assert all(p[i][j] == -p[j][i] for i in range(6) for j in range(6))


def _numpy_scalar_polynomial(rng):
    """Reference: a random polynomial observable with its coefficients as
    indexed numpy float64 scalars, as it was first written."""
    lin = rng.uniform(-1.0, 1.0, size=6)
    quad = rng.uniform(-0.5, 0.5, size=(6, 6))

    def f(c):
        total = 0.0
        for i in range(6):
            total = total + lin[i] * c[i]
            for j in range(6):
                total = total + quad[i][j] * c[i] * c[j]
        return total

    return f


def test_random_polynomial_field_equals_numpy_scalar_form_bitwise():
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(5):
        f = random_polynomial_field(rng)
        ref = _numpy_scalar_polynomial(ref_rng)
        for x in (X, PhasePoint((-0.7, 1.3, 0.25, -1.1, 0.05, 0.6), Chart.CARTESIAN)):
            c = list(x.coords)
            assert f(x).hex() == float(ref(c)).hex()
            assert [float(v).hex() for v in duals.grad(f.func, c)] == \
                [float(v).hex() for v in duals.grad(ref, c)]


def test_bivector_bracket_equals_weighted_bracket():
    params = pair_deformation(0.35, -0.15)
    _, bivector = nc_symplectic_structures(params)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_polynomial_field(rng)
        g = random_polynomial_field(rng)
        v1 = nc_bracket(f, g, X, params)
        v2 = duals.value(bivector_bracket(bivector, f, g)(X))
        assert abs(v1 - v2) < 1e-12


def test_json_round_trip_and_validation():
    params = pair_deformation(0.12, -0.07, mass=1.3, k=2.0)
    doc = json.dumps({"alpha": [list(r) for r in params.alpha],
                      "lambda": [list(r) for r in params.lam],
                      "mass": params.mass, "k": params.k})
    back = DeformationParams.from_dict(json.loads(doc))
    assert back.alpha == params.alpha
    assert back.lam == params.lam
    assert back.mass == params.mass
    assert back.k == params.k
    bad = json.loads(doc)
    bad["alpha"][0][1] = 99.0  # breaks antisymmetry
    with pytest.raises(InvalidDeformationError):
        DeformationParams.from_dict(bad)


def test_polynomial_field_with_array_coefficients_equals_each_row_bitwise():
    # one observable per point: coefficient arrays over the rows, evaluated
    # on the batch of the rows' points, value and gradient alike
    rng = np.random.default_rng(9)
    rows = [random_polynomial_coefficients(rng) for _ in range(7)]
    pts = [PhasePoint(tuple(rng.uniform(-1.5, 1.5, size=6)), Chart.CARTESIAN) for _ in rows]
    f = polynomial_field(list(np.array([lin for lin, _ in rows]).T),
                         [list(r) for r in np.array([quad for _, quad in rows]).transpose(1, 2, 0)])
    x = batch(pts)
    value, grad = f(x), duals.grad(f.func, x)
    for r, ((lin, quad), pt) in enumerate(zip(rows, pts)):
        ref = polynomial_field(lin, quad)
        assert value[r].hex() == ref(pt).hex()
        assert [g[r].hex() for g in grad] == [g.hex() for g in duals.grad(ref.func, list(pt.coords))]
