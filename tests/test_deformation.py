import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nckepler.deformation import (
    DeformationParams,
    beta_bracket_table,
    canonical_bracket,
    coordinate_function,
    inverse_transform_point,
    nc_bracket,
    nc_bracket_field,
    nc_symplectic_structures,
    primed_coordinate_function,
    theta_weights,
    transform_coordinates,
    transform_point,
)
from nckepler.errors import InvalidDeformationError
from nckepler.geometry import Chart, PhasePoint, flat_sharp_composition
from nckepler.sampling import random_polynomial_field

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


def test_jacobi_cyclic_sum_vanishes():
    params = pair_deformation(0.25, 0.15)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = random_polynomial_field(rng, Chart.CARTESIAN)
        g = random_polynomial_field(rng, Chart.CARTESIAN)
        h = random_polynomial_field(rng, Chart.CARTESIAN)
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


def test_transform_round_trip():
    params = pair_deformation(0.3, -0.2)
    y = transform_point(X, params)
    back = inverse_transform_point(y, params)
    assert max(abs(a - b) for a, b in zip(back.coords, X.coords)) < 1e-13


def test_beta_table_commutative():
    table = beta_bracket_table(DeformationParams())
    assert table.qq == ((0.0,) * 3,) * 3
    assert table.pp == ((0.0,) * 3,) * 3
    assert table.qp == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def test_beta_table_matches_canonical_brackets_of_primed_coordinates():
    params = pair_deformation(0.3, 0.2)
    table = beta_bracket_table(params)
    primed = [primed_coordinate_function(i, params) for i in range(6)]
    for i in range(3):
        for j in range(3):
            assert abs(canonical_bracket(primed[i], primed[j], X) - table.qq[i][j]) < 1e-14
            assert abs(canonical_bracket(primed[i], primed[3 + j], X) - table.qp[i][j]) < 1e-14
            assert abs(canonical_bracket(primed[3 + i], primed[3 + j], X) - table.pp[i][j]) < 1e-14
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


def test_bivector_bracket_equals_weighted_bracket():
    from nckepler import duals
    from nckepler.geometry import bivector_bracket

    params = pair_deformation(0.35, -0.15)
    _, bivector = nc_symplectic_structures(params)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_polynomial_field(rng, Chart.CARTESIAN)
        g = random_polynomial_field(rng, Chart.CARTESIAN)
        v1 = nc_bracket(f, g, X, params)
        v2 = duals.value(bivector_bracket(bivector, f, g)(X))
        assert abs(v1 - v2) < 1e-12


def test_json_round_trip_and_validation():
    params = pair_deformation(0.12, -0.07, mass=1.3, k=2.0)
    doc = params.to_json()
    back = DeformationParams.from_dict(json.loads(doc))
    assert back.alpha == params.alpha
    assert back.lam == params.lam
    assert back.mass == params.mass
    assert back.k == params.k
    bad = json.loads(doc)
    bad["alpha"][0][1] = 99.0  # breaks antisymmetry
    with pytest.raises(InvalidDeformationError):
        DeformationParams.from_dict(bad)
