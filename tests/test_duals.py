import math

import pytest

from nckepler import duals
from nckepler.deformation import DeformationParams
from nckepler.duals import Dual, grad, hessian, jacobian, value
from nckepler.geometry import Chart, TensorField, VectorField, lie_derivative, schouten_bracket
from nckepler.hierarchy import level_bivector
from nckepler.kepler import hamiltonian
from nckepler.reduced import ReducedParams


def central_difference(f, coords, i, h=1e-6):
    up = list(coords)
    dn = list(coords)
    up[i] += h
    dn[i] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def test_polynomial_gradient_exact():
    f = lambda c: sum(ci**2 for ci in c)
    assert grad(f, [1, 2, 3, 4, 5, 6]) == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]


def test_constant_gradient_zero():
    f = lambda c: 7.5
    assert grad(f, [1.0] * 6) == [0.0] * 6


def test_transcendental_gradient_matches_central_differences():
    def f(c):
        return duals.sin(c[0]) * duals.cos(c[1]) + duals.sqrt(c[2]) + duals.log(c[3]) \
            + duals.arcsin(0.3 * c[4]) + duals.exp(0.2 * c[5])

    coords = [0.4, 1.1, 2.3, 1.7, 0.9, 0.5]
    g = grad(f, coords)
    for i in range(6):
        fd = central_difference(f, coords, i)
        assert abs(g[i] - fd) < 1e-9 * max(1.0, abs(fd))


def test_atan2_derivatives():
    f = lambda c: duals.atan2(c[1], c[0])
    coords = [0.8, -0.6, 0, 0, 0, 0]
    g = grad(f, coords)
    r2 = 0.8**2 + 0.6**2
    assert abs(g[0] - 0.6 / r2) < 1e-14
    assert abs(g[1] - 0.8 / r2) < 1e-14


def test_integer_power_at_zero():
    f = lambda c: c[0] ** 3
    assert grad(f, [0.0] * 6)[0] == 0.0


def test_jacobian():
    def vf(c):
        return [c[0] * c[1], c[2] ** 2, duals.sin(c[3]), c[4], c[5], 1.0]

    J = jacobian(vf, [1.0, 2.0, 3.0, 0.5, 0.1, 0.2])
    assert abs(J[0][0] - 2.0) < 1e-15
    assert abs(J[0][1] - 1.0) < 1e-15
    assert abs(J[1][2] - 6.0) < 1e-15
    assert abs(J[2][3] - math.cos(0.5)) < 1e-15
    assert J[5][5] == 0.0


def test_nested_hessian():
    def f(c):
        return c[0] ** 2 * c[1] + duals.sin(c[2]) + c[0] * c[2]

    H = hessian(f, [1.5, 2.0, 0.3, 0.0, 0.0, 0.0])
    assert abs(H[0][0] - 2.0 * 2.0) < 1e-14
    assert abs(H[0][1] - 2.0 * 1.5) < 1e-14
    assert abs(H[1][0] - H[0][1]) < 1e-14
    assert abs(H[2][2] + math.sin(0.3)) < 1e-14
    assert abs(H[0][2] - 1.0) < 1e-14


def test_value_unwraps_nesting():
    d = Dual(Dual(2.5, (1.0,)), (Dual(3.0, (0.0,)), 0.0))
    assert value(d) == 2.5


def test_division_chain():
    f = lambda c: 1.0 / (c[0] + c[1] ** 2)
    coords = [2.0, 3.0, 0, 0, 0, 0]
    g = grad(f, coords)
    denom = (2.0 + 9.0) ** 2
    assert abs(g[0] + 1.0 / denom) < 1e-15
    assert abs(g[1] + 6.0 / denom) < 1e-15


def counted(func):
    """``func`` wrapped to record the coordinates of every call."""
    calls = []

    def wrapper(c):
        calls.append(list(c))
        return func(c)

    return wrapper, calls


def is_seeded(coords):
    return any(isinstance(c, Dual) for c in coords)


GENERIC = DeformationParams(
    alpha=((0.0, 0.03, -0.02), (-0.03, 0.0, 0.04), (0.02, -0.04, 0.0)),
    lam=((0.0, -0.01, 0.05), (0.01, 0.0, 0.02), (-0.05, -0.02, 0.0)),
)
CARTESIAN_POINT = [1.0, 0.5, -0.3, 0.2, 1.1, 0.4]
RP = ReducedParams(thetadot=0.005, phidot=0.3)
DELAUNAY_POINT = [0.7, 1.3, 2.1, 0.4, 1.9, -0.6]


def test_grad_evaluates_once():
    f, calls = counted(lambda c: hamiltonian(c, GENERIC))
    g = grad(f, CARTESIAN_POINT)
    assert len(calls) == 1 and is_seeded(calls[0])
    assert len(g) == 6


def test_jacobian_evaluates_once():
    def vf(c):
        return [c[0] * c[1], duals.sin(c[2]), c[3] / c[4], c[5] ** 2, 1.0, c[0]]

    f, calls = counted(vf)
    J = jacobian(f, [1.0, 2.0, 0.5, 3.0, 1.5, -0.7])
    assert len(calls) == 1 and is_seeded(calls[0])
    assert len(J) == 6 and all(len(row) == 6 for row in J)
    assert J[2][4] == -3.0 / 1.5**2
    assert J[4] == [0.0] * 6


def test_vector_mode_matches_one_direction_passes_bitwise():
    """Each tangent of one vector-mode pass equals a pass seeded along its
    direction alone, bit for bit (signed zeros included)."""
    g = grad(lambda c: hamiltonian(c, GENERIC), CARTESIAN_POINT)
    for i in range(6):
        seeded = [Dual(c, (1.0 if j == i else 0.0,)) for j, c in enumerate(CARTESIAN_POINT)]
        assert hamiltonian(seeded, GENERIC).b[0].hex() == g[i].hex()


def test_seed_and_tangents():
    seeded = duals.seed([2.0, 3.0, 4.0])
    assert [d.a for d in seeded] == [2.0, 3.0, 4.0]
    assert [d.b for d in seeded] == [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    assert duals.tangents(seeded[1], 3) == (0.0, 1.0, 0.0)
    assert duals.tangents(5.0, 3) == (0.0, 0.0, 0.0)


def test_schouten_bracket_seeds_each_bivector_once():
    calls = {}

    def tracked(B):
        func, calls[B.name] = counted(B.func)
        return TensorField(B.chart, func, "uu", name=B.name)

    P, Q = level_bivector(1, RP), level_bivector(2, RP)
    expected = schouten_bracket(P, Q, DELAUNAY_POINT)
    assert schouten_bracket(tracked(P), tracked(Q), DELAUNAY_POINT) == expected
    for name in ("P1", "P2"):
        assert sum(is_seeded(c) for c in calls[name]) == 1


def test_lie_derivative_seeds_the_tensor_once():
    P = level_bivector(2, RP)
    func, calls = counted(P.func)
    Z = VectorField(Chart.DELAUNAY, lambda c: [c[1], 0.0, c[0] * c[2], 1.0, 0.0, c[4]])
    expected = lie_derivative(Z, P, DELAUNAY_POINT)
    assert lie_derivative(Z, TensorField(P.chart, func, "uu"), DELAUNAY_POINT) == expected
    assert sum(is_seeded(c) for c in calls) == 1


def test_atan2_with_one_plain_float_argument():
    y0, x0 = -0.6, 0.8
    r2 = x0 * x0 + y0 * y0
    gx = grad(lambda c: duals.atan2(y0, c[0]), [x0, 0, 0, 0, 0, 0])
    assert abs(gx[0] - (-y0 / r2)) < 1e-15
    assert gx[1:] == [0.0] * 5
    gy = grad(lambda c: duals.atan2(c[1], x0), [0, y0, 0, 0, 0, 0])
    assert abs(gy[1] - x0 / r2) < 1e-15
    assert gy[0] == 0.0 and gy[2:] == [0.0] * 4


def test_power_zero_has_zero_tangents():
    r = Dual(2.0, (1.0, -3.0, 0.5)) ** 0
    assert r.a == 1.0
    assert len(r.b) == 3 and all(t == 0.0 for t in r.b)
    assert grad(lambda c: c[2] ** 0, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == [0.0] * 6
