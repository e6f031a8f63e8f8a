import math
import warnings

import numpy as np
import pytest

from nckepler import duals
from nckepler.deformation import DeformationParams
from nckepler.duals import Dual, grad, hessian, jacobian, value
from nckepler.geometry import TensorField, VectorField, lie_derivative, schouten_bracket
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
        return duals.sin(c[0]) * duals.cos(c[1]) + duals.sqrt(c[2]) + duals.log(c[3])

    coords = [0.4, 1.1, 2.3, 1.7, 0.9, 0.5]
    g = grad(f, coords)
    for i in range(6):
        fd = central_difference(f, coords, i)
        assert abs(g[i] - fd) < 1e-9 * max(1.0, abs(fd))


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

    def tracked(B, label):
        func, calls[label] = counted(B.func)
        return TensorField(func, "uu")

    P, Q = level_bivector(1, RP), level_bivector(2, RP)
    expected = schouten_bracket(P, Q, DELAUNAY_POINT)
    assert schouten_bracket(tracked(P, "P1"), tracked(Q, "P2"), DELAUNAY_POINT) == expected
    for name in ("P1", "P2"):
        assert sum(is_seeded(c) for c in calls[name]) == 1


def test_lie_derivative_seeds_the_tensor_once():
    P = level_bivector(2, RP)
    func, calls = counted(P.func)
    Z = VectorField(lambda c: [c[1], 0.0, c[0] * c[2], 1.0, 0.0, c[4]])
    expected = lie_derivative(Z, P, DELAUNAY_POINT)
    assert lie_derivative(Z, TensorField(func, "uu"), DELAUNAY_POINT) == expected
    assert sum(is_seeded(c) for c in calls) == 1


def test_power_zero_has_zero_tangents():
    r = Dual(2.0, (1.0, -3.0, 0.5)) ** 0
    assert r.a == 1.0
    assert len(r.b) == 3 and all(t == 0.0 for t in r.b)
    assert grad(lambda c: c[2] ** 0, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == [0.0] * 6


@pytest.mark.parametrize("a", [1e-160, np.array([1.0, 1e-160])], ids=["point", "batch"])
def test_reciprocal_of_a_tiny_dual_overflows_in_its_tangent(a):
    """``a ** -1`` is finite, but the tangent ``-a ** -2`` is not
    representable, so the seeded pass raises as float ``**`` does."""
    assert math.isfinite(1e-160 ** -1)
    with pytest.raises(OverflowError):
        Dual(a, (1.0,)) ** -1


@pytest.mark.parametrize("n", range(-6, 7))
def test_power_of_an_array_rounds_as_python_at_every_element(n):
    rng = np.random.default_rng(15 + n)
    x = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3.0, 3.0, 10_000)
    got = duals.power(x, n)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert [v.hex() for v in got.tolist()] == [(v**n).hex() for v in x.tolist()]
    assert duals.power(2.5, n) == 2.5**n


# Every exponent the evaluators pass to ``duals.power`` on an array: the
# integer powers of the coordinates and the float ``n - 1.0`` that
# ``Dual.__pow__`` takes for a negative integer ``n``.
POWER_EXPONENTS = [*range(-3, 10), -4.0, -3.0, -2.0]
_POWER_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1e154, -1e154,
                1.7976931348623157e308, -1e308, 1.0, -1.0, math.inf, -math.inf, math.nan]


def _power_draws(seed: int) -> list:
    """10^5 values across the whole float range, subnormals included, then
    10^5 of moderate size, then the edge values."""
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-330.0, 300.0, 100_000)
    moderate = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-8.0, 8.0, 100_000)
    return wide.tolist() + moderate.tolist() + _POWER_EDGES


@pytest.mark.parametrize("n", POWER_EXPONENTS)
def test_power_of_an_array_equals_python_pow_bitwise_across_the_float_range(n):
    xs, want = [], []
    for v in _power_draws(31 + POWER_EXPONENTS.index(n)):
        try:
            want.append((v**n).hex())
        except (OverflowError, ZeroDivisionError):
            continue
        xs.append(v)
    assert len(xs) > 100_000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = duals.power(np.array(xs), n)
    assert [v.hex() for v in got.tolist()] == want


@pytest.mark.parametrize("bad, n", [
    (0.0, -1), (-0.0, -2), (0.0, -3), (0.0, -4.0), (-0.0, -2.0),
    (1e200, 2), (-1e103, 3), (1e40, 9), (5e-324, -1), (1e-160, -2), (-1e-103, -3.0), (1e-80, -4.0),
], ids=str)
def test_power_of_an_array_fails_as_python_pow(bad, n):
    with pytest.raises((ZeroDivisionError, OverflowError)) as want:
        bad**n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(want.type) as got:
            duals.power(np.array([1.5, bad, -2.0]), n)
    assert str(got.value) == str(want.value)

def test_dual_power_of_a_batch_equals_each_points_float_pass_bitwise():
    rng = np.random.default_rng(7)
    a, t = rng.uniform(0.2, 3.0, 50), rng.standard_normal(50)
    for n in (-4, -1, 0, 1, 2, 3, 5):
        r = Dual(a, (t, 1.0)) ** n
        for p in range(50):
            ref = Dual(float(a[p]), (float(t[p]), 1.0)) ** n
            assert float(np.broadcast_to(r.a, 50)[p]).hex() == float(ref.a).hex(), n
            for got, want in zip(r.b, ref.b):
                assert float(np.broadcast_to(got, 50)[p]).hex() == float(want).hex(), n


def test_an_array_operand_defers_to_the_dual():
    d = Dual(np.array([1.0, 2.0]), (np.array([1.0, 1.0]),))
    for r in (np.array([3.0, 4.0]) + d, np.array([3.0, 4.0]) * d, np.float64(2.0) - d):
        assert isinstance(r, Dual)
    assert value(np.array([2.0, 8.0]) / d).tolist() == [2.0, 4.0]
    assert value(Dual(d, (1.0,))) is d.a


def test_anywhere_reads_a_bool_or_a_bool_array():
    assert duals.anywhere(True) and not duals.anywhere(False)
    assert duals.anywhere(np.array([1.0, 0.0]) == 0.0)
    assert not duals.anywhere(np.array([1.0, 2.0]) == 0.0)
    assert not duals.anywhere(np.array([]) == 0.0)


# Every ndarray branch of the elementary functions gives each element the
# bits of the float route, over seeded draws and the edge values below, and
# fails where the float route fails, with the same error.
_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.0]


def _draws(seed: int, positive: bool) -> list:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-8.0, 8.0, 20_000)
    x = np.abs(x) if positive else x
    return x.tolist() + [v for v in _EDGES if v > 0.0 or not positive]


@pytest.mark.parametrize("name, positive, seed", [
    ("sqrt", True, 21), ("sin", False, 22), ("cos", False, 23), ("log", True, 24),
])
def test_elementary_function_of_an_array_equals_the_float_route_bitwise(name, positive, seed):
    fn, ref = getattr(duals, name), getattr(math, name)
    xs = _draws(seed, positive)
    got = fn(np.array(xs))
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (len(xs),)
    assert [v.hex() for v in got.tolist()] == [ref(v).hex() for v in xs]
    assert fn(np.array([])).shape == (0,)


@pytest.mark.parametrize("name, bad", [
    ("sqrt", -1e-300), ("sqrt", -2.0), ("sqrt", -math.inf), ("log", 0.0), ("log", -0.0), ("log", -3.0),
])
def test_elementary_function_of_an_array_fails_as_the_float_route(name, bad):
    fn, ref = getattr(duals, name), getattr(math, name)
    with pytest.raises(ValueError) as want:
        ref(bad)
    with pytest.raises(ValueError) as got:
        fn(np.array([1.0, bad, 2.0]))
    assert str(got.value) == str(want.value)


def test_sqrt_of_an_array_keeps_nan_and_infinity_as_the_float_route():
    xs = [math.nan, math.inf, 4.0]
    got = duals.sqrt(np.array(xs))
    assert [math.isnan(v) for v in got.tolist()] == [True, False, False]
    assert got.tolist()[1:] == [math.sqrt(v) for v in xs[1:]]


def test_elementary_functions_of_a_batched_dual_equal_each_points_pass_bitwise():
    rng = np.random.default_rng(27)
    a, t = rng.uniform(0.2, 3.0, 40), rng.standard_normal(40)
    for fn in (duals.sqrt, duals.sin, duals.cos, duals.log):
        r = fn(Dual(a, (t, 1.0)))
        for p in range(40):
            ref = fn(Dual(float(a[p]), (float(t[p]), 1.0)))
            assert float(r.a[p]).hex() == float(ref.a).hex()
            assert [float(np.broadcast_to(v, 40)[p]).hex() for v in r.b] == [float(v).hex() for v in ref.b]


def test_non_integral_power_of_a_positive_base_rounds_as_float_pow():
    # hierarchy.energy_rescaled_map raises a Dual to 1.5 under jacobian
    rng = np.random.default_rng(11)
    a, b = rng.uniform(1e-3, 50.0, 200), rng.standard_normal(200)
    r = Dual(a, (b,)) ** 1.5
    for p, (x, t) in enumerate(zip(a.tolist(), b.tolist())):
        point = Dual(x, (t,)) ** 1.5
        assert point.a.hex() == (x**1.5).hex() == float(r.a[p]).hex()
        assert point.b[0].hex() == (1.5 * x**0.5 * t).hex() == float(r.b[0][p]).hex()
