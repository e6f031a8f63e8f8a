"""Independent check of the dual engine against finite differences.

Every identity check trusts ``duals.grad``, ``jacobian`` and ``hessian``.
This oracle never builds a ``Dual``: it evaluates the real field
evaluators on plain floats and differentiates them with
Richardson-extrapolated central differences, whose error is O(h^4).
Complex-step differentiation is no option because the evaluators call
``math`` functions.  Draws stay bounded away from the singular sets (the
deformed radius ``Y = 0``, the action sum ``S = 0``, the polar axis).

The same differences check the chart maps: the constant Jacobians of the
action-angle/Delaunay recombination against the maps themselves, and the
spherical-to-cartesian map as a canonical transformation.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nckepler.charts import (
    action_angle_to_delaunay,
    cartesian_to_spherical,
    delaunay_to_action_angle,
    forward_jacobian,
    inverse_jacobian,
    spherical_to_cartesian,
)
from nckepler.deformation import DeformationParams, transform_coordinates
from nckepler.duals import grad, hessian, jacobian
from nckepler.geometry import Chart, PhasePoint, pair_matrix
from nckepler.hierarchy import level_bivector
from nckepler.kepler import hamiltonian
from nckepler.reduced import ReducedParams, action_hessian, energy_from_actions
from nckepler.symmetry import lrl_vector

REL_TOL = 1e-7


def _shifted(x, steps):
    out = list(x)
    for i, h in steps:
        out[i] += h
    return out


def _step(x, i, base):
    return base * max(1.0, abs(x[i]))


def richardson_first(f, x, i, base=1e-3):
    """``d f / d x_i`` from central differences at h and h/2, extrapolated."""

    def central(h):
        up = np.asarray(f(_shifted(x, [(i, h)])), dtype=float)
        dn = np.asarray(f(_shifted(x, [(i, -h)])), dtype=float)
        return (up - dn) / (2.0 * h)

    h = _step(x, i, base)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def richardson_second(f, x, i, j, base=2e-3):
    """``d^2 f / d x_i d x_j`` from the four-point central stencil,
    extrapolated the same way."""

    def central(hi, hj):
        corners = (
            (hi, hj, 1.0), (hi, -hj, -1.0), (-hi, hj, -1.0), (-hi, -hj, 1.0),
        )
        total = sum(sgn * f(_shifted(x, [(i, a), (j, b)])) for a, b, sgn in corners)
        return total / (4.0 * hi * hj)

    hi, hj = _step(x, i, base), _step(x, j, base)
    return (4.0 * central(hi / 2.0, hj / 2.0) - central(hi, hj)) / 3.0


def assert_matches(exact, approx):
    """Entrywise agreement to ``REL_TOL`` of the largest entry's size."""
    exact = np.asarray(exact, dtype=float)
    approx = np.asarray(approx, dtype=float)
    scale = max(float(np.max(np.abs(exact))), float(np.max(np.abs(approx))), 1e-300)
    err = float(np.max(np.abs(exact - approx)))
    assert err <= REL_TOL * scale, f"max error {err:.3e} against scale {scale:.3e}"


small = st.floats(-0.3, 0.3, allow_nan=False)


@st.composite
def deformations(draw):
    a12, a13, a23, l12, l13, l23 = (draw(small) for _ in range(6))
    alpha = ((0.0, a12, a13), (-a12, 0.0, a23), (-a13, -a23, 0.0))
    lam = ((0.0, l12, l13), (-l12, 0.0, l23), (-l13, -l23, 0.0))
    mass = draw(st.floats(0.5, 2.0))
    k = draw(st.floats(0.5, 2.0))
    return DeformationParams(alpha=alpha, lam=lam, mass=mass, k=k)


cartesian_points = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=6, max_size=6)


def _away_from_collision(x, params):
    """Keep the deformed radius Y = |q'| at least 1."""
    assume(sum(v * v for v in transform_coordinates(x, params)[:3]) >= 1.0)


@settings(deadline=None, max_examples=60)
@given(params=deformations(), x=cartesian_points)
def test_hamiltonian_gradient_matches_finite_differences(params, x):
    _away_from_collision(x, params)
    f = lambda c: hamiltonian(c, params)
    assert_matches(grad(f, x), [richardson_first(f, x, i) for i in range(6)])


@settings(deadline=None, max_examples=30)
@given(params=deformations(), x=cartesian_points)
def test_hamiltonian_hessian_matches_finite_differences(params, x):
    _away_from_collision(x, params)
    f = lambda c: hamiltonian(c, params)
    fd = [[richardson_second(f, x, i, j) for j in range(6)] for i in range(6)]
    assert_matches(hessian(f, x), fd)


@settings(deadline=None, max_examples=60)
@given(params=deformations(), x=cartesian_points)
def test_lrl_components_match_finite_differences(params, x):
    _away_from_collision(x, params)
    f = lambda c: lrl_vector(c, params)
    columns = [richardson_first(f, x, j) for j in range(6)]
    fd = [[columns[j][i] for j in range(6)] for i in range(3)]
    assert_matches(jacobian(f, x), fd)
    for i in range(3):
        assert_matches(grad(lambda c: f(c)[i], x), fd[i])


reduced_params = st.builds(
    ReducedParams,
    thetadot=st.floats(-0.009, 0.009),
    phidot=st.floats(0.0, 0.5),
    m=st.floats(1.0, 2.0),
    k=st.floats(0.5, 2.0),
)
delaunay_points = st.lists(st.floats(0.3, 2.5), min_size=6, max_size=6)


@settings(deadline=None, max_examples=60)
@given(rp=reduced_params, x=delaunay_points, h=st.sampled_from([1, 2]))
def test_level_bivector_entries_match_finite_differences(rp, x, h):
    B = level_bivector(h, rp)
    f = lambda c: [e for row in B.func(c) for e in row]
    columns = [richardson_first(f, x, j) for j in range(6)]
    fd = [[columns[j][i] for j in range(6)] for i in range(36)]
    assert_matches(jacobian(f, x), fd)


@settings(deadline=None, max_examples=60)
@given(rp=reduced_params, J=st.lists(st.floats(0.3, 2.0), min_size=3, max_size=3))
def test_action_hessian_matches_finite_differences(rp, J):
    f = lambda c: energy_from_actions(c, rp)
    fd = [[richardson_second(f, J, i, j) for j in range(3)] for i in range(3)]
    assert_matches(action_hessian(J, rp), fd)


def fd_jacobian(f, x):
    """``J[i][j] = d f_i / d x_j`` of a vector map, one column per coordinate."""
    columns = [richardson_first(f, x, j) for j in range(len(x))]
    return [[columns[j][i] for j in range(len(x))] for i in range(len(columns[0]))]


def chart_map(convert, source: Chart, *args):
    """``convert`` on plain coordinate lists of the ``source`` chart."""
    return lambda c: convert(PhasePoint(tuple(c), source), *args).coords


@settings(deadline=None, max_examples=40)
@given(rp=reduced_params, x=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_recombination_jacobians_match_finite_differences(rp, x):
    forward = chart_map(action_angle_to_delaunay, Chart.ACTION_ANGLE, rp)
    inverse = chart_map(delaunay_to_action_angle, Chart.DELAUNAY, rp)
    # the map multiplies by forward_jacobian, so pin it to the displayed
    # recombination first; otherwise its differences only show linearity
    J1, J2, J3, v1, v2, v3 = x
    M = rp.M
    assert_matches([J3, M * J2 + J3, J1 + M * J2 + J3, v3 - v2 / M, v2 - M * v1, v1], forward(x))
    assert_matches(forward_jacobian(rp), fd_jacobian(forward, x))
    assert_matches(inverse_jacobian(rp), fd_jacobian(inverse, x))


spherical_points = st.tuples(
    st.floats(0.5, 3.0),  # r
    st.floats(0.3, np.pi - 0.3),  # theta, away from the polar axis
    st.floats(0.3, 2.0 * np.pi - 0.3),  # phi, away from the 2 pi wrap
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
)


@settings(deadline=None, max_examples=40)
@given(s=spherical_points)
def test_spherical_to_cartesian_is_a_canonical_chart_map(s):
    to_cartesian = chart_map(spherical_to_cartesian, Chart.SPHERICAL)
    back = cartesian_to_spherical(PhasePoint(to_cartesian(s), Chart.CARTESIAN)).coords
    assert_matches(s, back)
    # a cotangent lift preserves the canonical form: J^T Omega J = Omega
    J = np.array(fd_jacobian(to_cartesian, list(s)))
    omega = np.array(pair_matrix([1.0, 1.0, 1.0]))
    assert_matches(omega, J.T @ omega @ J)
