"""Independent check of the dual engine against finite differences.

Every identity check trusts ``duals.grad``, ``jacobian`` and ``hessian``.
This oracle never builds a ``Dual``: it evaluates the real field
evaluators on plain floats and differentiates them with
Richardson-extrapolated central differences, whose error is O(h^4).
Complex-step differentiation is no option because the evaluators call
``math`` functions.  Draws stay bounded away from the singular sets (the
deformed radius ``Y = 0``, the action sum ``S = 0``, the polar axis).
Where an exact derivative is zero, or far below the others of its check,
the relative tolerance alone would measure the differences' own error
against itself, so each difference carries a bound of that error (its
rounding and its truncation, see :func:`_extrapolated`), which
:func:`assert_matches` adds to the tolerance.

The same differences check the chart maps: the constant Jacobians of the
action-angle/Delaunay recombination against the maps themselves, and the
spherical-to-cartesian map as a canonical transformation.
"""

import sys

import numpy as np
from hypothesis import assume, example, given, settings
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
EPS = sys.float_info.epsilon


def _shifted(x, steps):
    out = list(x)
    for i, h in steps:
        out[i] += h
    return out


def _step(x, i, base):
    return base * max(1.0, abs(x[i]))


def _extrapolated(central):
    """Richardson extrapolation of a central difference quotient
    ``central(s)`` at the step scaled by ``s``, whose truncation error runs
    ``a s^2 + b s^4 + ...``: ``R(s) = (4 central(s/2) - central(s)) / 3``
    cancels the ``s^2`` term.

    ``central`` returns the quotient and the bound of its rounding error
    when every value it reads is off by at most ``EPS`` times the largest
    of them in size.  Returns ``R(1)`` and the bound of its error, the sum
    of its rounding bound ``(4 r(1/2) + r(1)) / 3`` and the estimate of its
    truncation error from the next halving, ``(16/15) |R(1) - R(1/2)|``
    (``R(1)`` is off by ``-b/4`` and ``R(1/2)`` by ``-b/64``)."""
    (c1, r1), (c2, r2), (c4, _) = central(1.0), central(0.5), central(0.25)
    r = (4.0 * c2 - c1) / 3.0
    return r, (4.0 * r2 + r1) / 3.0 + 16.0 / 15.0 * np.abs(r - (4.0 * c4 - c2) / 3.0)


def _size(values) -> float:
    return float(np.max(np.abs(values)))


def richardson_first(f, x, i, base=1e-3):
    """``d f / d x_i`` from central differences at h and h/2, extrapolated,
    and the bound of its error."""
    h = _step(x, i, base)

    def central(s):
        hs = s * h
        up = np.asarray(f(_shifted(x, [(i, hs)])), dtype=float)
        dn = np.asarray(f(_shifted(x, [(i, -hs)])), dtype=float)
        # two values, each off by up to EPS * max|f|, over 2 hs
        return (up - dn) / (2.0 * hs), EPS * max(_size(up), _size(dn)) / hs

    return _extrapolated(central)


def richardson_second(f, x, i, j, base=2e-3):
    """``d^2 f / d x_i d x_j`` from the four-point central stencil,
    extrapolated the same way, and the bound of its error."""
    hi, hj = _step(x, i, base), _step(x, j, base)

    def central(s):
        a, b = s * hi, s * hj
        values = [sgn * f(_shifted(x, [(i, u), (j, v)]))
                  for u, v, sgn in ((a, b, 1.0), (a, -b, -1.0), (-a, b, -1.0), (-a, -b, 1.0))]
        # four values, each off by up to EPS * max|f|, over 4 a b
        return sum(values) / (4.0 * a * b), EPS * _size(values) / (a * b)

    return _extrapolated(central)


def fd_jacobian(f, x):
    """``J[i][j] = d f_i / d x_j`` of a vector map, one column per
    coordinate, and the bound of each entry's error."""
    columns = [richardson_first(f, x, j) for j in range(len(x))]
    return np.array([c for c, _ in columns]).T, np.array([b for _, b in columns]).T


def fd_hessian(f, x):
    """``d^2 f / d x_i d x_j`` of a scalar map and the bound of each entry's error."""
    entries = [[richardson_second(f, x, i, j) for j in range(len(x))] for i in range(len(x))]
    return (np.array([[e for e, _ in row] for row in entries]),
            np.array([[b for _, b in row] for row in entries]))


def assert_matches(exact, approx, floor=0.0):
    """Entrywise agreement to ``REL_TOL`` of the largest entry's size, plus
    ``floor``, the bound of the differences' own error in ``approx``."""
    exact = np.asarray(exact, dtype=float)
    approx = np.asarray(approx, dtype=float)
    scale = max(float(np.max(np.abs(exact))), float(np.max(np.abs(approx))), 1e-300)
    err = np.abs(exact - approx)
    assert np.all(err <= REL_TOL * scale + floor), (
        f"max error {float(np.max(err)):.3e} against scale {scale:.3e} "
        f"and floor {float(np.max(floor)):.3e}")


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
    fd, bound = fd_jacobian(lambda c: [f(c)], x)
    assert_matches(grad(f, x), fd[0], bound[0])


@settings(deadline=None, max_examples=30)
@given(params=deformations(), x=cartesian_points)
def test_hamiltonian_hessian_matches_finite_differences(params, x):
    _away_from_collision(x, params)
    f = lambda c: hamiltonian(c, params)
    assert_matches(hessian(f, x), *fd_hessian(f, x))


def _kepler(m, k):
    zero = ((0.0, 0.0, 0.0),) * 3
    return DeformationParams(alpha=zero, lam=zero, mass=m, k=k)


# points where an exact gradient row of A vanishes, each of which once
# failed a purely relative tolerance: on the z axis at rest (the
# differences' rounding, or the duals' own at 2.974609375), and on the
# circular orbit where A = 0 (the differences' truncation)
@settings(deadline=None, max_examples=60)
@given(params=deformations(), x=cartesian_points)
@example(params=_kepler(1.0, 1.0079), x=[0.0, 0.0, 2.1953125, 0.0, 0.0, 0.0])
@example(params=_kepler(1.0, 1.0), x=[0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
@example(params=_kepler(1.0, 1.6875), x=[0.0, 0.0, 1.5, 0.0, 0.0, 0.0])
@example(params=_kepler(1.0, 1.0), x=[0.0, 0.0, 2.974609375, 0.0, 0.0, 0.0])
def test_lrl_components_match_finite_differences(params, x):
    _away_from_collision(x, params)
    f = lambda c: lrl_vector(c, params)
    fd, bound = fd_jacobian(f, x)
    assert_matches(jacobian(f, x), fd, bound)
    for i in range(3):
        assert_matches(grad(lambda c: f(c)[i], x), fd[i], bound[i])


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
    assert_matches(jacobian(f, x), *fd_jacobian(f, x))


@settings(deadline=None, max_examples=60)
@given(rp=reduced_params, J=st.lists(st.floats(0.3, 2.0), min_size=3, max_size=3))
def test_action_hessian_matches_finite_differences(rp, J):
    f = lambda c: energy_from_actions(c, rp)
    assert_matches(action_hessian(J, rp), *fd_hessian(f, J))


def chart_map(convert, source: Chart, *args):
    """``convert`` on plain coordinate lists of the ``source`` chart."""
    return lambda c: convert(PhasePoint(tuple(c), source), *args).coords


@settings(deadline=None, max_examples=40)
@given(rp=reduced_params, x=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_recombination_jacobians_match_finite_differences(rp, x):
    forward = chart_map(action_angle_to_delaunay, Chart.ACTION_ANGLE, rp)
    inverse = chart_map(delaunay_to_action_angle, Chart.DELAUNAY, rp)
    # each Jacobian is a derivative pass of its map, so pin both maps to the
    # displayed recombination first; a wrong map would match its own Jacobian
    J1, J2, J3, v1, v2, v3 = x
    M = rp.M
    assert_matches([J3, M * J2 + J3, J1 + M * J2 + J3, v3 - v2 / M, v2 - M * v1, v1], forward(x))
    assert_matches([-J2 + J3, (J2 - J1) / M, J1, v3, v2 + M * v3, v1 + v2 / M + v3], inverse(x))
    assert_matches(forward_jacobian(rp), *fd_jacobian(forward, x))
    assert_matches(inverse_jacobian(rp), *fd_jacobian(inverse, x))


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
    J, _ = fd_jacobian(to_cartesian, list(s))
    omega = np.array(pair_matrix([1.0, 1.0, 1.0]))
    assert_matches(omega, J.T @ omega @ J)
