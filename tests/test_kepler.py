import functools
import importlib
import io
import math
import operator
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nckepler import duals, kepler, suites
from nckepler.cli import SimulateConfig
from nckepler.deformation import DeformationParams, nc_symplectic_structures, transform_coordinates
from nckepler.errors import ChartDomainError, SingularConfigurationError
from nckepler.geometry import Chart, PhasePoint, gradient, interior_product
from nckepler.kepler import (
    Trajectory,
    deformed_radius,
    flow_rhs,
    hamilton_rhs_closed_form,
    hamilton_rhs_primed_form,
    hamiltonian,
    hamiltonian_field,
    hamiltonian_vector_field_nc,
    integrate,
    integrate_field,
)
from nckepler.sampling import sample_cartesian, sample_deformations
from nckepler.report import SuiteReport
from nckepler.suites import VerifyConfig, run_checks
from nckepler.symmetry import bracket_H_closed_forms, observables_jacobian

COMM = DeformationParams()


def pair_deformation(a, l, **kw):
    alpha = [[0, a, 0], [-a, 0, 0], [0, 0, 0]]
    lam = [[0, l, 0], [-l, 0, 0], [0, 0, 0]]
    return DeformationParams(alpha=alpha, lam=lam, **kw)


def test_deformed_radius_euclidean_limit():
    x = PhasePoint((3.0, 4.0, 0.0, 0.1, 0.2, 0.3), Chart.CARTESIAN)
    assert abs(deformed_radius(x, COMM) - 5.0) < 1e-15


def test_deformed_radius_hand_value():
    params = pair_deformation(0.2, 0.0)
    x = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    assert abs(deformed_radius(x, params) - 0.9) < 1e-15


def test_deformed_radius_singular_configuration():
    params = pair_deformation(0.2, 0.0)
    x = PhasePoint((0.1, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    with pytest.raises(SingularConfigurationError):
        deformed_radius(x, params)


def test_hamiltonian_classical_point():
    x = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    assert abs(hamiltonian(x, COMM) - (-0.5)) < 1e-15


def test_hamiltonian_momentum_deformed_point():
    params = pair_deformation(0.0, 0.2)
    x = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    # p' = (0, 1 - 0.1, 0); kinetic = 0.405, potential = -1
    assert abs(hamiltonian(x, params) - (-0.595)) < 1e-15


def test_hamiltonian_compositional_oracle():
    params = pair_deformation(0.15, -0.25, mass=1.4, k=0.9)
    pts = sample_cartesian(100, seed=2, params=params)
    for x in pts:
        pp = transform_coordinates(x, params)[3:]
        y = deformed_radius(x, params)
        expect = sum(v * v for v in pp) / (2.0 * params.mass) - params.k / y
        assert abs(hamiltonian(x, params) - expect) < 1e-12


def test_closed_form_classical_limit():
    x = PhasePoint((0.6, -0.2, 0.4, 0.3, 0.1, -0.5), Chart.CARTESIAN)
    rhs = hamilton_rhs_closed_form(x, COMM)
    q = np.array(x.coords[:3])
    p = np.array(x.coords[3:])
    r3 = np.linalg.norm(q) ** 3
    assert np.allclose(rhs[:3], p, atol=1e-15)
    assert np.allclose(rhs[3:], -q / r3, atol=1e-14)


def test_closed_form_matches_bivector_flow_across_deformations():
    for params in sample_deformations(10, seed=4):
        X = hamiltonian_vector_field_nc(params)
        for x in sample_cartesian(10, seed=5, params=params):
            cf = hamilton_rhs_closed_form(x, params)
            bf = [duals.value(v) for v in X(x)]
            assert max(abs(cf[i] - bf[i]) for i in range(6)) < 1e-10


def test_primed_form_matches_closed_form():
    for params in sample_deformations(5, seed=6):
        for x in sample_cartesian(20, seed=7, params=params):
            cf = hamilton_rhs_closed_form(x, params)
            pf = hamilton_rhs_primed_form(x, params)
            assert max(abs(cf[i] - pf[i]) for i in range(6)) < 1e-10


def test_flow_satisfies_interior_product_identity():
    params = pair_deformation(0.2, 0.3, mass=1.1, k=1.4)
    omega, _ = nc_symplectic_structures(params)
    X = hamiltonian_vector_field_nc(params)
    H = hamiltonian_field(params)
    for x in sample_cartesian(20, seed=8, params=params):
        ip = interior_product(X, omega, x)
        dH = gradient(H, x)
        assert max(abs(duals.value(ip[i]) + duals.value(dH[i])) for i in range(6)) < 1e-10


def _left_sum(terms):
    """``sum()`` as CPython 3.11 adds floats: left to right from 0.0."""
    return functools.reduce(operator.add, terms, 0.0)


def _ref_closed_form(x, params):
    """The deformed flow from the radial coefficients sigma, sigma-tilde and
    R, written generically, coordinate by coordinate; the double sums skip
    the nu = mu diagonal."""
    coords = list(x)
    q, p = coords[:3], coords[3:]
    a, l = params.alpha, params.lam
    th = params.theta
    m, k = params.mass, params.k
    ky3 = k / duals.power(duals.value(deformed_radius(coords, params)), 3)
    sigma = [1.0 / m + 0.25 * ky3 * _left_sum(a[i][mu] ** 2 for i in range(3)) for mu in range(3)]
    sigma_tilde = [ky3 + 0.25 / m * _left_sum(l[i][mu] ** 2 for i in range(3)) for mu in range(3)]
    R = [[l[mu][s] / (2.0 * m) - a[s][mu] * 0.5 * ky3 for s in range(3)] for mu in range(3)]
    qdot = [0.0] * 3
    pdot = [0.0] * 3
    for mu in range(3):
        dq = sigma[mu] * p[mu] + _left_sum(R[mu][s] * q[s] for s in range(3))
        dp = sigma_tilde[mu] * q[mu] - _left_sum(R[mu][s] * p[s] for s in range(3))
        for nu in range(3):
            if nu == mu:
                continue
            dq += 0.25 * ky3 * _left_sum(a[li][mu] * a[li][nu] for li in range(3)) * p[nu]
            dp += 0.25 / m * _left_sum(l[li][mu] * l[li][nu] for li in range(3)) * q[nu]
        qdot[mu] = dq / th[mu]
        pdot[mu] = -dp / th[mu]
    return qdot + pdot


def _awkward_states() -> list:
    """States whose coordinates square differently under ``**`` and ``*``
    (about 1 in 1 000 random floats do), with random signs."""
    rng = np.random.default_rng(5)
    awkward = [v for v in rng.uniform(0.2, 1.5, 400_000).tolist() if v**2 != v * v][:300]
    signs = rng.choice([-1.0, 1.0], size=(50, 6))
    return (signs * rng.choice(awkward, size=(50, 6))).tolist()


def test_hoisted_flow_equals_closed_form_exactly():
    awkward = _awkward_states()
    for params in sample_deformations(10) + sample_deformations(1, 5):
        assert not params.is_commutative
        rhs = flow_rhs(params)
        for c in [list(x.coords) for x in sample_cartesian(200, params=params)] + awkward:
            want = [v.hex() for v in _ref_closed_form(c, params)]
            assert [v.hex() for v in rhs(c)] == want, c
            x = PhasePoint(tuple(c), Chart.CARTESIAN)
            assert [v.hex() for v in hamilton_rhs_closed_form(x, params)] == want, c


def test_the_flow_entry_checks_the_integrators_right_hand_side(monkeypatch):
    ctx = suites.SUITES["brackets"].context(VerifyConfig(samples=24, seed=0))

    def entry():
        rep = run_checks(SuiteReport("brackets"), ctx, (suites._equations_of_motion,))
        return next(e for e in rep.entries if e.identity == "eom-closed-vs-bivector")

    assert entry().passed
    exact = kepler.flow_rhs

    def skewed(params):
        rhs = exact(params)

        def off(c):
            out = rhs(c)
            out[4] *= 1.0 + 1e-6
            return out

        return off

    monkeypatch.setattr(kepler, "flow_rhs", skewed)
    assert not entry().passed


@pytest.mark.parametrize("params", [COMM, pair_deformation(0.04, 0.0)], ids=["commutative", "deformed"])
def test_flow_at_a_radius_whose_cube_underflows_is_singular(params):
    # r^3 underflows to 0 below r of about 1.4e-108: the force is not a
    # float, and the run ends as at r = 0
    x0 = PhasePoint((0.0, 0.0, 1.6443510429624732e-109, 0.0, 0.0, 0.0), Chart.CARTESIAN)
    with pytest.raises(SingularConfigurationError):
        flow_rhs(params)(x0.coords)
    traj = integrate(x0, params, dt=1e-3, n_steps=3)
    assert len(traj.states) == 1
    assert traj.termination_reason.startswith("singular configuration: ")


def test_rk4_circular_orbit_energy_drift():
    x0 = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    traj = integrate(x0, COMM, dt=1e-3, n_steps=10_000, method="rk4", monitors=["H"])
    assert traj.completed
    series = traj.monitor_series("H")
    drift = max(abs(v - series[0]) for v in series) / abs(series[0])
    assert drift < 1e-8
    assert 0.0 < traj.max_energy_jump <= max(
        abs(b - a) for a, b in zip(series, series[1:])
    ) / (1.0 + abs(series[0]))


def test_radial_fall_terminates_with_singularity_reason():
    x0 = PhasePoint((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), Chart.CARTESIAN)
    traj = integrate(x0, COMM, dt=1e-3, n_steps=2_000, method="rk4")
    assert not traj.completed
    assert "singular" in traj.termination_reason
    assert len(traj.states) < 2_001
    # the step that tripped the collision detector is the largest jump
    assert traj.max_energy_jump > 1e-2


def test_implicit_midpoint_drift_bounded_and_non_secular():
    x0 = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.05, 0.0), Chart.CARTESIAN)
    traj = integrate(x0, COMM, dt=1e-3, n_steps=10_000, method="implicit_midpoint",
                     monitors=["H"])
    assert traj.completed
    series = np.array(traj.monitor_series("H"))
    dev = np.abs(series - series[0]) / abs(series[0])
    assert dev.max() < 1e-6  # bounded
    # non-secular: late-window deviation no worse than twice the early window
    early = dev[: len(dev) // 4].max()
    late = dev[3 * len(dev) // 4:].max()
    assert late <= 2.0 * max(early, 1e-12)


def test_implicit_midpoint_stage_failure_reported():
    x0 = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    traj = integrate(x0, COMM, dt=2.0, n_steps=3, method="implicit_midpoint")
    assert not traj.completed
    assert "step failure" in traj.termination_reason


def test_deformed_monitor_derivative_matches_bracket():
    params = sample_deformations(1, seed=17)[0]
    x0 = sample_cartesian(1, seed=7, params=params, energy_sign="minus")[0]
    dt = 2e-4
    traj = integrate(x0, params, dt=dt, n_steps=200, method="rk4", monitors=["L1", "L2", "L3"])
    assert traj.completed
    for idx in (50, 100, 150):
        frame = observables_jacobian(traj.states[idx], params)[0]
        for i, cf in enumerate(bracket_H_closed_forms(frame, params)[0]):
            s = traj.monitor_series(f"L{i + 1}")
            fd = (-s[idx + 2] + 8 * s[idx + 1] - 8 * s[idx - 1] + s[idx - 2]) / (12 * dt)
            assert abs(fd - cf) / max(abs(cf), 1e-3) < 1e-6


def _csv(traj) -> str:
    fh = io.StringIO()
    traj.to_csv(fh)
    return fh.getvalue()


def _joined_csv(traj) -> str:
    """The CSV as one string, built the way ``to_csv`` built it before it
    streamed its rows: a list of lines, joined, plus the last newline."""
    names = ("t", "q1", "q2", "q3", "p1", "p2", "p3", *traj.monitor_names)
    line = ",".join(["%.17g"] * len(names))
    lines = [",".join(names)]
    lines += [line % (t, *state, *row)
              for t, state, *row in zip(traj.times, traj.states, *traj.monitors)]
    return "\n".join(lines) + "\n"


EDGE_VALUES = (0.0, -0.0, 1.0, -2.5e-300, 5e-324, 1.7976931348623157e308, 1 / 3,
               math.inf, -math.inf, math.nan, 0.1)


def _edge_row():
    return Trajectory(np.array([EDGE_VALUES]), ["H", "L1", "L2", "L3"])


def test_trajectory_csv_format():
    x0 = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    traj = integrate(x0, COMM, dt=1e-3, n_steps=5, method="rk4", monitors=["H", "L3"])
    lines = _csv(traj).strip().split("\n")
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3,H,L3"
    assert len(lines) == 7
    row = lines[2].split(",")
    assert len(row) == 9
    # 17 significant digits round-trip exactly
    assert float(row[1]) == traj.states[1][0]


def test_trajectory_csv_row_is_each_value_at_17_significant_digits():
    assert _csv(_edge_row()).split("\n")[1] == ",".join(f"{v:.17g}" for v in EDGE_VALUES)


def _deformed_run():
    params = sample_deformations(1, seed=17)[0]
    x0 = sample_cartesian(1, seed=7, params=params, energy_sign="minus")[0]
    return integrate(x0, params, dt=1e-3, n_steps=50, method="rk4", monitors=kepler.MONITOR_NAMES)


def _collision_run():
    x0 = PhasePoint((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), Chart.CARTESIAN)
    traj = integrate(x0, COMM, dt=1e-3, n_steps=2000, method="rk4", monitors=["H"])
    assert not traj.completed and len(traj.states) == 1110
    return traj


def _unmonitored_run():
    x0 = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    return integrate(x0, COMM, dt=1e-3, n_steps=20, method="implicit_midpoint")


def _single_state():
    x0 = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    return Trajectory(np.array([[0.0, *x0.coords, hamiltonian(x0, COMM)]]), ["H"])


def _no_states():
    return Trajectory(np.empty((0, 7)), [])


@pytest.mark.parametrize("build", [_unmonitored_run, _deformed_run, _single_state,
                                   _collision_run, _edge_row, _no_states],
                         ids=["no-monitors", "all-monitors", "single-state", "collision",
                              "edge-values", "no-states"])
def test_trajectory_csv_streams_the_bytes_of_the_joined_string(build):
    traj = build()
    assert _csv(traj) == _joined_csv(traj)


def test_trajectory_csv_holds_no_copy_of_the_text(tmp_path):
    """Writing 40 001 rows holds a write buffer, not the 6.35 MB of text:
    building the whole string first peaked at about 20 MiB."""
    n = 40_001
    table = np.empty((n, 8))
    table[:, 0] = [i * 1e-3 for i in range(n)]
    table[:, 1:7] = (1 / 3, -2 / 3, 0.1, 1 / 7, 2 / 9, -1 / 11)
    table[:, 7] = -0.5123456789012345
    traj = Trajectory(table, ["H"])
    with open(tmp_path / "traj.csv", "w") as fh:
        tracemalloc.start()
        try:
            traj.to_csv(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "traj.csv").stat().st_size == 6_350_129
    assert peak < 2**20


def _first_wrong_row(values):
    """The first CSV row of a trajectory holding ``values``, eight to a row
    (``t``, the six coordinates and one monitor; the last row padded with
    1.0), that ``to_csv`` writes otherwise than ``'%.17g'``, as ``(to_csv's
    row, '%.17g' row)``, or None."""
    values = list(values)
    values += [1.0] * (-len(values) % 8)
    rows = [values[i:i + 8] for i in range(0, len(values), 8)]
    traj = Trajectory(np.array(rows, dtype=float), ["H"])
    got, want = _csv(traj).split("\n"), _joined_csv(traj).split("\n")
    assert len(got) == len(want) == len(rows) + 2
    return next(((g, w) for g, w in zip(got, want) if g != w), None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.floats()] * 8), min_size=1, max_size=70))
def test_trajectory_csv_is_percent_17g_of_any_floats(rows):
    assert _first_wrong_row(v for row in rows for v in row) is None


def test_trajectory_csv_is_percent_17g_of_random_bit_patterns():
    # every exponent and sign, NaNs and infinities among them, across row
    # blocks of the kernel
    bits = np.random.default_rng(29).integers(0, 2**64, size=10**6, dtype=np.uint64)
    assert _first_wrong_row(bits.view(np.float64).tolist()) is None


def _ties() -> list:
    """Doubles whose scaled value ``|v| 10^(16 - e10)`` is a tie, or lies
    within 3 / 2^48 (about 1e-14) of one, so that the kernel's rounding
    error could tip it.

    Where ``10^j`` is an integer and ``v = m 2^q``, the scaled value is ``m
    5^j / 2^s`` with ``s = -(q + j)``, whose fraction is ``1/2 + d / 2^s``
    when ``m 5^j = 2^(s - 1) + d`` modulo ``2^s``.  With ``j`` at most 22
    the kernel's arithmetic is exact, beyond it the power is rounded."""
    out = []
    for j in range(3, 60):
        q0 = math.floor(math.log2(10.0 ** (16 - j))) - 52
        for q in range(q0, q0 + 4):
            s = -(q + j)
            inverse = pow(5**j, -1, 2**s)
            for d in range(-3, 4) if s >= 48 else (0,):
                m = (2 ** (s - 1) + d) * inverse % 2**s
                if s < 53:
                    m += ((2**52 - m) // 2**s + 1) * 2**s
                v = math.ldexp(m, q)
                if 2**52 <= m < 2**53 and 10**16 <= Fraction(v) * 10**j < 10**17:
                    out += [v, -v]
    return out


def _boundary_values() -> list:
    """Values next to every edge of the kernel's fast path: zeros,
    subnormals, the float range, each power of ten and its two neighbours,
    the doubles just below a power of ten, some of which round up to it at
    17 digits, and rounding ties."""
    tiny = 2.2250738585072014e-308
    values = [0.0, -0.0, 5e-324, -5e-324, math.nextafter(tiny, 0.0), tiny, math.nextafter(tiny, 1.0),
              1.7976931348623157e308, math.inf, -math.inf, math.nan, 1e-248, 9.99999999999999999e-5,
              100.0, -100.0, 1e16 + 2.0, 123456789012345678.0, 0.5, 0.25]
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf), -p,
                   float(f"9.99999999999999999e{k - 1}"), float(f"9.9999999999999999e{k - 1}")]
    return values + _ties()


def test_trajectory_csv_is_percent_17g_at_the_fast_path_boundaries():
    # 1e-248 is 9.9999999999999998e-249: its scaled value rounds up to 10^16
    assert "%.17g" % 1e-248 == "9.9999999999999998e-249"
    # the double nearest 1e-176 lies below it and prints as it
    assert Fraction(1e-176) < Fraction(1, 10**176) and "%.17g" % 1e-176 == "1e-176"
    ties = _ties()
    assert len(ties) > 100 and not kepler._decimal_digits(np.array(ties))[0].any()
    assert _first_wrong_row(_boundary_values()) is None


def test_only_the_exact_zeros_of_the_kepler_workload_take_the_fallback(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    cfg = SimulateConfig.from_dict(workloads.SimulateKepler.inputs(0))
    traj = integrate(cfg.x0, cfg.params, dt=cfg.dt, n_steps=cfg.n_steps, method=cfg.method,
                     monitors=cfg.monitors)
    assert len(traj.states) == 40_001
    table = np.column_stack([traj.times, np.array(traj.states), *traj.monitors]).ravel()
    exact = kepler._decimal_digits(table)[0]
    assert np.flatnonzero(~exact).tolist() == np.flatnonzero(table == 0.0).tolist() == [0]


def test_trajectory_drift_scales_h_by_its_start_and_others_by_at_least_one():
    def monitored(*columns):
        # t and the six coordinates are zero: drift reads the monitors alone
        return np.column_stack([np.zeros((len(columns[0]), 7)), *columns])

    traj = Trajectory(monitored([-0.5, -0.25, -0.625], [0.25, 0.75, 0.0], [4.0, 5.0, 3.0]),
                      ["H", "L1", "A1"])
    assert traj.drift("H") == 0.5  # 0.25 / |-0.5|
    assert traj.drift("L1") == 0.5  # 0.5 / max(0.25, 1)
    assert traj.drift("A1") == 0.25  # 1 / max(4, 1)
    zero = Trajectory(monitored([0.0, 0.375], [0.0, -0.5]), ["H", "L1"])
    assert zero.drift("H") == 0.375  # H0 == 0 is measured against 1.0
    assert zero.drift("L1") == 0.5


def test_integrator_rejects_bad_arguments():
    x0 = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    with pytest.raises(ValueError):
        integrate(x0, COMM, dt=-1.0, n_steps=10)
    with pytest.raises(ValueError):
        integrate(x0, COMM, dt=1e-3, n_steps=10, method="euler")
    with pytest.raises(ValueError):
        integrate(x0, COMM, dt=1e-3, n_steps=10, monitors=["E"])


def test_trajectory_invariants():
    x0 = PhasePoint((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), Chart.CARTESIAN)
    traj = integrate(x0, COMM, dt=1e-3, n_steps=50, method="rk4", monitors=["H"])
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    assert len(traj.monitors) == 1
    assert len(traj.monitors[0]) == len(traj.states) == len(traj.times)
    assert all(len(s) == 6 and all(map(math.isfinite, s)) for s in traj.states)


@pytest.mark.parametrize("start, velocity, message", [
    ((1.0, 3.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.1, 0.0, 0.0, 0.0, 0.0),
     "coordinate theta must lie in (0, pi), got 3.2"),
    ((1.0, 0.2, 0.0, 0.0, 0.0, 0.0), (0.0, -0.1, 0.0, 0.0, 0.0, 0.0),
     "coordinate theta must lie in (0, pi), got -0.09999999999999996"),
    ((1.0, 1.0, 0.0, 0.0, 0.0, 0.0), (-0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
     "coordinate r must be positive, got 0.0"),
], ids=["theta-above-pi", "theta-below-zero", "r-at-zero"])
def test_spherical_run_leaving_the_chart_raises_chart_domain_error(start, velocity, message):
    x0 = PhasePoint(start, Chart.SPHERICAL)
    with pytest.raises(ChartDomainError) as info:
        integrate_field(x0, lambda c: list(velocity), 1.0, 5, observe=lambda c: (None, None, ()))
    assert str(info.value) == message
