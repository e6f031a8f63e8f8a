"""Block observation in ``kepler.integrate_field`` against the per-state loop.

The references below are the integration loop and the ``integrate`` hook as
they were written before observation went to blocks: one hook call per
stepped state, on its six floats, with the observables computed by a float
copy of the primed evaluators.  Their steppers are per-coordinate loops; the
implicit midpoint one starts each stage iteration from the run's earlier
stages, a history that spans the whole run.  The block loop must give the
same run: its times, states and monitor columns, termination reason and
largest energy jump by ``float.hex``, or the same error with the same
message, on runs that end in every way a run can end, inside the first
block and in later ones.
"""

import math

import numpy as np
import pytest

from nckepler import duals, kepler, suites
from nckepler.cli import _MONITOR_BUILDERS
from nckepler.deformation import DeformationParams
from nckepler.errors import ChartDomainError, SingularConfigurationError, StepFailureError
from nckepler.geometry import Chart, PhasePoint, check_chart_domain
from nckepler.kepler import MONITOR_NAMES, Trajectory, integrate, integrate_field
from nckepler.reduced import ReducedParams, spherical_hamiltonian, spherical_rhs
from nckepler.sampling import sample_cartesian, sample_deformations, sample_spherical_bound

BLOCK = kepler._BLOCK
COMM = DeformationParams()
DEFORMED = DeformationParams(
    alpha=[[0, 0.04, -0.03], [-0.04, 0, 0.02], [0.03, -0.02, 0]],
    lam=[[0, -0.05, 0.01], [0.05, 0, 0.03], [-0.01, -0.03, 0]],
    mass=1.2, k=0.9,
)
RP = ReducedParams(thetadot=0.006, phidot=0.3)


# -- the per-state references ----------------------------------------------------


def _ref_state_observables(c, params, vectors=True):
    q1, q2, q3, p1, p2, p3 = c
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = params.alpha
    (l11, l12, l13), (l21, l22, l23), (l31, l32, l33) = params.lam
    x1 = q1 - 0.5 * sum((a11 * p1, a12 * p2, a13 * p3))
    x2 = q2 - 0.5 * sum((a21 * p1, a22 * p2, a23 * p3))
    x3 = q3 - 0.5 * sum((a31 * p1, a32 * p2, a33 * p3))
    u1 = p1 + 0.5 * sum((l11 * q1, l12 * q2, l13 * q3))
    u2 = p2 + 0.5 * sum((l21 * q1, l22 * q2, l23 * q3))
    u3 = p3 + 0.5 * sum((l31 * q1, l32 * q2, l33 * q3))
    y2 = x1**2 + x2**2 + x3**2
    if y2 <= 0.0:
        raise SingularConfigurationError("deformed radius Y vanished (q = alpha p / 2)")
    y = math.sqrt(y2)
    m, k = params.mass, params.k
    h = (u1**2 + u2**2 + u3**2) / (2.0 * m) - k / y
    if not vectors:
        return y2, h
    L1, L2, L3 = x2 * u3 - x3 * u2, x3 * u1 - x1 * u3, x1 * u2 - x2 * u1
    mk = m * k
    return (
        y2, h, L1, L2, L3,
        u2 * L3 - u3 * L2 - mk * x1 / y,
        u3 * L1 - u1 * L3 - mk * x2 / y,
        u1 * L2 - u2 * L1 - mk * x3 / y,
    )


def _ref_rk4_step(rhs, c, dt, stages):
    k1 = rhs(c)
    k2 = rhs([c[i] + 0.5 * dt * k1[i] for i in range(6)])
    k3 = rhs([c[i] + 0.5 * dt * k2[i] for i in range(6)])
    k4 = rhs([c[i] + dt * k3[i] for i in range(6)])
    return tuple(c[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(6))


def _ref_midpoint_step(rhs, c, dt, stages, residual_tol=1e-12, max_iter=50):
    """One implicit midpoint step; ``stages`` holds four copies of the first
    step's start ``rhs(c)``, then the converged stages of the run's earlier
    steps, latest last, and gets this step's."""
    if not stages:
        s = rhs(c)
        stages.extend([s] * 4)
    else:
        w, v, u, t, s = stages[-5:]
        s = [5.0 * (si - vi) - 10.0 * (ti - ui) + wi for si, ti, ui, vi, wi in zip(s, t, u, v, w)]
    for _ in range(max_iter):
        s_new = rhs([c[i] + 0.5 * dt * s[i] for i in range(6)])
        resid = max(abs(s_new[i] - s[i]) for i in range(6))
        s = s_new
        if resid < residual_tol:
            stages.append(s)
            return tuple(c[i] + dt * s[i] for i in range(6))
    raise StepFailureError(
        f"implicit midpoint stage iteration did not reach {residual_tol} in {max_iter} iterations"
    )


def _ref_integrate_field(x0, rhs, dt, n_steps, method="rk4", *, observe, monitor_names=()):
    stepper = _ref_rk4_step if method == "rk4" else _ref_midpoint_step
    stages = []
    times, states, rows = [], [], []
    reason, max_energy_jump = None, 0.0
    chart = x0.chart
    bounded = chart is not Chart.CARTESIAN
    c = x0.coords
    _, e_prev, row = observe(c)
    times.append(0.0)
    states.append(c)
    rows.append(row)
    e_scale = 1.0 + abs(e_prev) if e_prev is not None else None
    for step in range(1, n_steps + 1):
        try:
            c_new = stepper(rhs, c, dt, stages)
            if not all(map(math.isfinite, c_new)):
                reason = "singular configuration: state left the chart (non-finite)"
            else:
                reason, e_new, row = observe(c_new)
        except SingularConfigurationError as err:
            reason = f"singular configuration: {err}"
        except StepFailureError as err:
            reason = f"step failure: {err}"
        except OverflowError:
            reason = "overflow: the state left the float range"
        if reason is None and e_scale is not None:
            jump = abs(e_new - e_prev)
            max_energy_jump = max(max_energy_jump, jump / e_scale)
            if not math.isfinite(e_new) or jump > 1e-2 * e_scale:
                reason = "singular configuration: energy step error exploded (collision)"
            e_prev = e_new
        if reason is not None:
            break
        c = c_new
        if bounded:
            check_chart_domain(c, chart)
        times.append(step * dt)
        states.append(c)
        rows.append(row)
    table = [[t, *state, *row] for t, state, row in zip(times, states, rows)]
    return Trajectory(np.array(table, dtype=float), list(monitor_names), reason, max_energy_jump)


def _ref_integrate(x0, params, dt, n_steps, method="rk4", monitors=(), rhs=None):
    columns = [1 + MONITOR_NAMES.index(name) for name in monitors]
    vectors = any(col > 1 for col in columns)
    floor = 1e-9 * math.sqrt(_ref_state_observables(x0.coords, params, False)[0])
    floor2 = floor * floor

    def observe(c):
        obs = _ref_state_observables(c, params, vectors)
        reason = None
        if obs[0] < floor2:
            reason = "singular configuration: deformed radius below 1e-9 of its initial value"
        return reason, obs[1], [obs[col] for col in columns]

    return _ref_integrate_field(x0, rhs or kepler.flow_rhs(params), dt, n_steps, method,
                                observe=observe, monitor_names=monitors)


def _ref_energy_monitor(rp):
    def observe(c):
        E = spherical_hamiltonian(c, rp)
        return None, E, [E]

    return observe


# -- comparison -------------------------------------------------------------------


def _outcome(run):
    """The run's trajectory by ``float.hex``, or its error's type and message."""
    try:
        traj = run()
    except Exception as err:
        return type(err).__name__, str(err)
    return (
        [t.hex() for t in traj.times],
        [[v.hex() for v in s] for s in traj.states],
        traj.monitor_names,
        [[v.hex() for v in col] for col in traj.monitors],
        traj.termination_reason,
        traj.max_energy_jump.hex(),
    )


def _constant(velocity):
    return lambda c: list(velocity)


def _exponential(c):
    return [c[0], 0.0, 0.0, 0.0, 0.0, 0.0]


def _squaring(c):
    return [c[0] ** 2, 0.0, 0.0, 0.0, 0.0, 0.0]


def _nan_beyond_five(c):
    return [math.nan if c[0] > 5.0 else 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def _stiff_beyond_five(c):
    return [1.0 if c[0] < 5.0 else 1e3 * c[0], 0.0, 0.0, 0.0, 0.0, 0.0]


def _guarded_fall(c):
    if c[0] < 0.6:
        raise ChartDomainError("radius left the chart")
    return [-0.125, 0.0, 0.0, 0.0, 0.0, 0.0]


def _cart(*coords):
    return PhasePoint(coords, Chart.CARTESIAN)


def _sph(*coords):
    return PhasePoint(coords, Chart.SPHERICAL)


# (x0, params, dt, n_steps, method, monitors, rhs or None for the flow)
CARTESIAN_RUNS = {
    "collision": (_cart(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), COMM, 1e-3, 2000, "rk4", MONITOR_NAMES, None),
    "collision-midpoint": (_cart(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), COMM, 1e-3, 2000,
                           "implicit_midpoint", ("H",), None),
    "radius-floor": (_cart(1.0, 0.0, 0.0, -1e6, 0.0, 0.0), COMM, 2.5e-8, 100, "rk4", MONITOR_NAMES, None),
    "radius-floor-first-step": (_cart(1.0, 0.0, 0.0, -1e6, 0.0, 0.0), COMM, 1e-6, 5, "rk4", ("H",), None),
    "y-vanishes": (_cart(1.0, 0.0, 0.0, 1e6, 0.0, 0.0), COMM, 0.25, 10, "rk4", MONITOR_NAMES,
                   _constant((-1.0, 0.0, 0.0, 0.0, 0.0, 0.0))),
    "y-vanishes-third-block": (_cart(1.0, 0.0, 0.0, 1e6, 0.0, 0.0), COMM, 1.0, 3000, "rk4", ("L3", "H"),
                               _constant((-1.0 / 2048, 0.0, 0.0, 0.0, 0.0, 0.0))),
    "non-finite": (_cart(1.0, 0.0, 0.0, 0.0, 1e3, 0.0), COMM, 0.5, 100, "rk4", MONITOR_NAMES,
                   _nan_beyond_five),
    "overflow-in-observables": (_cart(1.0, 0.0, 0.0, 0.0, 1e3, 0.0), COMM, 10.0, 100, "rk4", ("A1",),
                                _exponential),
    "overflow-in-step": (_cart(1.0, 0.0, 0.0, 0.0, 1e3, 0.0), COMM, 1e-3, 5000, "rk4", ("H",), _squaring),
    "overflow-first-step": (_cart(1.0, 0.0, 0.0, 0.0, 1.0, 0.0), DeformationParams(mass=1e-300),
                            1e-3, 3, "rk4", MONITOR_NAMES, None),
    "midpoint-step-failure": (_cart(1.0, 0.0, 0.0, 0.0, 1e3, 0.0), COMM, 0.5, 100, "implicit_midpoint",
                              ("H",), _stiff_beyond_five),
    "midpoint-failure-first-step": (_cart(1.0, 0.0, 0.0, 0.0, 1.0, 0.0), COMM, 2.0, 3,
                                    "implicit_midpoint", ("H",), None),
    "below-one-block": (_cart(1.1, 0.1, -0.2, 0.05, 0.85, 0.1), DEFORMED, 1e-3, 300, "rk4",
                        MONITOR_NAMES, None),
    "no-steps": (_cart(1.1, 0.1, -0.2, 0.05, 0.85, 0.1), DEFORMED, 1e-3, 0, "rk4", MONITOR_NAMES, None),
    "one-block": (_cart(1.0, 0.0, 0.0, 0.0, 1.05, 0.0), COMM, 1e-3, BLOCK, "rk4", ("H", "A2"), None),
    "two-blocks": (_cart(1.0, 0.0, 0.0, 0.0, 1.05, 0.0), COMM, 1e-3, 2 * BLOCK,
                   "implicit_midpoint", ("H",), None),
    "not-a-multiple": (_cart(0.9, 0.1, 0.2, -0.1, 1.0, 0.15), DEFORMED, 2e-3, 2 * BLOCK + 452, "rk4",
                       MONITOR_NAMES, None),
    "unmonitored": (_cart(0.9, 0.1, 0.2, -0.1, 1.0, 0.15), COMM, 2e-3, BLOCK + 1, "rk4", (), None),
}


@pytest.mark.parametrize("name", sorted(CARTESIAN_RUNS))
def test_integrate_equals_the_per_state_loop_bitwise(name, monkeypatch):
    x0, params, dt, n_steps, method, monitors, rhs = CARTESIAN_RUNS[name]
    want = _outcome(lambda: _ref_integrate(x0, params, dt, n_steps, method, monitors, rhs))
    if rhs is not None:
        monkeypatch.setattr(kepler, "flow_rhs", lambda p: rhs)
    got = _outcome(lambda: integrate(x0, params, dt, n_steps, method=method, monitors=monitors))
    assert got == want


def test_the_runs_end_in_every_way_a_run_can_end(monkeypatch):
    """The runs above reach each termination reason, inside the first block
    and beyond it, and stop on the first step."""
    ends = {}
    for name, (x0, params, dt, n_steps, method, monitors, rhs) in CARTESIAN_RUNS.items():
        traj = _ref_integrate(x0, params, dt, n_steps, method, monitors, rhs)
        ends[name] = (len(traj.states) - 1, (traj.termination_reason or "completed").split(":")[0:2])
    assert ends["collision"][0] > BLOCK and "collision" in ends["collision"][1][1]
    assert ends["radius-floor"] == (39, ["singular configuration", " deformed radius below 1e-9 of its initial value"])
    assert ends["radius-floor-first-step"][0] == 0
    assert ends["y-vanishes"] == (3, ["singular configuration", " deformed radius Y vanished (q = alpha p / 2)"])
    assert ends["y-vanishes-third-block"][0] == 2047 and "vanished" in ends["y-vanishes-third-block"][1][1]
    assert ends["non-finite"][1] == ["singular configuration", " state left the chart (non-finite)"]
    for name in ("overflow-in-observables", "overflow-in-step", "overflow-first-step"):
        assert ends[name][1][0] == "overflow", name
    assert ends["overflow-first-step"][0] == 0
    assert ends["midpoint-step-failure"][0] > 1 and ends["midpoint-step-failure"][1][0] == "step failure"
    assert ends["midpoint-failure-first-step"] == (0, ["step failure", " implicit midpoint stage iteration "
                                                       "did not reach 1e-12 in 50 iterations"])
    for name in ("below-one-block", "no-steps", "one-block", "two-blocks", "not-a-multiple", "unmonitored"):
        steps = CARTESIAN_RUNS[name][3]
        assert ends[name] == (steps, ["completed"]), name


# (x0, rhs, dt, n_steps)
SPHERICAL_RUNS = {
    "bound-orbit": (sample_spherical_bound(1, 44, RP)[0], spherical_rhs(RP), 1e-3, 2 * BLOCK + 100),
    "theta-above-pi": (_sph(1.0, 3.0, 0.0, 0.0, 0.0, 0.0), _constant((0.0, 0.1, 0.0, 0.0, 0.0, 0.0)), 1.0, 5),
    "r-at-zero-in-the-hook": (_sph(1.0, 1.0, 0.0, 1e6, 0.0, 0.0),
                              _constant((-0.25, 0.0, 0.0, 0.0, 0.0, 0.0)), 1.0, 10),
    "r-leaves-in-the-step": (_sph(1.0, 1.0, 0.0, 1e6, 0.0, 0.0), _guarded_fall, 2.0, 10),
    "collision-before-the-exit": (_sph(1.0, 3.0, 0.0, 0.0, 0.0, 0.0),
                                  _constant((-0.25, 0.1, 0.0, 0.0, 0.0, 0.0)), 1.0, 5),
}


@pytest.mark.parametrize("name", sorted(SPHERICAL_RUNS))
def test_spherical_runs_equal_the_per_state_loop_bitwise(name):
    x0, rhs, dt, n_steps = SPHERICAL_RUNS[name]
    want = _outcome(lambda: _ref_integrate_field(x0, rhs, dt, n_steps, observe=_ref_energy_monitor(RP),
                                                 monitor_names=("H",)))
    got = _outcome(lambda: integrate_field(x0, rhs, dt, n_steps, observe=suites._energy_monitor(RP),
                                           monitor_names=("H",)))
    assert got == want


def test_the_spherical_runs_end_as_intended():
    ends = {}
    for name, (x0, rhs, dt, n_steps) in SPHERICAL_RUNS.items():
        ends[name] = _outcome(lambda: _ref_integrate_field(
            x0, rhs, dt, n_steps, observe=_ref_energy_monitor(RP), monitor_names=("H",)))
    assert ends["bound-orbit"][4] is None and len(ends["bound-orbit"][0]) == 2 * BLOCK + 101
    assert ends["theta-above-pi"] == ("ChartDomainError", "coordinate theta must lie in (0, pi), got 3.2")
    assert ends["r-at-zero-in-the-hook"] == ("ChartDomainError", "coordinate r must be positive, got 0.0")
    assert ends["r-leaves-in-the-step"] == ("ChartDomainError", "radius left the chart")
    assert "collision" in ends["collision-before-the-exit"][4]


def test_monitor_columns_equal_the_monitor_fields_at_every_state():
    """Each column ``integrate`` records is, state by state and bit for bit,
    the scalar field its name stands for."""
    assert tuple(_MONITOR_BUILDERS) == MONITOR_NAMES
    for params in sample_deformations(3):
        x0 = sample_cartesian(1, seed=5, params=params, energy_sign="minus")[0]
        traj = integrate(x0, params, dt=1e-3, n_steps=BLOCK + 50, monitors=MONITOR_NAMES)
        assert traj.completed
        for name, col in zip(MONITOR_NAMES, traj.monitors):
            f = _MONITOR_BUILDERS[name](params)
            assert [v.hex() for v in col] == [f.func(list(s)).hex() for s in traj.states], name


def test_a_division_by_zero_in_the_hook_fails_the_run_as_the_float_route_does():
    """numpy divides by zero to inf where Python raises; the block is then
    observed state by state on floats, so the run fails at that state."""

    def inverse_square(c):
        return None, None, (1.0 / duals.power(c[0], 2),)

    def decay(c):
        return [-0.5 * c[0], 0.0, 0.0, 0.0, 0.0, 0.0]

    def run(integrator):
        return lambda: integrator(_cart(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), decay, 1.0, 1000,
                                  observe=inverse_square, monitor_names=("r^-2",))

    want = _outcome(run(_ref_integrate_field))
    assert want[0] == "ZeroDivisionError"
    assert _outcome(run(integrate_field)) == want


# -- the trajectory table ---------------------------------------------------------

CUT_RUNS = ("collision", "non-finite", "radius-floor")


def _cut_run(name, n_steps, monkeypatch):
    x0, params, dt, _, method, monitors, rhs = CARTESIAN_RUNS[name]
    if rhs is not None:
        monkeypatch.setattr(kepler, "flow_rhs", lambda p: rhs)
    return integrate(x0, params, dt, n_steps, method=method, monitors=monitors)


@pytest.mark.parametrize("name", CUT_RUNS)
def test_a_run_cut_inside_a_block_keeps_its_columns_of_one_length(name, monkeypatch):
    traj = _cut_run(name, CARTESIAN_RUNS[name][3], monkeypatch)
    n = len(traj.table)
    assert traj.termination_reason is not None and (n - 1) % BLOCK != 0
    assert len(traj.times) == n and traj.states.shape == (n, 6)
    assert len(traj.monitors) == len(traj.monitor_names) == len(CARTESIAN_RUNS[name][5])
    assert all(len(col) == n for col in traj.monitors)


@pytest.mark.parametrize("name", CUT_RUNS)
def test_no_allocation_grows_with_n_steps(name, monkeypatch):
    """A run that ends early gives the same trajectory at any step budget:
    a table sized from ``n_steps`` would fail here on valid input."""
    want = _outcome(lambda: _cut_run(name, 2_000, monkeypatch))
    assert want[4] is not None
    assert _outcome(lambda: _cut_run(name, 10**15, monkeypatch)) == want


def test_times_are_the_step_index_times_dt():
    dt = 0.1
    traj = integrate(_cart(0.9, 0.1, 0.2, -0.1, 1.0, 0.15), DEFORMED, dt, 2 * BLOCK + 452, monitors=("H",))
    assert [t.hex() for t in traj.times.tolist()] == [(s * dt).hex() for s in range(2 * BLOCK + 453)]
