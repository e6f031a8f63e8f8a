"""Deformed Kepler Hamiltonian, its flow, and structure-monitoring integration.

The Hamiltonian on the cartesian chart is

    H = (1/2m) sum_i (p_i + (1/2) sum_j lam[i][j] q^j)^2 - k / Y,

where ``Y = |q - (1/2) alpha p|`` is the deformed radius.  The closed-form
equations of motion, :func:`flow_rhs`, were re-derived from this Hamiltonian.
They are written once: the integrators run them, and the brackets suite
checks them against the bivector route ``P(dH, .)`` at every sampled point
through :func:`hamilton_rhs_closed_form`.  The radial coefficients carry the
coupling constant k (sigma has k/(4 Y^3) and sigma-tilde has k/Y^3), and the
excluded-diagonal double sums are exactly what remains after absorbing the
diagonal into those coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import duals
from .deformation import (
    DeformationParams,
    nc_symplectic_structures,
    transform_coordinates,
)
from .errors import SingularConfigurationError, StepFailureError
from .geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    VectorField,
    check_chart_domain,
    coords_of,
    dot,
    hamiltonian_vector_field,
)


def _radius_squared(z):
    """``Y^2 = |q'|^2`` from the primed coordinates ``z``."""
    return duals.power(z[0], 2) + duals.power(z[1], 2) + duals.power(z[2], 2)


def primed_radius(z):
    """``Y = |q'|`` from the primed coordinates ``z``; raises when the
    configuration is singular."""
    y2 = _radius_squared(z)
    if duals.anywhere(duals.value(y2) <= 0.0):
        raise SingularConfigurationError("deformed radius Y vanished (q = alpha p / 2)")
    return duals.sqrt(y2)


def primed_hamiltonian(z, params: DeformationParams):
    """Energy from the primed coordinates ``z`` (kinetic term in ``p'``).
    The radius comes first, so a singular configuration is reported before
    an overflowing momentum."""
    y = primed_radius(z)
    kinetic = (duals.power(z[3], 2) + duals.power(z[4], 2) + duals.power(z[5], 2)) / (2.0 * params.mass)
    return kinetic - params.k / y


def primed_angular_momentum(z) -> list:
    """Components of L = q' x p' from the primed coordinates ``z``."""
    q, p = z[:3], z[3:]
    return [
        q[1] * p[2] - q[2] * p[1],
        q[2] * p[0] - q[0] * p[2],
        q[0] * p[1] - q[1] * p[0],
    ]


def primed_lrl_vector(z, params: DeformationParams) -> list:
    """Components of A = p' x L - m k q' / Y from the primed coordinates ``z``."""
    q, p = z[:3], z[3:]
    L = primed_angular_momentum(z)
    y = primed_radius(z)
    mk = params.mass * params.k
    return [
        p[1] * L[2] - p[2] * L[1] - mk * q[0] / y,
        p[2] * L[0] - p[0] * L[2] - mk * q[1] / y,
        p[0] * L[1] - p[1] * L[0] - mk * q[2] / y,
    ]


def primed_observables(z, params: DeformationParams) -> list:
    """``(H, L1, L2, L3, A1, A2, A3)`` from the primed coordinates ``z``."""
    return [primed_hamiltonian(z, params)] + primed_angular_momentum(z) + primed_lrl_vector(z, params)


def deformed_radius(x, params: DeformationParams):
    """``Y = |q - (1/2) alpha p|``; raises when the configuration is singular."""
    return primed_radius(transform_coordinates(x, params))


def hamiltonian(x, params: DeformationParams):
    """Energy at a cartesian point (generic in the scalar type)."""
    return primed_hamiltonian(transform_coordinates(x, params), params)


def hamiltonian_field(params: DeformationParams) -> ScalarField:
    return ScalarField(lambda c: hamiltonian(c, params))


# Observables ``integrate`` can record, in the order ``primed_observables``
# returns them.
MONITOR_NAMES = ("H", "L1", "L2", "L3", "A1", "A2", "A3")

# Fixed-step methods ``integrate_field`` accepts.
METHODS = ("rk4", "implicit_midpoint")


def hamilton_rhs_closed_form(x, params: DeformationParams) -> list:
    """Closed-form (qdot, pdot) at one cartesian point: the integrators'
    right-hand side :func:`flow_rhs`, evaluated there."""
    return flow_rhs(params)(coords_of(x))


def hamilton_rhs_primed_form(x, params: DeformationParams) -> list:
    """The same flow written in primed coordinates.

    The momentum half matches the bracket-generated flow with the overall
    sign chosen so its commutative limit is the attractive force; the
    opposite overall sign fails that limit.
    """
    coords = coords_of(x)
    primed = transform_coordinates(coords, params)
    qp, pp = primed[:3], primed[3:]
    y = duals.value(primed_radius(primed))
    a, l = params.alpha, params.lam
    th = params.theta
    m, k = params.mass, params.k
    ky3 = k / duals.power(y, 3)
    qdot = [(pp[i] / m + 0.5 * ky3 * dot(a[i], qp)) / th[i] for i in range(3)]
    pdot = [(0.5 / m * dot(l[i], pp) - ky3 * qp[i]) / th[i] for i in range(3)]
    return qdot + pdot


def hamiltonian_vector_field_nc(params: DeformationParams) -> VectorField:
    """The flow field built from the bivector route ``P(dH, .)``."""
    _, bivector = nc_symplectic_structures(params)
    return hamiltonian_vector_field(bivector, hamiltonian_field(params))


def flow_rhs(params: DeformationParams) -> Callable[[Sequence[float]], list]:
    """Closed-form right-hand side for the integrators, built once per params.

    In the commutative limit it is the plain Kepler force.  Otherwise it is
    ``qdot_mu = (sigma_mu p_mu + sum_s R_mu,s q^s + (1/4) ky3 sum_(nu != mu)
    (alpha^T alpha)_mu,nu p_nu) / theta_mu`` and ``pdot_mu = -(sigma-tilde_mu
    q^mu - sum_s R_mu,s p_s + (1/4m) sum_(nu != mu) (lam^T lam)_mu,nu q^nu) /
    theta_mu``, with ``ky3 = k / Y^3``, ``sigma = 1/m + (1/4) ky3 diag(alpha^T
    alpha)``, ``sigma-tilde = ky3 + (1/4m) diag(lam^T lam)`` and ``R = lam /
    2m - (1/2) ky3 alpha^T``.  Every alpha/lambda-only subexpression is
    computed here instead of on each call, and every sum is a left fold from
    ``0.0``, so the result does not depend on how ``sum()`` rounds.
    """
    m, k = params.mass, params.k
    if params.is_commutative:

        def rhs(c):
            q1, q2, q3, p1, p2, p3 = c
            r2 = q1 * q1 + q2 * q2 + q3 * q3
            r3 = r2 * math.sqrt(r2)
            if r3 <= 0.0:  # also when r^3 underflows to 0, below r of about 1.4e-108
                raise SingularConfigurationError("radius vanished")
            f = -k / r3
            return [p1 / m, p2 / m, p3 / m, f * q1, f * q2, f * q3]

        return rhs

    a, l = params.alpha, params.lam
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    th1, th2, th3 = params.theta
    inv_m = 1.0 / m
    # sigma = 1/m + (0.25 ky3) sa, sigma-tilde = ky3 + cl, R = rl - ra ky3
    sa1, sa2, sa3 = (0.0 + a[0][mu] ** 2 + a[1][mu] ** 2 + a[2][mu] ** 2 for mu in range(3))
    cl1, cl2, cl3 = (0.25 / m * (0.0 + l[0][mu] ** 2 + l[1][mu] ** 2 + l[2][mu] ** 2) for mu in range(3))
    (rl11, rl12, rl13), (rl21, rl22, rl23), (rl31, rl32, rl33) = (
        [l[mu][s] / (2.0 * m) for s in range(3)] for mu in range(3)
    )
    (ra11, ra12, ra13), (ra21, ra22, ra23), (ra31, ra32, ra33) = (
        [a[s][mu] * 0.5 for s in range(3)] for mu in range(3)
    )
    # off-diagonal couplings (0.25 ky3) saa[mu][nu] and cll[mu][nu], nu != mu
    pairs = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
    a_cols, l_cols = tuple(zip(*a)), tuple(zip(*l))
    saa12, saa13, saa21, saa23, saa31, saa32 = (dot(a_cols[mu], a_cols[nu]) for mu, nu in pairs)
    cll12, cll13, cll21, cll23, cll31, cll32 = (
        0.25 / m * dot(l_cols[mu], l_cols[nu]) for mu, nu in pairs
    )

    def rhs(c):
        q1, q2, q3, p1, p2, p3 = c
        x1 = q1 - 0.5 * (0.0 + a11 * p1 + a12 * p2 + a13 * p3)
        x2 = q2 - 0.5 * (0.0 + a21 * p1 + a22 * p2 + a23 * p3)
        x3 = q3 - 0.5 * (0.0 + a31 * p1 + a32 * p2 + a33 * p3)
        y2 = x1**2 + x2**2 + x3**2
        y3 = math.sqrt(y2) ** 3
        if y3 <= 0.0:  # also when Y^3 underflows to 0, below Y of about 1.4e-108
            raise SingularConfigurationError("deformed radius Y vanished (q = alpha p / 2)")
        ky3 = k / y3
        k4 = 0.25 * ky3
        r11, r12, r13 = rl11 - ra11 * ky3, rl12 - ra12 * ky3, rl13 - ra13 * ky3
        r21, r22, r23 = rl21 - ra21 * ky3, rl22 - ra22 * ky3, rl23 - ra23 * ky3
        r31, r32, r33 = rl31 - ra31 * ky3, rl32 - ra32 * ky3, rl33 - ra33 * ky3
        dq1 = (inv_m + k4 * sa1) * p1 + (0.0 + r11 * q1 + r12 * q2 + r13 * q3)
        dq1 += k4 * saa12 * p2
        dq1 += k4 * saa13 * p3
        dq2 = (inv_m + k4 * sa2) * p2 + (0.0 + r21 * q1 + r22 * q2 + r23 * q3)
        dq2 += k4 * saa21 * p1
        dq2 += k4 * saa23 * p3
        dq3 = (inv_m + k4 * sa3) * p3 + (0.0 + r31 * q1 + r32 * q2 + r33 * q3)
        dq3 += k4 * saa31 * p1
        dq3 += k4 * saa32 * p2
        dp1 = (ky3 + cl1) * q1 - (0.0 + r11 * p1 + r12 * p2 + r13 * p3)
        dp1 += cll12 * q2
        dp1 += cll13 * q3
        dp2 = (ky3 + cl2) * q2 - (0.0 + r21 * p1 + r22 * p2 + r23 * p3)
        dp2 += cll21 * q1
        dp2 += cll23 * q3
        dp3 = (ky3 + cl3) * q3 - (0.0 + r31 * p1 + r32 * p2 + r33 * p3)
        dp3 += cll31 * q1
        dp3 += cll32 * q2
        return [dq1 / th1, dq2 / th2, dq3 / th3, -dp1 / th1, -dp2 / th2, -dp3 / th3]

    return rhs


@dataclass
class Trajectory:
    """Fixed-step trajectory with monitor values recorded at every state.

    Each state is a tuple of six finite floats in the chart of the run's
    initial point; ``monitors`` holds one column of floats per name of
    ``monitor_names``, a value per state."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    monitor_names: list = field(default_factory=list)
    monitors: list = field(default_factory=list)  # one column per monitor name
    termination_reason: str | None = None
    # largest per-step energy change over 1 + |E0|, the collision
    # detector's scale; the step that stopped a run counts
    max_energy_jump: float = 0.0

    @property
    def completed(self) -> bool:
        return self.termination_reason is None

    def monitor_series(self, name: str) -> list:
        return self.monitors[self.monitor_names.index(name)]

    def drift(self, name: str) -> float:
        """Largest deviation of monitor ``name`` from its initial value
        ``ref``, relative to ``|ref|`` for ``H`` (1.0 when ``ref == 0``) and
        to ``max(|ref|, 1)`` for every other monitor."""
        series = self.monitor_series(name)
        ref = series[0]
        scale = (abs(ref) or 1.0) if name == "H" else max(abs(ref), 1.0)
        with np.errstate(all="ignore"):  # inf - inf is NaN, as in Python
            deviations = np.abs(np.subtract(series, ref))
        return max(deviations.tolist()) / scale

    def to_csv(self, fh) -> None:
        """Write the trajectory to the text file ``fh`` as CSV: one header
        line, then one line per state with ``t``, the six coordinates and
        the monitor values, each as ``%.17g``.  The rows are streamed, so
        no copy of the whole text is held in memory."""
        names = ("t", "q1", "q2", "q3", "p1", "p2", "p3", *self.monitor_names)
        line = ",".join(["%.17g"] * len(names)) + "\n"
        fh.write(",".join(names) + "\n")
        fh.writelines(line % (t, *state, *row)
                      for t, state, *row in zip(self.times, self.states, *self.monitors))


# The steppers are generators of the successive states from ``c``, unrolled
# over the six coordinates.  Each keeps the operations and their order of
# the per-coordinate loop form, so every state is bit-identical to it: ``h``
# and ``w`` are the left-hand products ``0.5 * dt`` and ``dt / 6.0`` of that
# form.


def _rk4_states(rhs, c, dt):
    h = 0.5 * dt
    w = dt / 6.0
    while True:
        c1, c2, c3, c4, c5, c6 = c
        a1, a2, a3, a4, a5, a6 = rhs(c)
        b1, b2, b3, b4, b5, b6 = rhs((c1 + h * a1, c2 + h * a2, c3 + h * a3,
                                      c4 + h * a4, c5 + h * a5, c6 + h * a6))
        d1, d2, d3, d4, d5, d6 = rhs((c1 + h * b1, c2 + h * b2, c3 + h * b3,
                                      c4 + h * b4, c5 + h * b5, c6 + h * b6))
        e1, e2, e3, e4, e5, e6 = rhs((c1 + dt * d1, c2 + dt * d2, c3 + dt * d3,
                                      c4 + dt * d4, c5 + dt * d5, c6 + dt * d6))
        c = (
            c1 + w * (a1 + 2.0 * b1 + 2.0 * d1 + e1),
            c2 + w * (a2 + 2.0 * b2 + 2.0 * d2 + e2),
            c3 + w * (a3 + 2.0 * b3 + 2.0 * d3 + e3),
            c4 + w * (a4 + 2.0 * b4 + 2.0 * d4 + e4),
            c5 + w * (a5 + 2.0 * b5 + 2.0 * d5 + e5),
            c6 + w * (a6 + 2.0 * b6 + 2.0 * d6 + e6),
        )
        yield c


# The implicit midpoint stage iteration's stopping test and iteration cap.
_STAGE_TOL = 1e-12
_STAGE_MAX_ITER = 50


def _implicit_midpoint_states(rhs, c, dt):
    """Implicit midpoint steps: a fixed-point iteration on each step's
    midpoint stage until successive stages differ by less than
    ``_STAGE_TOL`` in every coordinate, else :class:`StepFailureError`.

    The iteration starts from the quartic extrapolation ``5 (s - v) - 10 (t
    - u) + w`` of the last five converged stages ``s``, ``t``, ``u``, ``v``
    and ``w``, latest first (Hairer, Lubich & Wanner, *Geometric Numerical
    Integration*, VIII.6).  The history starts as five copies of
    ``rhs(c)``, so the first step starts from ``rhs(c)``.  Past the fifth
    step the start is within O(dt^5) of the stage, so on a smooth orbit at
    ``dt = 1e-3`` one rhs call ends the step.  Only the start differs from
    an iteration from ``rhs(c)``: the stopping test, the iteration cap and
    the failure are the same.

    ``max`` keeps its first argument when that is NaN and skips a later
    NaN: a NaN in the first stage coordinate fails the iteration, while one
    elsewhere can end the step in a non-finite state, which
    ``integrate_field`` reports."""
    c1, c2, c3, c4, c5, c6 = c
    h = 0.5 * dt
    tol, max_iter = _STAGE_TOL, _STAGE_MAX_ITER
    s1, s2, s3, s4, s5, s6 = t1, t2, t3, t4, t5, t6 = u1, u2, u3, u4, u5, u6 = rhs(c)
    v1, v2, v3, v4, v5, v6 = w1, w2, w3, w4, w5, w6 = s1, s2, s3, s4, s5, s6
    while True:
        for _ in range(max_iter):
            n1, n2, n3, n4, n5, n6 = rhs((c1 + h * s1, c2 + h * s2, c3 + h * s3,
                                          c4 + h * s4, c5 + h * s5, c6 + h * s6))
            resid = max(abs(n1 - s1), abs(n2 - s2), abs(n3 - s3),
                        abs(n4 - s4), abs(n5 - s5), abs(n6 - s6))
            s1, s2, s3, s4, s5, s6 = n1, n2, n3, n4, n5, n6
            if resid < tol:
                break
        else:
            raise StepFailureError(
                f"implicit midpoint stage iteration did not reach {tol} in {max_iter} iterations"
            )
        c1, c2, c3, c4, c5, c6 = (c1 + dt * s1, c2 + dt * s2, c3 + dt * s3,
                                  c4 + dt * s4, c5 + dt * s5, c6 + dt * s6)
        yield c1, c2, c3, c4, c5, c6
        s1, t1, u1, v1, w1 = 5.0 * (s1 - v1) - 10.0 * (t1 - u1) + w1, s1, t1, u1, v1
        s2, t2, u2, v2, w2 = 5.0 * (s2 - v2) - 10.0 * (t2 - u2) + w2, s2, t2, u2, v2
        s3, t3, u3, v3, w3 = 5.0 * (s3 - v3) - 10.0 * (t3 - u3) + w3, s3, t3, u3, v3
        s4, t4, u4, v4, w4 = 5.0 * (s4 - v4) - 10.0 * (t4 - u4) + w4, s4, t4, u4, v4
        s5, t5, u5, v5, w5 = 5.0 * (s5 - v5) - 10.0 * (t5 - u5) + w5, s5, t5, u5, v5
        s6, t6, u6, v6, w6 = 5.0 * (s6 - v6) - 10.0 * (t6 - u6) + w6, s6, t6, u6, v6


# States ``integrate_field`` steps before it observes them in one hook call.
_BLOCK = 1024


def _reason(err: Exception):
    """The termination reason for an error of a step or the hook, or the
    error itself when it fails the run."""
    if isinstance(err, SingularConfigurationError):
        return f"singular configuration: {err}"
    if isinstance(err, StepFailureError):
        return f"step failure: {err}"
    if isinstance(err, OverflowError):
        return "overflow: the state left the float range"
    return err


def _observe_block(observe, states: np.ndarray, n_monitors: int) -> tuple:
    """``(stop, energy, columns)`` of ``observe`` over ``states``, finite
    states one per row, ``stop`` being None or ``(index, reason or error)``.
    When the array pass raises, each state is observed alone on its floats,
    up to the first that stops or raises."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return observe(tuple(np.ascontiguousarray(states.T)))
    except Exception:  # the state that raised raises again below
        pass
    stop, energies, rows = None, [], []
    for i, c in enumerate(states.tolist()):
        try:
            state_stop, energy, row = observe(c)
        except Exception as err:
            stop = (i, _reason(err))
            break
        if state_stop is not None:
            stop = (i, state_stop[1])
            break
        energies.append(energy)
        rows.append(row)
    return stop, energies, np.array(rows, dtype=float).reshape(len(rows), n_monitors).T


def integrate_field(
    x0: PhasePoint,
    rhs: Callable[[Sequence[float]], list],
    dt: float,
    n_steps: int,
    method: str = "rk4",
    *,
    observe: Callable,
    monitor_names: Sequence[str] = (),
) -> Trajectory:
    """Fixed-step integration with singularity guards.

    ``rhs`` takes and returns six coordinates; states are tuples of six
    floats in ``x0``'s chart.  One stepper generator makes every state of
    the run, so the implicit midpoint method's stage history, from which it
    starts each stage iteration, carries across blocks.

    ``observe`` gets the six floats of ``x0``, then six float64 arrays over
    each block of up to ``_BLOCK`` stepped states, and returns ``(stop,
    energy, columns)``: ``stop`` is None or ``(index, reason)`` for the first
    state that ends the run (ignored at ``x0``); ``energy`` feeds the
    collision detector (None turns it off) and ``columns`` holds one array
    per monitor name, both covering the states before ``index``.  The hook
    must treat each state alone: a block whose pass raises, floating-point
    exceptions included, is observed again state by state on floats.

    The run is cut at the first state that ends it, and the later steps of
    its block are dropped.  Reasons: the hook's stop, a non-finite state, a
    singular configuration, stage failure or overflow raised by a step or
    the hook, or a one-step energy jump over 1e-2 of ``1 + |E0|`` (the
    collision detector).  Other errors, and a spherical state with r <= 0 or
    theta outside (0, pi) (:class:`ChartDomainError`), propagate once the
    states before them have passed.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    stepper = _rk4_states if method == "rk4" else _implicit_midpoint_states

    chart = x0.chart
    c = x0.coords
    _, e_prev, row = observe(c)
    traj = Trajectory(times=[0.0], states=[c], monitor_names=list(monitor_names),
                      monitors=[[v] for v in row])
    e_scale = 1.0 + abs(e_prev) if e_prev is not None else None
    stepped = stepper(rhs, c, dt)
    step = 0
    while step < n_steps:
        block, outcome = [], None
        try:
            for c in itertools.islice(stepped, min(_BLOCK, n_steps - step)):
                block.append(c)
        except Exception as err:  # raised or reported once the states before it pass
            outcome = _reason(err)
        # ``end`` is the first state that ends the run, by ``outcome``
        end = len(block)
        states = np.array(block, dtype=float).reshape(end, 6)
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            end = int(np.argmin(finite))
            outcome = "singular configuration: state left the chart (non-finite)"
        stop, energy, columns = None, None, ()
        if end:
            stop, energy, columns = _observe_block(observe, states[:end], len(traj.monitors))
        if stop is not None:
            end, outcome = stop
        if e_scale is not None and end:
            e = np.asarray(energy[:end], dtype=float)
            with np.errstate(all="ignore"):  # inf - inf is NaN, as in Python
                jumps = np.abs(e - np.concatenate(([e_prev], e[:-1])))
                exploded = np.flatnonzero(~np.isfinite(e) | (jumps > 1e-2 * e_scale))
                if exploded.size:
                    end = int(exploded[0])
                    outcome = "singular configuration: energy step error exploded (collision)"
                    jumps = jumps[:end + 1]
                traj.max_energy_jump = max([traj.max_energy_jump] + (jumps / e_scale).tolist())
            e_prev = e[-1]
        if chart is not Chart.CARTESIAN:
            for state in block[:end]:
                check_chart_domain(state, chart)
        traj.times += [s * dt for s in range(step + 1, step + end + 1)]
        traj.states += block[:end]
        for series, col in zip(traj.monitors, columns):
            series.extend(col[:end].tolist())
        if isinstance(outcome, Exception):
            raise outcome
        if outcome is not None:
            traj.termination_reason = outcome
            return traj
        step += end
    return traj


def integrate(
    x0: PhasePoint,
    params: DeformationParams,
    dt: float,
    n_steps: int,
    method: str = "rk4",
    monitors: Sequence[str] = (),
) -> Trajectory:
    """Integrate the deformed Kepler flow from a cartesian point.

    ``monitors`` are names from :data:`MONITOR_NAMES`.  One pass of
    :func:`transform_coordinates` and :func:`primed_observables` over a
    block's arrays feeds the radius guard, the energy detector and every
    monitor.  Aborts with a singularity reason when the deformed radius
    falls below 1e-9 of its initial value or a step loses energy accuracy
    (collision).
    """
    unknown = [name for name in monitors if name not in MONITOR_NAMES]
    if unknown:
        raise ValueError(f"unknown monitors {unknown}; choose from {MONITOR_NAMES}")
    picks = [MONITOR_NAMES.index(name) for name in monitors]
    vectors = any(i > 0 for i in picks)
    floor = 1e-9 * primed_radius(transform_coordinates(x0.coords, params))
    floor2 = floor * floor

    def observe(cols):
        z = transform_coordinates(cols, params)
        values = primed_observables(z, params) if vectors else [primed_hamiltonian(z, params)]
        low = np.flatnonzero(_radius_squared(z) < floor2)
        stop = None
        if low.size:
            stop = (int(low[0]), "singular configuration: deformed radius below 1e-9 of its initial value")
        return stop, values[0], [values[i] for i in picks]

    return integrate_field(
        x0,
        flow_rhs(params),
        dt,
        n_steps,
        method=method,
        observe=observe,
        monitor_names=monitors,
    )
