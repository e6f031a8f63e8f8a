"""Deformed Kepler Hamiltonian, its flow, and structure-monitoring integration.

The Hamiltonian on the cartesian chart is

    H = (1/2m) sum_i (p_i + (1/2) sum_j lam[i][j] q^j)^2 - k / Y,

where ``Y = |q - (1/2) alpha p|`` is the deformed radius.  The closed-form
equations of motion below were re-derived from this Hamiltonian and are
cross-checked against the bivector route ``P(dH, .)`` in the test suite; the
radial coefficients carry the coupling constant k (sigma has k/(4 Y^3) and
sigma-tilde has k/Y^3), and the excluded-diagonal double sums are exactly
what remains after absorbing the diagonal into those coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    hamiltonian_vector_field,
)


def primed_radius(z):
    """``Y = |q'|`` from the primed coordinates ``z``; raises when the
    configuration is singular."""
    y2 = duals.power(z[0], 2) + duals.power(z[1], 2) + duals.power(z[2], 2)
    if duals.anywhere(duals.value(y2) <= 0.0):
        raise SingularConfigurationError("deformed radius Y vanished (q = alpha p / 2)")
    return duals.sqrt(y2)


def primed_hamiltonian(z, params: DeformationParams):
    """Energy from the primed coordinates ``z`` (kinetic term in ``p'``)."""
    kinetic = (duals.power(z[3], 2) + duals.power(z[4], 2) + duals.power(z[5], 2)) / (2.0 * params.mass)
    return kinetic - params.k / primed_radius(z)


def deformed_radius(x, params: DeformationParams):
    """``Y = |q - (1/2) alpha p|``; raises when the configuration is singular."""
    return primed_radius(transform_coordinates(x, params))


def hamiltonian(x, params: DeformationParams):
    """Energy at a cartesian point (generic in the scalar type)."""
    return primed_hamiltonian(transform_coordinates(x, params), params)


def hamiltonian_field(params: DeformationParams) -> ScalarField:
    return ScalarField(lambda c: hamiltonian(c, params))


# Observables ``integrate`` can record, in the order ``state_observables``
# returns them after Y^2.
MONITOR_NAMES = ("H", "L1", "L2", "L3", "A1", "A2", "A3")

# Fixed-step methods ``integrate_field`` accepts.
METHODS = ("rk4", "implicit_midpoint")


def state_observables(c, params: DeformationParams, vectors: bool = True) -> tuple:
    """``(Y^2, H, L1, L2, L3, A1, A2, A3)`` at a cartesian state of floats,
    all from one primed vector; only ``(Y^2, H)`` when ``vectors`` is false.

    Each value is bit-identical to :func:`hamiltonian`,
    ``symmetry.angular_momentum`` and ``symmetry.lrl_vector``, which stay the
    scalar-generic references: the operations and their order are theirs.
    """
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


def hamilton_rhs_closed_form(x, params: DeformationParams) -> list:
    """Closed-form (qdot, pdot) from the radial coefficients sigma,
    sigma-tilde and R; the double sums skip the nu = mu diagonal."""
    coords = coords_of(x)
    q, p = coords[:3], coords[3:]
    a, l = params.alpha, params.lam
    th = params.theta
    m, k = params.mass, params.k
    ky3 = k / duals.power(duals.value(deformed_radius(coords, params)), 3)
    sigma = [1.0 / m + 0.25 * ky3 * sum(a[i][mu] ** 2 for i in range(3)) for mu in range(3)]
    sigma_tilde = [ky3 + 0.25 / m * sum(l[i][mu] ** 2 for i in range(3)) for mu in range(3)]
    R = [[l[mu][s] / (2.0 * m) - a[s][mu] * 0.5 * ky3 for s in range(3)] for mu in range(3)]
    qdot = [0.0] * 3
    pdot = [0.0] * 3
    for mu in range(3):
        dq = sigma[mu] * p[mu] + sum(R[mu][s] * q[s] for s in range(3))
        dp = sigma_tilde[mu] * q[mu] - sum(R[mu][s] * p[s] for s in range(3))
        for nu in range(3):
            if nu == mu:
                continue
            dq += 0.25 * ky3 * sum(a[li][mu] * a[li][nu] for li in range(3)) * p[nu]
            dp += 0.25 / m * sum(l[li][mu] * l[li][nu] for li in range(3)) * q[nu]
        qdot[mu] = dq / th[mu]
        pdot[mu] = -dp / th[mu]
    return qdot + pdot


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
    qdot = [
        (pp[i] / m + 0.5 * ky3 * sum(a[i][j] * qp[j] for j in range(3))) / th[i]
        for i in range(3)
    ]
    pdot = [
        (0.5 / m * sum(l[i][j] * pp[j] for j in range(3)) - ky3 * qp[i]) / th[i]
        for i in range(3)
    ]
    return qdot + pdot


def hamiltonian_vector_field_nc(params: DeformationParams) -> VectorField:
    """The flow field built from the bivector route ``P(dH, .)``."""
    _, bivector = nc_symplectic_structures(params)
    return hamiltonian_vector_field(bivector, hamiltonian_field(params))


def flow_rhs(params: DeformationParams) -> Callable[[Sequence[float]], list]:
    """Closed-form right-hand side for the integrators, built once per params.

    In the commutative limit it is the plain Kepler force.  Otherwise it is
    :func:`hamilton_rhs_closed_form` with every alpha/lambda-only
    subexpression computed here instead of on each call.  The result is
    bit-identical to that reference: each hoisted constant is a
    left-to-right prefix of the reference expression, and the ``**``,
    ``math.sqrt`` and ``sum()`` calls are kept (``sum()`` starts from the
    integer 0, which turns a -0.0 first term into 0.0).
    """
    m, k = params.mass, params.k
    if params.is_commutative:

        def rhs(c):
            q1, q2, q3, p1, p2, p3 = c
            r2 = q1 * q1 + q2 * q2 + q3 * q3
            if r2 <= 0.0:
                raise SingularConfigurationError("radius vanished")
            f = -k / (r2 * math.sqrt(r2))
            return [p1 / m, p2 / m, p3 / m, f * q1, f * q2, f * q3]

        return rhs

    a, l = params.alpha, params.lam
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    th1, th2, th3 = params.theta
    inv_m = 1.0 / m
    # sigma = 1/m + (0.25 ky3) sa, sigma-tilde = ky3 + cl, R = rl - ra ky3
    sa1, sa2, sa3 = (sum(a[i][mu] ** 2 for i in range(3)) for mu in range(3))
    cl1, cl2, cl3 = (0.25 / m * sum(l[i][mu] ** 2 for i in range(3)) for mu in range(3))
    (rl11, rl12, rl13), (rl21, rl22, rl23), (rl31, rl32, rl33) = (
        [l[mu][s] / (2.0 * m) for s in range(3)] for mu in range(3)
    )
    (ra11, ra12, ra13), (ra21, ra22, ra23), (ra31, ra32, ra33) = (
        [a[s][mu] * 0.5 for s in range(3)] for mu in range(3)
    )
    # off-diagonal couplings (0.25 ky3) saa[mu][nu] and cll[mu][nu], nu != mu
    pairs = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
    saa12, saa13, saa21, saa23, saa31, saa32 = (
        sum(a[li][mu] * a[li][nu] for li in range(3)) for mu, nu in pairs
    )
    cll12, cll13, cll21, cll23, cll31, cll32 = (
        0.25 / m * sum(l[li][mu] * l[li][nu] for li in range(3)) for mu, nu in pairs
    )

    def rhs(c):
        q1, q2, q3, p1, p2, p3 = c
        x1 = q1 - 0.5 * sum((a11 * p1, a12 * p2, a13 * p3))
        x2 = q2 - 0.5 * sum((a21 * p1, a22 * p2, a23 * p3))
        x3 = q3 - 0.5 * sum((a31 * p1, a32 * p2, a33 * p3))
        y2 = x1**2 + x2**2 + x3**2
        if y2 <= 0.0:
            raise SingularConfigurationError("deformed radius Y vanished (q = alpha p / 2)")
        ky3 = k / math.sqrt(y2) ** 3
        k4 = 0.25 * ky3
        r11, r12, r13 = rl11 - ra11 * ky3, rl12 - ra12 * ky3, rl13 - ra13 * ky3
        r21, r22, r23 = rl21 - ra21 * ky3, rl22 - ra22 * ky3, rl23 - ra23 * ky3
        r31, r32, r33 = rl31 - ra31 * ky3, rl32 - ra32 * ky3, rl33 - ra33 * ky3
        dq1 = (inv_m + k4 * sa1) * p1 + sum((r11 * q1, r12 * q2, r13 * q3))
        dq1 += k4 * saa12 * p2
        dq1 += k4 * saa13 * p3
        dq2 = (inv_m + k4 * sa2) * p2 + sum((r21 * q1, r22 * q2, r23 * q3))
        dq2 += k4 * saa21 * p1
        dq2 += k4 * saa23 * p3
        dq3 = (inv_m + k4 * sa3) * p3 + sum((r31 * q1, r32 * q2, r33 * q3))
        dq3 += k4 * saa31 * p1
        dq3 += k4 * saa32 * p2
        dp1 = (ky3 + cl1) * q1 - sum((r11 * p1, r12 * p2, r13 * p3))
        dp1 += cll12 * q2
        dp1 += cll13 * q3
        dp2 = (ky3 + cl2) * q2 - sum((r21 * p1, r22 * p2, r23 * p3))
        dp2 += cll21 * q1
        dp2 += cll23 * q3
        dp3 = (ky3 + cl3) * q3 - sum((r31 * p1, r32 * p2, r33 * p3))
        dp3 += cll31 * q1
        dp3 += cll32 * q2
        return [dq1 / th1, dq2 / th2, dq3 / th3, -dp1 / th1, -dp2 / th2, -dp3 / th3]

    return rhs


@dataclass
class Trajectory:
    """Fixed-step trajectory with monitor values recorded at every state.

    Each state is a tuple of six finite floats in the chart of the run's
    initial point."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    monitor_names: list = field(default_factory=list)
    monitors: list = field(default_factory=list)  # one row per state
    termination_reason: str | None = None
    # largest per-step energy change over 1 + |E0|, the collision
    # detector's scale; the step that stopped a run counts
    max_energy_jump: float = 0.0

    @property
    def completed(self) -> bool:
        return self.termination_reason is None

    def monitor_series(self, name: str) -> list:
        idx = self.monitor_names.index(name)
        return [row[idx] for row in self.monitors]

    def drift(self, name: str) -> float:
        """Largest deviation of monitor ``name`` from its initial value
        ``ref``, relative to ``|ref|`` for ``H`` (1.0 when ``ref == 0``) and
        to ``max(|ref|, 1)`` for every other monitor."""
        series = self.monitor_series(name)
        ref = series[0]
        scale = (abs(ref) or 1.0) if name == "H" else max(abs(ref), 1.0)
        return max(abs(v - ref) for v in series) / scale

    def to_csv(self) -> str:
        """One header line, then one line per state: ``t``, the six
        coordinates and the monitor row, each as ``%.17g``."""
        names = ("t", "q1", "q2", "q3", "p1", "p2", "p3", *self.monitor_names)
        line = ",".join(["%.17g"] * len(names))
        lines = [",".join(names)]
        lines += [line % (t, *state, *row)
                  for t, state, row in zip(self.times, self.states, self.monitors)]
        return "\n".join(lines) + "\n"


# The steppers are unrolled over the six coordinates.  Each keeps the
# operations and their order of the per-coordinate loop form, so every state
# is bit-identical to it: ``h`` and ``w`` are the left-hand products
# ``0.5 * dt`` and ``dt / 6.0`` of that form.


def _rk4_step(rhs, c, dt):
    c1, c2, c3, c4, c5, c6 = c
    h = 0.5 * dt
    a1, a2, a3, a4, a5, a6 = rhs(c)
    b1, b2, b3, b4, b5, b6 = rhs((c1 + h * a1, c2 + h * a2, c3 + h * a3,
                                  c4 + h * a4, c5 + h * a5, c6 + h * a6))
    d1, d2, d3, d4, d5, d6 = rhs((c1 + h * b1, c2 + h * b2, c3 + h * b3,
                                  c4 + h * b4, c5 + h * b5, c6 + h * b6))
    e1, e2, e3, e4, e5, e6 = rhs((c1 + dt * d1, c2 + dt * d2, c3 + dt * d3,
                                  c4 + dt * d4, c5 + dt * d5, c6 + dt * d6))
    w = dt / 6.0
    return (
        c1 + w * (a1 + 2.0 * b1 + 2.0 * d1 + e1),
        c2 + w * (a2 + 2.0 * b2 + 2.0 * d2 + e2),
        c3 + w * (a3 + 2.0 * b3 + 2.0 * d3 + e3),
        c4 + w * (a4 + 2.0 * b4 + 2.0 * d4 + e4),
        c5 + w * (a5 + 2.0 * b5 + 2.0 * d5 + e5),
        c6 + w * (a6 + 2.0 * b6 + 2.0 * d6 + e6),
    )


def _implicit_midpoint_step(rhs, c, dt, residual_tol=1e-12, max_iter=50):
    """Fixed-point iteration on the midpoint stage until successive stages
    differ by less than ``residual_tol`` in every coordinate.

    ``max`` keeps its first argument when that is NaN and skips a later
    NaN: a NaN in the first stage coordinate fails the iteration, while one
    elsewhere can end the step in a non-finite state, which
    ``integrate_field`` reports."""
    c1, c2, c3, c4, c5, c6 = c
    h = 0.5 * dt
    s1, s2, s3, s4, s5, s6 = rhs(c)
    for _ in range(max_iter):
        n1, n2, n3, n4, n5, n6 = rhs((c1 + h * s1, c2 + h * s2, c3 + h * s3,
                                      c4 + h * s4, c5 + h * s5, c6 + h * s6))
        resid = max(abs(n1 - s1), abs(n2 - s2), abs(n3 - s3),
                    abs(n4 - s4), abs(n5 - s5), abs(n6 - s6))
        s1, s2, s3, s4, s5, s6 = n1, n2, n3, n4, n5, n6
        if resid < residual_tol:
            return (c1 + dt * s1, c2 + dt * s2, c3 + dt * s3,
                    c4 + dt * s4, c5 + dt * s5, c6 + dt * s6)
    raise StepFailureError(
        f"implicit midpoint stage iteration did not reach {residual_tol} in {max_iter} iterations"
    )


def integrate_field(
    x0: PhasePoint,
    rhs: Callable[[Sequence[float]], list],
    dt: float,
    n_steps: int,
    method: str = "rk4",
    *,
    observe: Callable[[Sequence[float]], tuple],
    monitor_names: Sequence[str] = (),
) -> Trajectory:
    """Fixed-step integration with singularity guards.

    ``rhs`` takes and returns six coordinates.  The trajectory's states are
    tuples of six floats in ``x0``'s chart; a spherical state with r <= 0 or
    theta outside (0, pi) raises :class:`ChartDomainError`.

    ``observe(coords)`` is the per-state hook, called once on every state:
    it returns ``(stop_reason, energy, monitor_row)``.  A stop reason other
    than None truncates the run before that state; the energy (None turns
    the check off) feeds the collision detector; the row is recorded under
    ``monitor_names``.

    Termination reasons: the hook's stop reason, a non-finite state, a
    singular configuration, implicit stage failure or float overflow raised
    by a step or the hook, or a per-step jump of the energy beyond 1e-2
    relative to ``1 + |E0|`` (the collision detector: near a singular
    configuration a fixed step cannot hold the energy, and the run is
    truncated rather than continued through garbage states).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    stepper = _rk4_step if method == "rk4" else _implicit_midpoint_step

    traj = Trajectory(monitor_names=list(monitor_names))
    times, states, monitors = traj.times, traj.states, traj.monitors
    chart = x0.chart
    bounded = chart is not Chart.CARTESIAN

    c = x0.coords
    _, e_prev, row = observe(c)
    times.append(0.0)
    states.append(c)
    monitors.append(row)
    e_scale = 1.0 + abs(e_prev) if e_prev is not None else None
    for step in range(1, n_steps + 1):
        try:
            c_new = stepper(rhs, c, dt)
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
            traj.max_energy_jump = max(traj.max_energy_jump, jump / e_scale)
            if not math.isfinite(e_new) or jump > 1e-2 * e_scale:
                reason = "singular configuration: energy step error exploded (collision)"
            e_prev = e_new
        if reason is not None:
            traj.termination_reason = reason
            return traj
        c = c_new
        if bounded:
            check_chart_domain(c, chart)
        times.append(step * dt)
        states.append(c)
        monitors.append(row)
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

    ``monitors`` are names from :data:`MONITOR_NAMES`.  Each state costs one
    :func:`state_observables` call, which feeds the radius guard, the energy
    detector and every monitor.  Aborts with a singularity reason when the
    deformed radius falls below 1e-9 of its initial value or a step loses
    energy accuracy (collision).
    """
    unknown = [name for name in monitors if name not in MONITOR_NAMES]
    if unknown:
        raise ValueError(f"unknown monitors {unknown}; choose from {MONITOR_NAMES}")
    columns = [1 + MONITOR_NAMES.index(name) for name in monitors]
    vectors = any(col > 1 for col in columns)
    floor = 1e-9 * math.sqrt(state_observables(x0.coords, params, False)[0])
    floor2 = floor * floor

    def observe(c):
        obs = state_observables(c, params, vectors)
        reason = None
        if obs[0] < floor2:
            reason = "singular configuration: deformed radius below 1e-9 of its initial value"
        return reason, obs[1], [obs[col] for col in columns]

    return integrate_field(
        x0,
        flow_rhs(params),
        dt,
        n_steps,
        method=method,
        observe=observe,
        monitor_names=monitors,
    )
