"""The fixed-step methods against their per-coordinate loop forms.

The references below are the loop forms of one RK4 step and of one implicit
midpoint step whose stage iteration starts from the explicit slope
``rhs(c)``.  ``_rk4_states`` must reproduce every coordinate of several
steps by ``float.hex``.  ``_implicit_midpoint_states`` must reproduce its
first step, which starts from ``rhs(c)`` too, and every stage failure by
its message; its later steps start from the quartic extrapolation of the
last five stages, so they agree with the explicit-start step from the same
state only within the bound derived in
``test_later_midpoint_steps_agree_with_the_explicit_start``.
"""

import itertools
import math

import pytest

from nckepler.deformation import DeformationParams
from nckepler.errors import NCKeplerError, StepFailureError
from nckepler.geometry import Chart, PhasePoint
from nckepler.kepler import _BLOCK, _implicit_midpoint_states, _rk4_states, flow_rhs, integrate_field
from nckepler.reduced import ReducedParams, spherical_rhs
from nckepler.sampling import sample_cartesian, sample_deformations, sample_spherical_bound


def rk4_reference(rhs, c, dt):
    k1 = rhs(c)
    k2 = rhs([c[i] + 0.5 * dt * k1[i] for i in range(6)])
    k3 = rhs([c[i] + 0.5 * dt * k2[i] for i in range(6)])
    k4 = rhs([c[i] + dt * k3[i] for i in range(6)])
    return [
        c[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(6)
    ]


def implicit_midpoint_reference(rhs, c, dt, residual_tol=1e-12, max_iter=50):
    s = rhs(c)
    for _ in range(max_iter):
        mid = [c[i] + 0.5 * dt * s[i] for i in range(6)]
        s_new = rhs(mid)
        resid = max(abs(s_new[i] - s[i]) for i in range(6))
        s = s_new
        if resid < residual_tol:
            return [c[i] + dt * s[i] for i in range(6)]
    raise StepFailureError(
        f"implicit midpoint stage iteration did not reach {residual_tol} in {max_iter} iterations"
    )


def rk4_reference_states(rhs, c, dt):
    while True:
        c = rk4_reference(rhs, c, dt)
        yield c


def implicit_midpoint_reference_states(rhs, c, dt):
    """The explicit-start step from ``c``: the first step only."""
    yield implicit_midpoint_reference(rhs, c, dt)


def outcome(states, rhs, c, dt, n=1):
    """The first ``n`` states a stepper reaches, as hex strings, then the
    error that ends them, if any."""
    got = []
    try:
        for state in itertools.islice(states(rhs, c, dt), n):
            got.append([float.hex(v) for v in state])
    except (NCKeplerError, OverflowError) as err:
        got.append(f"{type(err).__name__}: {err}")
    return got


DEFORMED = sample_deformations(1, seed=11)[0]
RP = ReducedParams(thetadot=0.008, phidot=0.35, m=1.0, k=1.0)

# (rhs, states): about 200 seeded states over the three integrated flows
FLOWS = {
    "commutative": (flow_rhs(DeformationParams()), sample_cartesian(70, seed=3)),
    "deformed": (flow_rhs(DEFORMED), sample_cartesian(70, seed=4, params=DEFORMED)),
    "spherical": (spherical_rhs(RP), sample_spherical_bound(60, seed=5, rp=RP)),
}
# (stepper, reference, steps compared)
PAIRS = [(_rk4_states, rk4_reference_states, 5),
         (_implicit_midpoint_states, implicit_midpoint_reference_states, 1)]


@pytest.mark.parametrize("flow", sorted(FLOWS))
@pytest.mark.parametrize("states, reference, n", PAIRS, ids=["rk4", "implicit-midpoint"])
def test_unrolled_step_is_bit_identical_to_loop_form(flow, states, reference, n):
    rhs, points = FLOWS[flow]
    for x in points:
        for dt in (1e-3, 0.05, 0.7):
            c = x.coords
            assert outcome(states, rhs, c, dt, n) == outcome(reference, rhs, list(c), dt, n)


# unit roundoff, and a count of the roundings in one coordinate of any of the
# three right-hand sides, each up to the largest |rhs| coordinate
U = 2.0**-53
KAPPA = 32


@pytest.mark.parametrize("flow", sorted(FLOWS))
def test_later_midpoint_steps_agree_with_the_explicit_start(flow):
    """Every step after the first lands within ``bound`` of the
    explicit-start step from the same state ``c``.

    Derivation, in the max norm and to first order in ``U``.  The stage is
    the fixed point ``s*`` of ``G(s) = rhs(c + h s)``, ``h = dt / 2``.
    Assume ``G`` contracts by ``L = h Lip(rhs) <= 1/2`` (``dt Lip(rhs) <=
    1``: the sampled radii are of order one), and that its float evaluation
    errs by at most ``delta``.  An iteration that stops at ``|s_K -
    s_{K-1}| < tol`` has ``|s_K - s*| <= (L tol + delta) / (1 - L) <= tol +
    2 delta``, from whatever start, so two such stages differ by at most ``2
    tol + 4 delta``.  ``delta`` is the midpoint's rounding ``U (|c| + 2
    step)`` carried by ``Lip(rhs) <= 1/dt``, plus ``KAPPA U |rhs|`` with
    ``dt |rhs| ~ step = |c_new - c|``.  The update ``c + dt s`` rounds
    once more in each run: ``U (|c| + 2 step)`` each.  Summed:
    ``2 dt tol + 6 U |c| + (4 KAPPA + 12) U step``.
    """
    rhs, points = FLOWS[flow]
    dt, tol = 1e-3, 1e-12
    for x in points[:12]:
        states = [x.coords, *itertools.islice(_implicit_midpoint_states(rhs, x.coords, dt), 24)]
        for c, got in zip(states[1:], states[2:]):
            want = implicit_midpoint_reference(rhs, list(c), dt)
            size = max(map(abs, c))
            step = max(abs(a - b) for a, b in zip(want, c))
            bound = 2.0 * dt * tol + 6.0 * U * size + (4 * KAPPA + 12) * U * step
            assert max(abs(a - b) for a, b in zip(got, want)) <= bound


def _with_nan(rhs, index):
    def poisoned(c):
        out = list(rhs(c))
        out[index] = math.nan
        return out

    return poisoned


def _decay(c):
    return [-v for v in c]


@pytest.mark.parametrize("base, index, expected", [
    (_decay, 0, "failure"),
    (_decay, 3, "non-finite"),
    (flow_rhs(DeformationParams()), 0, "failure"),
    (flow_rhs(DeformationParams()), 3, "failure"),
    (flow_rhs(DEFORMED), 3, "failure"),
], ids=["decay-0", "decay-3", "commutative-0", "commutative-3", "deformed-3"])
def test_implicit_midpoint_nan_stage_ends_as_the_loop_form(base, index, expected):
    """A NaN stage component fails the iteration when it leads the residual
    and is skipped by ``max`` otherwise, leaving a non-finite state."""
    rhs = _with_nan(base, index)
    c = (0.9, 0.1, -0.2, 0.05, 1.0, 0.1)
    [got] = outcome(_implicit_midpoint_states, rhs, c, 1e-3)
    assert [got] == outcome(implicit_midpoint_reference_states, rhs, list(c), 1e-3)
    if expected == "failure":
        assert got.startswith("StepFailureError: implicit midpoint stage iteration")
    else:
        assert got[index] == "nan"
        assert all(math.isfinite(float.fromhex(h)) for i, h in enumerate(got) if i != index)


class _Counted:
    """The commutative flow, counting its calls."""

    def __init__(self):
        self.calls = 0
        self.rhs = flow_rhs(DeformationParams())

    def __call__(self, c):
        self.calls += 1
        return self.rhs(c)


# a commutative bound orbit, run over two blocks
ORBIT = (1.0, 0.0, 0.0, 0.0, 1.05, 0.0)


def _calls_over_two_blocks():
    counted = _Counted()
    traj = integrate_field(PhasePoint(ORBIT, Chart.CARTESIAN), counted, 1e-3, 2 * _BLOCK,
                           "implicit_midpoint", observe=lambda c: (None, None, ()))
    assert traj.completed and len(traj.states) == 2 * _BLOCK + 1
    return counted.calls


def test_midpoint_rhs_calls_over_two_blocks():
    """A deterministic count: the quartic start needs 2064 rhs calls (1.008
    a step) over this commutative run of two blocks, where the quadratic
    start needed 4657 (2.27 a step) and the explicit start 10 240 (5.0 a
    step)."""
    assert _calls_over_two_blocks() <= 2064


def test_midpoint_takes_one_rhs_call_a_step_after_the_fifth():
    """Every step after the fifth ends at its first iterate, across the
    block boundary too.  A step makes at least one rhs call, so the total
    over the run exceeds the first five steps' calls by the number of later
    steps only if each of them makes exactly one.  A start of lower order
    needs a second iterate on some steps, and a history restarted at the
    block boundary needs several on the first steps after it."""
    counted = _Counted()
    for _ in itertools.islice(_implicit_midpoint_states(counted, ORBIT, 1e-3), 5):
        pass
    assert _calls_over_two_blocks() == counted.calls + 2 * _BLOCK - 5
