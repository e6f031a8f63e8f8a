"""The unrolled fixed-step methods are bit-identical to their loop forms.

The references below are the per-coordinate loop forms of ``_rk4_step`` and
``_implicit_midpoint_step``; the unrolled steppers must reproduce every
coordinate by ``float.hex`` and every stage failure by its message.
"""

import math

import pytest

from nckepler.deformation import DeformationParams
from nckepler.errors import NCKeplerError, StepFailureError
from nckepler.kepler import _implicit_midpoint_step, _rk4_step, flow_rhs
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


def outcome(step, rhs, c, dt):
    """The state a step reaches, as hex strings, or the error that ends it."""
    try:
        return [float.hex(v) for v in step(rhs, c, dt)]
    except (NCKeplerError, OverflowError) as err:
        return f"{type(err).__name__}: {err}"


DEFORMED = sample_deformations(1, seed=11)[0]
RP = ReducedParams(thetadot=0.008, phidot=0.35, m=1.0, k=1.0)

# (rhs, states): about 200 seeded states over the three integrated flows
FLOWS = {
    "commutative": (flow_rhs(DeformationParams()), sample_cartesian(70, seed=3)),
    "deformed": (flow_rhs(DEFORMED), sample_cartesian(70, seed=4, params=DEFORMED)),
    "spherical": (spherical_rhs(RP), sample_spherical_bound(60, seed=5, rp=RP)),
}
PAIRS = [(_rk4_step, rk4_reference), (_implicit_midpoint_step, implicit_midpoint_reference)]


@pytest.mark.parametrize("flow", sorted(FLOWS))
@pytest.mark.parametrize("step, reference", PAIRS, ids=["rk4", "implicit-midpoint"])
def test_unrolled_step_is_bit_identical_to_loop_form(flow, step, reference):
    rhs, states = FLOWS[flow]
    for x in states:
        for dt in (1e-3, 0.05, 0.7):
            c = x.coords
            assert outcome(step, rhs, c, dt) == outcome(reference, rhs, list(c), dt)


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
    got = outcome(_implicit_midpoint_step, rhs, c, 1e-3)
    assert got == outcome(implicit_midpoint_reference, rhs, list(c), 1e-3)
    if expected == "failure":
        assert got.startswith("StepFailureError: implicit midpoint stage iteration")
    else:
        assert got[index] == "nan"
        assert all(math.isfinite(float.fromhex(h)) for i, h in enumerate(got) if i != index)
