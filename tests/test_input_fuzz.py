"""Random input documents never escape the errors the CLI turns into exit codes.

The config parsers may raise only ``ValueError`` or an ``NCKeplerError``,
which the CLI reports as ``configuration error:`` with exit code 2.  The
``simulate`` and ``chart`` commands, run in-process on random documents,
end with exit code 0, 1 or 2 and raise nothing.  Numbers are drawn up to
1e300 in magnitude, where squaring a coordinate leaves the float range; a
fixed-seed sweep of ``chart`` draws them from every binade of the floats.
"""

import contextlib
import io
import json
import math

import numpy as np

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nckepler.cli import SimulateConfig, main
from nckepler.errors import NCKeplerError
from nckepler.geometry import Chart, PhasePoint
from nckepler.kepler import METHODS, MONITOR_NAMES
from nckepler.suites import VerifyConfig

CHART_NAMES = [c.value for c in Chart]

finite = st.floats(min_value=-1e300, max_value=1e300)
numbers = finite | st.integers(-1000, 1000) | st.sampled_from(
    [1e200, -1e200, 1e-300, float("nan"), float("inf"), -float("inf"), 10**400, True, None, "1"]
)
json_values = st.recursive(
    st.none() | st.booleans() | finite | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def antisymmetric(draw):
    a, b, c = draw(st.lists(finite, min_size=3, max_size=3))
    return [[0.0, a, b], [-a, 0.0, c], [-b, -c, 0.0]]


matrices = antisymmetric() | st.lists(st.lists(numbers, min_size=3, max_size=3),
                                      min_size=3, max_size=3) | json_values
deformations = st.fixed_dictionaries(
    {}, optional={"alpha": matrices, "lambda": matrices, "mass": numbers, "k": numbers}
) | json_values
reduced = st.fixed_dictionaries(
    {}, optional={"thetadot": numbers, "phidot": numbers, "m": numbers, "k": numbers}
) | json_values
coords = st.lists(numbers, min_size=6, max_size=6) | st.lists(finite, min_size=6, max_size=6) \
    | json_values
states = st.fixed_dictionaries(
    {"coords": coords}, optional={"chart": st.sampled_from(CHART_NAMES) | json_values}
) | json_values


def integrators(n_steps):
    return st.fixed_dictionaries(
        {"n_steps": n_steps},
        optional={"method": st.sampled_from(METHODS + ("euler",)), "dt": numbers},
    )


def scenarios(n_steps):
    return st.fixed_dictionaries(
        {"initial_state": states, "integrator": integrators(n_steps)},
        optional={
            "deformation": deformations,
            "monitors": st.lists(st.sampled_from(MONITOR_NAMES + ("X1",)), max_size=3) | json_values,
            "drift_tolerance": numbers,
        },
    )


verify_docs = st.fixed_dictionaries(
    {},
    optional={
        "deformation": deformations,
        "reduced": reduced,
        "verification": st.fixed_dictionaries(
            {},
            optional={"samples": numbers, "seed": numbers, "h_max": numbers,
                      "tolerances": st.dictionaries(st.sampled_from(["bracket", "drift", "exact"]),
                                                    numbers)},
        ) | json_values,
    },
) | json_values


def _parses_or_rejects(parse, doc):
    try:
        parse(doc)
    except (ValueError, NCKeplerError):
        pass


@settings(deadline=None, max_examples=150)
@given(doc=verify_docs)
@example(doc={"reduced": {"phidot": 1e200}})
def test_verify_config_raises_only_config_errors(doc):
    _parses_or_rejects(VerifyConfig.from_dict, doc)


@settings(deadline=None, max_examples=150)
@given(doc=scenarios(st.integers(-5, 10**6) | numbers) | json_values)
def test_simulate_config_raises_only_config_errors(doc):
    _parses_or_rejects(SimulateConfig.from_dict, doc)


@settings(deadline=None, max_examples=150)
@given(doc=states)
def test_state_document_raises_only_config_errors(doc):
    _parses_or_rejects(PhasePoint.from_dict, doc)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(deadline=None, max_examples=60)
@given(doc=scenarios(st.integers(0, 20)))
@example(doc={"initial_state": {"coords": [1, 0, 0, 0, 1, 0]}, "deformation": {"mass": 1e-300},
              "integrator": {"n_steps": 3}})
@example(doc={"initial_state": {"coords": [1e200, 0, 0, 0, 1, 0]}, "integrator": {"n_steps": 3}})
@example(doc={"initial_state": {"coords": [0.0, 0.0, 1.6443510429624732e-109, 0.0, 0.0, 0.0]},
              "integrator": {"n_steps": 1}})
@example(doc={"initial_state": {"coords": [0.0, 0.0, 1.6443510429624732e-109, 0.0, 0.0, 0.0]},
              "deformation": {"alpha": [[0, 0.04, 0], [-0.04, 0, 0], [0, 0, 0]]},
              "integrator": {"n_steps": 1}})
def test_simulate_in_process_exits_cleanly(doc, tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz-simulate")
    config = work / "scenario.json"
    config.write_text(json.dumps(doc))
    assert _run(["simulate", "--config", str(config), "--out", str(work)]) in (0, 1, 2)


@settings(deadline=None, max_examples=100)
@given(state=states, target=st.sampled_from(CHART_NAMES + ["polar"]),
       params=st.none() | st.fixed_dictionaries({"reduced": reduced}))
@example(state={"coords": [1.0, 1.2, 0.3, 1e200, 0.1, 0.2], "chart": "spherical"},
         target="action_angle", params=None)
@example(state={"coords": [0.5, 5e-324, 0.0, 0.0, 0.0, 0.0], "chart": "spherical"},
         target="cartesian", params=None)
# r**2, r**2 sin(theta)**2 underflowing to 0, and 2 phi overflowing
@example(state={"coords": [7.9e-300, 1.0, 0.5, 0.1, 0.2, 0.3], "chart": "spherical"},
         target="action_angle", params=None)
@example(state={"coords": [1.0, 7.9e-300, 0.5, 0.1, 0.2, 0.3], "chart": "spherical"},
         target="action_angle", params=None)
@example(state={"coords": [1.0, 1.0, 1e308, 0.1, 0.2, 0.3], "chart": "spherical"},
         target="action_angle", params=None)
def test_chart_in_process_exits_cleanly(state, target, params, tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz-chart")
    argv = ["chart", "--state", str(work / "state.json"), "--to", target]
    (work / "state.json").write_text(json.dumps(state))
    if params is not None:
        (work / "params.json").write_text(json.dumps(params))
        argv += ["--params", str(work / "params.json")]
    assert _run(argv) in (0, 1, 2)


def _binade_number(rng, top=1023):
    """A float of magnitude in a uniformly drawn binade from 2^-1074
    (5e-324) to 2^top (1.7e308 for the default)."""
    return math.ldexp(float(rng.uniform(1.0, 2.0)), int(rng.integers(-1074, top + 1)))


def test_chart_binade_sweep_exits_cleanly(tmp_path):
    """1 000 fixed-seed cartesian and spherical states, each coordinate from
    a random binade and sign, through ``chart`` to each target chart in turn:
    every run converts (exit 0) or rejects the state (exit 2), and none
    raises.  A spherical state keeps r > 0 and draws theta below 4, so that
    about half of them reach the conversion."""
    rng = np.random.default_rng(2022)
    path = tmp_path / "state.json"
    for i in range(1000):
        source = ("cartesian", "spherical")[i // 4 % 2]
        coords = [_binade_number(rng) * rng.choice((-1.0, 1.0)) for _ in range(6)]
        if source == "spherical":
            coords[0], coords[1] = abs(coords[0]), _binade_number(rng, top=1)
        path.write_text(json.dumps({"coords": coords, "chart": source}))
        target = CHART_NAMES[i % 4]
        assert _run(["chart", "--state", str(path), "--to", target]) in (0, 2), (coords, source, target)
