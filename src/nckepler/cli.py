"""Command-line front end: simulate, verify, chart, hierarchy, master.

Exit codes: 0 on success (all checks passed / run completed inside its drift
budget), 1 on runtime failures (failed checks, truncated trajectories,
drift out of budget), 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass, replace

from .deformation import DeformationParams
from .errors import NCKeplerError, config_int, config_number, config_object
from .geometry import Chart, PhasePoint
from .charts import convert
from .kepler import METHODS, MONITOR_NAMES, hamiltonian_field, integrate
from .reduced import ReducedParams
from .suites import SUITE_NAMES, SUITES, VerifyConfig
from .symmetry import angular_momentum_field, lrl_field

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _cannot_write(what: str, err: OSError) -> int:
    print(f"configuration error: cannot write {what}: {err}", file=sys.stderr)
    return EXIT_CONFIG


# Kept under this name because the benchmark harness parses scenarios with it.
_deformation_from = DeformationParams.from_dict


# The scalar field each monitor name stands for.  ``integrate`` evaluates
# all of them from one primed vector per block of states, through the same
# scalar-generic evaluators over arrays; the tests hold the two to
# bit-identical values.
_MONITOR_BUILDERS = {
    "H": lambda p: hamiltonian_field(p),
    "L1": lambda p: angular_momentum_field(p, 0),
    "L2": lambda p: angular_momentum_field(p, 1),
    "L3": lambda p: angular_momentum_field(p, 2),
    "A1": lambda p: lrl_field(p, 0),
    "A2": lambda p: lrl_field(p, 1),
    "A3": lambda p: lrl_field(p, 2),
}


@dataclass(frozen=True)
class SimulateConfig:
    """A ``simulate`` scenario document, parsed."""

    params: DeformationParams
    x0: PhasePoint
    method: str
    dt: float
    n_steps: int
    monitors: list
    drift_tolerance: float
    trajectory_csv: str

    @classmethod
    def from_dict(cls, doc) -> "SimulateConfig":
        """Parse a scenario; absent keys other than ``initial_state`` keep
        the defaults.  A malformed value is a ``ValueError`` or an
        :class:`NCKeplerError` whose message names it."""
        state = config_object(config_object(doc, "config").get("initial_state"), "initial_state")
        x0 = PhasePoint.from_dict({"chart": "cartesian", **state})
        if x0.chart is not Chart.CARTESIAN:
            raise ValueError("simulate requires a cartesian initial state")
        integ = config_object(doc.get("integrator", {}), "integrator")
        method = integ.get("method", "rk4")
        if method not in METHODS:
            raise ValueError(f"integrator method must be one of {list(METHODS)}, got {method!r}")
        dt = float(config_number(integ, "dt", 1e-3, "integrator"))
        if dt <= 0.0:
            raise ValueError(f"integrator dt must be positive, got {dt!r}")
        n_steps = config_int(integ, "n_steps", 1000, "integrator")
        if n_steps < 0:
            raise ValueError(f"integrator n_steps must be non-negative, got {n_steps!r}")
        monitors = doc.get("monitors", list(MONITOR_NAMES))
        if not isinstance(monitors, list) or any(name not in MONITOR_NAMES for name in monitors):
            raise ValueError(f"monitors must be a list drawn from {list(MONITOR_NAMES)}, "
                             f"got {monitors!r}")
        drift_tolerance = float(config_number(doc, "drift_tolerance", 1e-8, "config"))
        if drift_tolerance <= 0.0:
            raise ValueError(f"config drift_tolerance must be positive, got {drift_tolerance!r}")
        output = config_object(doc.get("output", {}), "output")
        csv_path = output.get("trajectory_csv", "trajectory.csv")
        if not isinstance(csv_path, str) or not csv_path:
            raise ValueError(f"output trajectory_csv must be a file name, got {csv_path!r}")
        return cls(
            params=DeformationParams.from_dict(doc.get("deformation", {})),
            x0=x0,
            method=method,
            dt=dt,
            n_steps=n_steps,
            monitors=monitors,
            drift_tolerance=drift_tolerance,
            trajectory_csv=csv_path,
        )


def cmd_simulate(args) -> int:
    try:
        cfg = SimulateConfig.from_dict(_load_json(args.config))
    except (ValueError, OSError, NCKeplerError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    out_path = cfg.trajectory_csv
    if args.out:
        out_path = os.path.join(args.out, os.path.basename(out_path))

    try:
        traj = integrate(cfg.x0, cfg.params, dt=cfg.dt, n_steps=cfg.n_steps, method=cfg.method,
                         monitors=cfg.monitors)
    except NCKeplerError as err:
        print(f"integration failed: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except OverflowError:
        print("integration failed: the initial state or the deformation leaves the float range",
              file=sys.stderr)
        return EXIT_RUNTIME
    print(
        f"simulate: {len(traj.states) - 1}/{cfg.n_steps} steps; "
        f"stop: {traj.termination_reason or 'completed'}; "
        f"max energy jump {traj.max_energy_jump:.3e} (relative to 1 + |H0|)",
        file=sys.stderr,
    )
    try:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w") as fh:
            traj.to_csv(fh)
    except OSError as err:
        return _cannot_write("the trajectory", err)
    print(f"trajectory written to {out_path} ({len(traj.states)} states)")

    ok = traj.completed
    if not traj.completed:
        print(f"terminated early: {traj.termination_reason}")
    for name in cfg.monitors:
        drift = traj.drift(name)
        flag = ""
        if name == "H" and drift > cfg.drift_tolerance:
            ok = False
            flag = "  (over budget)"
        print(f"monitor {name}: initial {traj.monitor_series(name)[0]:+.12e} "
              f"max drift {drift:.3e}{flag}")
    return EXIT_OK if ok else EXIT_RUNTIME


def _build_config(args) -> VerifyConfig:
    """The ``--config`` document's settings, overridden by the flags given."""
    cfg = VerifyConfig.from_dict(_load_json(args.config)) if args.config else VerifyConfig()
    flags = {key: getattr(args, key, None)
             for key in ("seed", "samples", "h_max", "i_max", "l_max")}
    if getattr(args, "negative_control", False):
        flags["negative_control"] = True
    return replace(cfg, **{key: v for key, v in flags.items() if v is not None})


def _run_suite(name: str, cfg: VerifyConfig):
    """The suite's report, or None after a message when the configuration
    admits no run (for example, a sampler finds no valid point, or the
    parameters drive a value out of the float range)."""
    try:
        return SUITES[name](cfg)
    except NCKeplerError as err:
        print(f"configuration error: suite {name}: {err}", file=sys.stderr)
    except ArithmeticError as err:
        print(f"configuration error: suite {name}: arithmetic failure at these parameters "
              f"({type(err).__name__}: {err})", file=sys.stderr)
    return None


def cmd_verify(args) -> int:
    if args.suites is not None and len(args.suites) == 0:
        print("nothing to verify: empty suite list", file=sys.stderr)
        return EXIT_CONFIG
    names = args.suites if args.suites else list(SUITE_NAMES)
    bad = [n for n in names if n not in SUITE_NAMES]
    if bad:
        print(f"unknown suites: {', '.join(bad)}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = _build_config(args)
    except (ValueError, OSError, NCKeplerError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        return _cannot_write(f"the report directory {out_dir}", err)
    all_ok = True
    for name in names:
        rep = _run_suite(name, cfg)
        if rep is None:
            return EXIT_CONFIG
        path = os.path.join(out_dir, f"{name}.json")
        try:
            rep.save(path)
        except OSError as err:
            return _cannot_write(f"the report {path}", err)
        status = "pass" if rep.all_passed else "FAIL"
        print(f"suite {name}: {status} ({rep.passed}/{rep.total}) -> {path}")
        all_ok = all_ok and rep.all_passed
    return EXIT_OK if all_ok else EXIT_RUNTIME


def cmd_chart(args) -> int:
    try:
        x = PhasePoint.from_dict(_load_json(args.state))
        source = Chart(args.source) if args.source else x.chart
        target = Chart(args.to)
        rp = None
        if args.params:
            pdoc = config_object(_load_json(args.params), "params")
            rp = ReducedParams.from_dict(pdoc.get("reduced", pdoc))
    except (ValueError, OSError, NCKeplerError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if source is not x.chart:
        print(
            f"state file declares chart {x.chart.value}, not {args.source}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    try:
        out = convert(x, target, rp)
    except NCKeplerError as err:
        print(f"conversion failed: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError:
        print("conversion failed: the state leaves the float range", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps({"coords": list(out.coords), "chart": out.chart.value}, sort_keys=True))
    return EXIT_OK


def cmd_report(args) -> int:
    """``hierarchy`` writes its suite's entry list, ``master`` its full report."""
    try:
        cfg = _build_config(args)
    except (ValueError, OSError, NCKeplerError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    created = False
    if args.out:  # fail before the run, not after it
        created = not os.path.lexists(args.out)
        try:
            with open(args.out, "a"):
                pass
        except OSError as err:
            return _cannot_write(f"the report {args.out}", err)
    rep = _run_suite(args.command, cfg)
    if rep is None:
        if created:  # take back the empty file the probe made
            with contextlib.suppress(OSError):
                os.remove(args.out)
        return EXIT_CONFIG
    doc = [e.to_dict() for e in rep.entries] if args.command == "hierarchy" else rep.to_dict()
    payload = json.dumps(doc, sort_keys=True, indent=1)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as err:
            return _cannot_write(f"the report {args.out}", err)
        print(f"{args.command} report -> {args.out} ({rep.passed}/{rep.total} passed)")
    else:
        print(payload)
    return EXIT_OK if rep.all_passed else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nckepler",
        description="Deformed Kepler dynamics: simulation and verification battery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a configured trajectory")
    p.add_argument("--config", required=True, help="scenario JSON")
    p.add_argument("--out", help="output directory override")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--config", help="scenario JSON")
    p.add_argument("--suites", nargs="*", help=f"subset of {', '.join(SUITE_NAMES)}")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--h-max", dest="h_max", type=int)
    p.add_argument("--i-max", dest="i_max", type=int)
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--out", help="report output directory")
    p.add_argument("--negative-control", action="store_true",
                   help="corrupt the first-level bivector; the hierarchy suite must fail")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chart", help="convert a state between charts")
    p.add_argument("--state", required=True, help="state JSON with coords and chart")
    p.add_argument("--from", dest="source", help="declared source chart (checked)")
    p.add_argument("--to", required=True, help="target chart")
    p.add_argument("--params", help="parameter JSON (reduced rates, mass, coupling)")
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("hierarchy", help="emit the hierarchy report array")
    p.add_argument("--config", help="scenario JSON")
    p.add_argument("--h-max", dest="h_max", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("master", help="emit the master-symmetry ledger report")
    p.add_argument("--config", help="scenario JSON")
    p.add_argument("--i-max", dest="i_max", type=int)
    p.add_argument("--h-max", dest="h_max", type=int)
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
