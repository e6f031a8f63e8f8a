"""Command-line front end: simulate, verify, chart, hierarchy, master.

Exit codes: 0 on success (all checks passed / run completed inside its drift
budget), 1 on runtime failures (failed checks, truncated trajectories,
drift out of budget), 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .deformation import DeformationParams
from .errors import NCKeplerError
from .geometry import Chart, PhasePoint
from .charts import convert
from .kepler import MONITOR_NAMES, hamiltonian_field, integrate
from .reduced import ReducedParams
from .suites import SUITE_NAMES, SUITES, VerifyConfig
from .symmetry import angular_momentum_field, lrl_field

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _deformation_from(doc: dict) -> DeformationParams:
    return DeformationParams(
        alpha=doc.get("alpha", ((0.0,) * 3,) * 3),
        lam=doc.get("lambda", ((0.0,) * 3,) * 3),
        mass=doc.get("mass", 1.0),
        k=doc.get("k", 1.0),
    )


def _reduced_from(doc: dict) -> ReducedParams:
    return ReducedParams(
        thetadot=doc.get("thetadot", 0.0),
        phidot=doc.get("phidot", 0.0),
        m=doc.get("m", 1.0),
        k=doc.get("k", 1.0),
    )


# The scalar field each monitor name stands for.  ``integrate`` evaluates
# all of them from one primed vector per state; the tests hold the two to
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


def cmd_simulate(args) -> int:
    try:
        doc = _load_json(args.config)
        params = _deformation_from(doc.get("deformation", {}))
        state = doc["initial_state"]
        chart = Chart(state.get("chart", "cartesian"))
        if chart is not Chart.CARTESIAN:
            print("simulate requires a cartesian initial state", file=sys.stderr)
            return EXIT_CONFIG
        x0 = PhasePoint(tuple(state["coords"]), chart)
        integ = doc.get("integrator", {})
        method = integ.get("method", "rk4")
        dt = float(integ.get("dt", 1e-3))
        n_steps = int(integ.get("n_steps", 1000))
        monitor_names = doc.get("monitors", list(MONITOR_NAMES))
        unknown = [name for name in monitor_names if name not in _MONITOR_BUILDERS]
        if unknown:
            raise ValueError(f"unknown monitors {unknown}; choose from {list(_MONITOR_BUILDERS)}")
        drift_tol = float(doc.get("drift_tolerance", 1e-8))
        out_path = doc.get("output", {}).get("trajectory_csv", "trajectory.csv")
        if args.out:
            out_path = os.path.join(args.out, os.path.basename(out_path))
    except (KeyError, ValueError, OSError, json.JSONDecodeError, NCKeplerError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        traj = integrate(x0, params, dt=dt, n_steps=n_steps, method=method,
                         monitors=monitor_names)
    except NCKeplerError as err:
        print(f"integration failed: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    print(
        f"simulate: {len(traj.states) - 1}/{n_steps} steps; "
        f"stop: {traj.termination_reason or 'completed'}; "
        f"max energy jump {traj.max_energy_jump:.3e} (relative to 1 + |H0|)",
        file=sys.stderr,
    )
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(traj.to_csv())
    print(f"trajectory written to {out_path} ({len(traj.states)} states)")

    ok = traj.completed
    if not traj.completed:
        print(f"terminated early: {traj.termination_reason}")
    for name in monitor_names:
        series = traj.monitor_series(name)
        ref = series[0]
        scale = max(abs(ref), 1.0 if name != "H" else abs(ref) or 1.0)
        drift = max(abs(v - ref) for v in series) / scale
        flag = ""
        if name == "H" and drift > drift_tol:
            ok = False
            flag = "  (over budget)"
        print(f"monitor {name}: initial {ref:+.12e} max drift {drift:.3e}{flag}")
    return EXIT_OK if ok else EXIT_RUNTIME


def _build_config(args) -> VerifyConfig:
    cfg = VerifyConfig()
    if getattr(args, "config", None):
        cfg = VerifyConfig.from_dict(_load_json(args.config))
    overrides = {}
    for attr, key in (
        ("seed", "seed"),
        ("samples", "samples"),
        ("h_max", "h_max"),
        ("i_max", "i_max"),
        ("l_max", "l_max"),
    ):
        v = getattr(args, key, None)
        if v is not None:
            overrides[attr] = v
    if getattr(args, "negative_control", False):
        overrides["negative_control"] = True
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _run_suite(name: str, cfg: VerifyConfig):
    """The suite's report, or None after a message when the configuration
    admits no run (for example, a sampler finds no valid point)."""
    try:
        return SUITES[name](cfg)
    except NCKeplerError as err:
        print(f"configuration error: suite {name}: {err}", file=sys.stderr)
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
    except (ValueError, OSError, json.JSONDecodeError, NCKeplerError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    all_ok = True
    for name in names:
        rep = _run_suite(name, cfg)
        if rep is None:
            return EXIT_CONFIG
        path = os.path.join(out_dir, f"{name}.json")
        rep.save(path)
        status = "pass" if rep.all_passed else "FAIL"
        print(f"suite {name}: {status} ({rep.passed}/{rep.total}) -> {path}")
        all_ok = all_ok and rep.all_passed
    return EXIT_OK if all_ok else EXIT_RUNTIME


def cmd_chart(args) -> int:
    try:
        doc = _load_json(args.state)
        x = PhasePoint(tuple(doc["coords"]), Chart(doc["chart"]))
        target = Chart(args.to)
        rp = None
        if args.params:
            pdoc = _load_json(args.params)
            rp = _reduced_from(pdoc.get("reduced", pdoc))
    except (KeyError, ValueError, OSError, json.JSONDecodeError, NCKeplerError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.source and Chart(args.source) is not x.chart:
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
    print(json.dumps({"coords": list(out.coords), "chart": out.chart.value}, sort_keys=True))
    return EXIT_OK


def cmd_hierarchy(args) -> int:
    try:
        cfg = _build_config(args)
    except (ValueError, OSError, json.JSONDecodeError, NCKeplerError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    rep = _run_suite("hierarchy", cfg)
    if rep is None:
        return EXIT_CONFIG
    payload = json.dumps([e.to_dict() for e in rep.entries], sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"hierarchy report -> {args.out} ({rep.passed}/{rep.total} passed)")
    else:
        print(payload)
    return EXIT_OK if rep.all_passed else EXIT_RUNTIME


def cmd_master(args) -> int:
    try:
        cfg = _build_config(args)
    except (ValueError, OSError, json.JSONDecodeError, NCKeplerError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    rep = _run_suite("master", cfg)
    if rep is None:
        return EXIT_CONFIG
    payload = json.dumps(rep.to_dict(), sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"master report -> {args.out} ({rep.passed}/{rep.total} passed)")
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
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("master", help="emit the master-symmetry ledger report")
    p.add_argument("--config", help="scenario JSON")
    p.add_argument("--i-max", dest="i_max", type=int)
    p.add_argument("--h-max", dest="h_max", type=int)
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=cmd_master)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
