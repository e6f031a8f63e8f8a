"""Benchmark of the nckepler command line: the acceptance battery and
``simulate`` throughput, with per-layer counts from a traced run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``README.md``): ``verify-full``,
``simulate-deformed`` and ``simulate-kepler``.  Each command runs in a
fresh interpreter (``child.py``) through ``nckepler.cli.main``, with BLAS
and OpenMP pinned to one thread, and its outputs are checked.

With ``--trace 0`` the run first times the set-up in ``SETUP_RUNS`` fresh
interpreters, then repeats the workload's command while the next one is
expected to end within ``--seconds``, and reports medians.  Times are
reference times: wall time scaled by the host speed sampled while it was
measured (``hostspeed.py``); the wall times are printed beside them.  With
``--trace 1`` it runs the command once untraced and once traced and reports
the per-layer metrics.  The metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every output check passed, 1 when one failed and 2 when the program or the
benchmark definition is missing.  Each run's details (host context, every
command, output digests) go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import calibration_loop
from workloads import EXPECTED_IDENTITIES, WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
DEADLINE_S = 170.0  # every child is killed before the run reaches this age
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CALIBRATION_WINDOW_S = 0.25


def calibration_s() -> float:
    """Median calibration-loop time over a short window: the host's speed now."""
    samples = [calibration_loop()]
    end = time.perf_counter() + CALIBRATION_WINDOW_S
    while time.perf_counter() < end:
        samples.append(calibration_loop())
    return statistics.median(samples)


def host_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg": os.getloadavg(),
        "calibration_s": calibration_s(),
    }


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Run:
    """One benchmark run: a work directory and the children it starts."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.started = time.perf_counter()
        self.work = ROOT / ".perfbench" / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.doc = workload.inputs(seed)
        self.config = self.work / "scenario.json"
        self.config.write_text(json.dumps(self.doc, sort_keys=True, indent=1) + "\n")
        self.children = 0

    def child(self, trace: bool = False, setup_only: bool = False):
        """Run one child; return its result and the output check, or
        ``None`` as result when it timed out or crashed."""
        self.children += 1
        name = f"c{self.children}"
        out_dir = self.work / name
        spec = {
            "kind": self.workload.kind,
            "config": str(self.config),
            "argv": self.workload.argv(self.config, out_dir),
            "trace": trace,
            "setup_only": setup_only,
            "result": str(self.work / f"{name}.result.json"),
        }
        spec_path = self.work / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)
        timeout = DEADLINE_S - (time.perf_counter() - self.started)
        t0 = time.perf_counter()
        try:
            with open(self.work / f"{name}.log", "w") as log:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), str(spec_path)],
                    cwd=self.work, env=env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(timeout, 1.0),
                )
            crashed = proc.returncode != 0
        except subprocess.TimeoutExpired:
            crashed = True
        wall_s = time.perf_counter() - t0
        result = None if crashed else json.loads(Path(spec["result"]).read_text())
        if setup_only:
            return result, None
        if result is None:
            ops = self.workload.ops
            log_tail = (self.work / f"{name}.log").read_text()[-400:]
            return None, Outcome(ops, ops, (f"timed out or crashed: {log_tail}",), {})
        outcome = self.workload.check(self.doc, out_dir, result["returncode"])
        result["child_wall_s"] = wall_s
        result["completed_ops"] = outcome.attempted - outcome.failed
        return result, outcome

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def measure(run: Run, seconds: int, trace: bool):
    """Return the results of every child that timed its set-up, the
    untraced and traced command results, and the output check of every
    command."""
    setups = []
    for _ in range(SETUP_RUNS):
        result, _ = run.child(setup_only=True)
        if result is not None:
            setups.append(result)
    untraced, traced, outcomes = [], [], []
    loop_start = time.perf_counter()
    for with_trace in [False, True] if trace else itertools.repeat(False):
        result, outcome = run.child(trace=with_trace)
        outcomes.append(outcome)
        if result is None:
            break
        (traced if with_trace else untraced).append(result)
        setups.append(result)
        if not trace:
            spent = time.perf_counter() - loop_start
            if spent + statistics.median(r["child_wall_s"] for r in untraced) > seconds:
                break
    return setups, untraced, traced, outcomes


def samples(workload, setups: list, untraced: list) -> dict:
    """Per-command values of every end-to-end metric, and of the figures
    printed beside them, by name."""
    out = {
        "setup_s": [r["setup_s"] for r in setups],
        "command_s": [r["command_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in untraced],
        "setup_wall_s": [r["setup_wall_s"] for r in setups],
        "command_wall_s": [r["command_wall_s"] for r in untraced],
        "host_speed": [r["host_speed"] for r in untraced],
    }
    if workload.kind == "verify":
        out["verify_s"] = out["command_s"]
        for suite in EXPECTED_IDENTITIES:
            out[f"suite.{suite}_s"] = [r[f"suite.{suite}_s"] for r in untraced]
    else:
        out["steps_per_s"] = [r["completed_ops"] / r["command_s"] for r in untraced]
    return out


def layer_metric(name: str, untraced: dict, traced: dict) -> float:
    """One per-layer metric from an untraced and a traced command."""
    counts, stats = traced["counts"], traced["stats"]
    if name == "trace.overhead":
        return traced["command_s"] / untraced["command_s"]
    if name == "duals.dual_ops":
        return counts.get(name, 0)
    if name == "kepler.rhs_per_step":
        steps = counts.get("kepler.steps", 0)
        return stats.get("kepler.rhs", {}).get("calls", 0) / steps if steps else 0.0
    if name.startswith("suite.") and name.endswith("_s"):
        suite = name[len("suite."):-len("_s")]
        if suite in EXPECTED_IDENTITIES:
            return untraced.get(name, 0.0)
    span, field = name.rsplit(".", 1)
    if span not in traced["spans"] or field not in ("calls", "self_s", "total_s"):
        raise ValueError(f"no rule gives the per-layer metric {name!r}")
    return stats.get(span, {}).get(field, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    definition_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nckepler" / "cli.py").is_file() or not definition_path.is_file():
        print(f"perfbench: {ROOT} holds no src/nckepler or no BENCHMARK.json", file=sys.stderr)
        return 2
    definition = json.loads(definition_path.read_text())
    workload = WORKLOADS[args.workload]

    host = host_context()
    run = Run(workload, args.seed)
    try:
        setups, untraced, traced, outcomes = measure(run, args.seconds, bool(args.trace))
    finally:
        run.close()
    host_after = host_context()

    problems = [p for o in outcomes for p in o.problems]
    if len({json.dumps(o.digests, sort_keys=True) for o in outcomes}) > 1:
        problems.append("output bytes differ between commands of one run")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced commands, "
          f"{len(setups)} set-ups")
    print(f"host: nproc {host['nproc']}, python {host['python']}, numpy {host['numpy']}, "
          f"loadavg {host['loadavg'][0]:.2f}, calibration loop "
          f"{host['calibration_s'] * 1e3:.4f} ms before and "
          f"{host_after['calibration_s'] * 1e3:.4f} ms after")
    for fname, digest in sorted(outcomes[0].digests.items()):
        print(f"sha256 {fname} {digest}")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in problems:
        print(f"FAILED: {problem}")

    metrics = {}
    if args.trace:
        if untraced and traced:
            for m in definition["per_layer"]:
                value = layer_metric(m["name"], untraced[0], traced[0])
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"{m['name']}: {value:.6g} {m['unit']}")
    elif untraced:
        values = samples(workload, setups, untraced)
        units = {m["name"]: m["unit"] for m in definition["end_to_end"]}
        units |= {name: "s" for name in values if name.endswith("_s")}
        units |= {"steps_per_s": "1/s", "host_speed": "ratio"}
        for name, vals in values.items():
            q1, median, q3 = quartiles(vals)
            print(f"{name}: median {median:.6g} {units[name]} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)})")
        for m in definition["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}

    correct = not problems and failed == 0 and bool(metrics)
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({
            "args": vars(args), "host_before": host, "host_after": host_after,
            "scenario": run.doc, "setups": setups, "untraced": untraced, "traced": traced,
            "outcomes": [o.__dict__ for o in outcomes], "metrics": metrics,
        }, indent=1) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
