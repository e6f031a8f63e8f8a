"""Repeat the benchmark over several seeds and report its run-to-run spread.

Usage, from the root of the repository::

    python3 perfbench/repeat.py --seeds 10

Runs ``run.py`` once for each of the seeds ``0 .. seeds - 1`` and each
workload in ``BENCHMARK.json``, cycling through the workloads
round-robin so that slow and fast phases of the host hit every workload
alike.  For each workload and end-to-end metric it prints the median of the
per-run values, their quartiles, and the spread: the distance between the
quartiles as a share of the median, next to the bound in
``BENCHMARK.json``.  The timings of runs whose outputs were not correct are
included, since they did the same work.  Exits with 1 when a run printed no
result or was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in definition["workloads"]]

    values = {w: {} for w in workloads}
    ok = True
    for seed in range(args.seeds):
        for workload in workloads:
            cmd = definition["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(definition["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                ok = False
                print(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
                continue
            if not result["correct"]:
                ok = False
                problems = [line for line in lines if line.startswith("FAILED")]
                print(f"{workload} seed {seed}: NOT CORRECT: {'; '.join(problems)}")
            summary = ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {summary}", flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    print(f"{'workload':<20}{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for workload in workloads:
        for metric in definition["end_to_end"]:
            vals = values[workload].get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:<20}{metric['name']:<14}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{(q3 - q1) / median:>9.4f}{metric['bound']:>7}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
