"""One benchmark command in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json``, with ``src`` on
``PYTHONPATH``.  The spec names the workload kind
(``verify`` or ``simulate``), the scenario JSON, the CLI arguments, whether
to trace and where to write the result.  The child times the set-up (import
``nckepler.cli`` and parse the scenario into its objects), and unless the
spec asks for set-up only, runs ``nckepler.cli.main`` on the arguments.
The result JSON holds each wall time, its reference time (``hostspeed.py``),
the exit code, the peak resident memory and, when traced, the per-layer
statistics.  Wall times are named ``*_wall_s`` and reference times ``*_s``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from hostspeed import HostSpeed, pin_to_one_cpu, speed_of


def _parse(cli, kind: str, doc: dict):
    """Build the objects the command works on, with the CLI's own code."""
    if kind == "verify":
        return cli.VerifyConfig.from_dict(doc)
    params = cli._deformation_from(doc["deformation"])
    return params, [cli._MONITOR_BUILDERS[name](params) for name in doc["monitors"]]


def _time_suites(suite_spans: dict):
    """Wrap each ``suites.SUITES`` entry to record its start and end."""
    from nckepler import suites

    def timed(name, fn):
        def run(cfg):
            t0 = time.perf_counter()
            try:
                return fn(cfg)
            finally:
                suite_spans[name] = (t0, time.perf_counter())

        return run

    for name, fn in list(suites.SUITES.items()):
        suites.SUITES[name] = timed(name, fn)


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    pin_to_one_cpu()
    host = HostSpeed()

    t0 = time.perf_counter()
    from nckepler import cli

    with open(spec["config"]) as fh:
        doc = json.load(fh)

    cli.build_parser().parse_args(spec["argv"])
    _parse(cli, spec["kind"], doc)
    spans = {"setup": (t0, time.perf_counter())}

    result = {}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from spans import Tracer, instrument

            tracer = Tracer()
            result["spans"] = instrument(tracer)
        suite_spans: dict = {}
        _time_suites(suite_spans)
        t1 = time.perf_counter()
        result["returncode"] = cli.main(spec["argv"])
        spans["command"] = (t1, time.perf_counter())
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spans |= {f"suite.{name}": span for name, span in suite_spans.items()}
        if tracer is not None:
            result["stats"] = tracer.stats
            result["counts"] = dict(tracer.counts)
    host.stop()

    for name, (start, end) in spans.items():
        result[f"{name}_wall_s"] = end - start
        result[f"{name}_s"] = (end - start) * speed_of(host.samples, start, end)
    result["host_speed"] = speed_of(host.samples, t0, time.perf_counter())

    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
