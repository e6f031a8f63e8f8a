"""Every per-layer metric that ``BENCHMARK.json`` names has a rule that
gives it.

``perfbench/run.py --trace 1`` stops with ``no rule gives the per-layer
metric`` when a traced function named there is renamed or deleted.  This
test finds that without running the benchmark: it instruments the package
in a fresh interpreter, because instrumenting wraps every public function
of the process, and asks ``run.layer_metric`` for each name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import nckepler

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SRC = Path(nckepler.__file__).resolve().parents[1]

PROBE = """
import json, sys
import nckepler.cli
import run
from spans import Tracer, instrument

spans = instrument(Tracer())
traced = {"spans": spans, "counts": {}, "stats": {}, "command_s": 1.0}
unanswered = []
for metric in json.load(open(sys.argv[1]))["per_layer"]:
    try:
        run.layer_metric(metric["name"], {"command_s": 1.0}, traced)
    except ValueError as err:
        unanswered.append(f"{metric['name']}: {err}")
print(json.dumps(unanswered))
"""


def test_every_per_layer_metric_has_a_rule():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(BENCH), str(SRC)])}
    proc = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "BENCHMARK.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
