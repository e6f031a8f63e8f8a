"""Tests of the benchmark's own code.

Run from the root of the repository: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from hostspeed import REFERENCE_S, speed_of
from spans import Tracer
from workloads import SimulateDeformed, SimulateKepler, VerifyFull


def test_self_and_total_time_on_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 5], which holds c [2, 4], and a recursive a [6, 7].
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("m.a", "m")
    tracer.enter("n.b", "n")
    tracer.enter("n.c", "n")
    tracer.exit()
    tracer.exit()
    tracer.enter("m.a", "m")
    tracer.exit()
    tracer.exit()
    assert tracer.stats == {
        "m.a": {"calls": 2, "total_s": 10.0, "self_s": 6.0},
        "m": {"calls": 2, "total_s": 10.0, "self_s": 6.0},
        "n.b": {"calls": 1, "total_s": 4.0, "self_s": 2.0},
        "n.c": {"calls": 1, "total_s": 2.0, "self_s": 2.0},
        "n": {"calls": 2, "total_s": 4.0, "self_s": 4.0},
    }


def test_host_speed_is_the_mean_speed_of_the_samples_in_the_interval():
    # The loop ran at the reference speed, then twice as slow, then 4x as fast.
    samples = [(1.0, REFERENCE_S), (2.0, 2 * REFERENCE_S), (3.0, REFERENCE_S / 4)]
    assert speed_of(samples, 0.5, 2.5) == pytest.approx((1.0 + 0.5) / 2)
    assert speed_of(samples, 2.5, 3.5) == pytest.approx(4.0)
    # With no sample in the interval, every sample counts.
    assert speed_of(samples, 5.0, 6.0) == pytest.approx((1.0 + 0.5 + 4.0) / 3)


def test_calls_through_every_alias_are_counted():
    script = """
import json
import nckepler
import nckepler.cli
from nckepler import deformation, kepler, symmetry
from spans import Tracer, instrument

tracer = Tracer()
instrument(tracer)
params = deformation.DeformationParams()
x = [1.0, 0.2, 0.1, 0.1, 1.0, 0.0]
for fn in (kepler.transform_coordinates, symmetry.transform_coordinates,
           nckepler.transform_coordinates, deformation.transform_coordinates):
    fn(x, params)
print(json.dumps(tracer.stats["deformation.transform_coordinates"]["calls"]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.ROOT / "src"), str(run.BENCH)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == 4


@pytest.mark.parametrize("workload", [SimulateDeformed, SimulateKepler])
def test_generator_is_deterministic_per_seed(workload):
    assert workload.inputs(5) == workload.inputs(5)
    assert workload.inputs(5) != workload.inputs(6)


def test_verify_runs_the_acceptance_configuration_at_every_seed():
    assert VerifyFull.inputs(5) == VerifyFull.inputs(6)
    script = """
import json, sys
from nckepler.sampling import DEFAULT_SEED
from nckepler.suites import VerifyConfig

cfg = VerifyConfig.from_dict(json.loads(sys.argv[1]))
print(json.dumps([cfg.seed == DEFAULT_SEED, cfg.samples, cfg.deformation_sets,
                  cfg.h_max, cfg.i_max, cfg.l_max]))
"""
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(VerifyFull.inputs(5))],
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [True, 100, 10, 3, 2, 2]


class ShortDeformed(SimulateDeformed):
    ops = 300


class ShortKepler(SimulateKepler):
    ops = 600


class BracketsOnly(VerifyFull):
    @staticmethod
    def inputs(seed):
        return {"verification": {"seed": seed, "samples": 4, "deformation_sets": 2}}

    @staticmethod
    def argv(config, out_dir):
        return VerifyFull.argv(config, out_dir) + ["--suites", "brackets"]


def _untraced_then_traced_twice(workload):
    bench = run.Run(workload, seed=3)
    try:
        return [bench.child(trace=trace) for trace in (False, True, True)]
    finally:
        bench.close()


@pytest.mark.parametrize("workload", [ShortDeformed, ShortKepler, BracketsOnly])
def test_tracing_keeps_outputs_and_repeats_its_counts(workload):
    (plain, plain_out), (first, first_out), (second, second_out) = \
        _untraced_then_traced_twice(workload)
    assert plain_out.digests and plain_out.digests == first_out.digests == second_out.digests
    assert first["counts"] == second["counts"]
    calls = [{name: st["calls"] for name, st in r["stats"].items()} for r in (first, second)]
    assert calls[0] == calls[1]
    if workload.kind == "simulate":
        assert first["counts"].get("duals.dual_ops", 0) == 0
        assert "geometry.nijenhuis_torsion" not in first["stats"]
        rhs_per_step = run.layer_metric("kepler.rhs_per_step", plain, first)
        if workload.method == "rk4":
            assert rhs_per_step == 4
        else:
            assert "kepler.hamilton_rhs_closed_form" not in first["stats"]
            assert rhs_per_step > 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
