import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from nckepler import suites
from nckepler.cli import main
from nckepler.report import SuiteReport
from nckepler.suites import GENERAL_NOTES, SUITE_NAMES, SUITES, VerifyConfig, run_checks

SMALL = VerifyConfig(samples=24, deformation_sets=3)

# SHA-256 of each suite report at SMALL, as written by ``SuiteReport.save``.
# A refactor that claims byte-identical output must leave these unchanged.
GOLDEN_REPORTS = {
    "brackets": "94a9f146d643f2fb4b188f8490df0917e4ca47e0cae642bc51b97c6a72a97de3",
    "algebra": "12a4bf93b814da46740dd32bc2e1688edd63719f636482338780c682a2a100ab",
    "action-angle": "25fbe3639f5e64b99cb1325c1a0b9c87b6745fb21de9d5b434cc683678c7a18c",
    "hierarchy": "d04dd2ab0e16249547f48867059aab5cec372519839d9762289c4745269665d1",
    "master": "66fe417e21b119929a00dd37668332cfdaca5cdb96247c09e7e632d93252e3ba",
}

# Short ``simulate`` scenarios and the SHA-256 of the trajectory CSV each writes.
GOLDEN_SCENARIOS = {
    "deformed-rk4": (
        {
            "deformation": {
                "alpha": [[0, 0.04, -0.03], [-0.04, 0, 0.02], [0.03, -0.02, 0]],
                "lambda": [[0, -0.05, 0.01], [0.05, 0, 0.03], [-0.01, -0.03, 0]],
                "mass": 1.2, "k": 0.9,
            },
            "initial_state": {"chart": "cartesian", "coords": [1.1, 0.1, -0.2, 0.05, 0.85, 0.1]},
            "integrator": {"method": "rk4", "dt": 1e-3, "n_steps": 300},
            "monitors": ["H", "L1", "L2", "L3", "A1", "A2", "A3"],
        },
        "d1afa1ee27a4ba99638e0d4099ba80ef93d7b231598b8d8d644aff0e302d668c",
    ),
    "commutative-midpoint": (
        {
            "initial_state": {"chart": "cartesian", "coords": [1.0, 0.0, 0.0, 0.0, 1.05, 0.0]},
            "integrator": {"method": "implicit_midpoint", "dt": 1e-3, "n_steps": 300},
            "monitors": ["H"],
            "drift_tolerance": 1e-5,
        },
        "0ddbc80387981029c3aeacd110b74dd2b936a4fba94de97a6251f68414cd4b15",
    ),
    "commutative-rk4-unmonitored": (
        {
            "initial_state": {"chart": "cartesian", "coords": [0.9, 0.1, 0.2, -0.1, 1.0, 0.15]},
            "integrator": {"method": "rk4", "dt": 2e-3, "n_steps": 300},
            "monitors": [],
        },
        "d76809d1c0e5a660f9bfe330d21132e28818cd133e0b1d03285f033f75ff171c",
    ),
}


# Truncated ``simulate`` runs: the SHA-256 of the trajectory CSV, the stdout
# (``{csv}`` stands for the CSV's path) and the stderr line of each.
_MONITOR_LINES = (
    "monitor L1: initial +0.000000000000e+00 max drift 0.000e+00\n"
    "monitor L2: initial {L2} max drift 0.000e+00\n"
    "monitor L3: initial +0.000000000000e+00 max drift 0.000e+00\n"
    "monitor A1: initial -1.000000000000e+00 max drift 0.000e+00\n"
    "monitor A2: initial +0.000000000000e+00 max drift 0.000e+00\n"
    "monitor A3: initial +0.000000000000e+00 max drift 0.000e+00\n"
)
GOLDEN_TRUNCATED = {
    "collision": (
        {
            "initial_state": {"chart": "cartesian", "coords": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
            "integrator": {"method": "rk4", "dt": 1e-3, "n_steps": 2000},
            "monitors": ["H", "L1", "L2", "L3", "A1", "A2", "A3"],
        },
        "1f0ee71488180b69f99a81ee9d95a639a232cd96a854810aa6b9bd9ea9b19b36",
        "trajectory written to {csv} (1110 states)\n"
        "terminated early: singular configuration: energy step error exploded (collision)\n"
        "monitor H: initial -1.000000000000e+00 max drift 1.763e-02  (over budget)\n"
        + _MONITOR_LINES.format(L2="+0.000000000000e+00"),
        "simulate: 1109/2000 steps; stop: singular configuration: energy step error exploded "
        "(collision); max energy jump 2.861e-01 (relative to 1 + |H0|)\n",
    ),
    "radius-floor": (
        {
            "initial_state": {"chart": "cartesian", "coords": [1.0, 0.0, 0.0, -1e6, 0.0, 0.0]},
            "integrator": {"method": "rk4", "dt": 2.5e-8, "n_steps": 100},
            "monitors": ["H", "L1", "L2", "L3", "A1", "A2", "A3"],
        },
        "2cecd9a4d5ab1923d93928d991b548927fd2d1b59bf1ac4fba294b133b676b01",
        "trajectory written to {csv} (40 states)\n"
        "terminated early: singular configuration: deformed radius below 1e-9 of its initial value\n"
        "monitor H: initial +4.999999999990e+11 max drift 3.876e-13\n"
        + _MONITOR_LINES.format(L2="-0.000000000000e+00"),
        "simulate: 39/100 steps; stop: singular configuration: deformed radius below 1e-9 of its "
        "initial value; max energy jump 3.702e-13 (relative to 1 + |H0|)\n",
    ),
}


@pytest.fixture(scope="module")
def small_reports():
    return {name: SUITES[name](SMALL) for name in SUITE_NAMES}


def test_all_suites_pass_at_reduced_sample_count(small_reports):
    for name in SUITE_NAMES:
        rep = small_reports[name]
        assert rep.all_passed, (name, [e.identity for e in rep.entries if not e.passed])
        assert rep.total == rep.passed
        assert rep.to_dict()["summary"]["failed"] == 0


def test_suite_reports_match_golden_digests(small_reports, tmp_path):
    for name in SUITE_NAMES:
        path = tmp_path / f"{name}.json"
        small_reports[name].save(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_REPORTS[name], name


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_check_alone_yields_its_share_of_the_report(name, small_reports):
    """Run on a freshly built context, every check yields exactly the
    entries and notes it adds to its suite's report, in the same order."""
    suite, full = SUITES[name], small_reports[name]
    n_entries, n_notes = 0, len(GENERAL_NOTES)
    for check in suite.checks:
        rep = run_checks(SuiteReport(name), suite.context(SMALL), (check,))
        assert rep.entries or rep.notes, check.__name__
        assert rep.entries == full.entries[n_entries:n_entries + len(rep.entries)], check.__name__
        assert rep.notes == full.notes[n_notes:n_notes + len(rep.notes)], check.__name__
        n_entries += len(rep.entries)
        n_notes += len(rep.notes)
    assert (n_entries, n_notes) == (len(full.entries), len(full.notes))


def test_nan_residual_fails_its_entry(monkeypatch):
    """``max(0.0, nan)`` is 0.0; the runner's fold keeps the NaN, so the
    entry fails instead of passing with residual 0.0."""
    monkeypatch.setattr(suites, "hamilton_rhs_primed_form", lambda x, params: [math.nan] * 6)
    rep = SUITES["brackets"](SMALL)
    failed = [e for e in rep.entries if not e.passed]
    assert [e.identity for e in failed] == ["eom-primed-vs-closed"]
    assert math.isnan(failed[0].residual)


@pytest.mark.parametrize("scenario", sorted(GOLDEN_SCENARIOS))
def test_simulate_csv_matches_golden_digest(scenario, tmp_path):
    doc, digest = GOLDEN_SCENARIOS[scenario]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({**doc, "output": {"trajectory_csv": "traj.csv"}}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "traj.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("scenario", sorted(GOLDEN_TRUNCATED))
def test_truncated_simulate_matches_golden_output(scenario, tmp_path, capsys):
    doc, digest, stdout, stderr = GOLDEN_TRUNCATED[scenario]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({**doc, "output": {"trajectory_csv": "traj.csv"}}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == stdout.format(csv=tmp_path / "traj.csv")
    assert captured.err == stderr
    assert hashlib.sha256((tmp_path / "traj.csv").read_bytes()).hexdigest() == digest

def test_reports_are_deterministic():
    a = SUITES["brackets"](SMALL).to_json()
    b = SUITES["brackets"](SMALL).to_json()
    assert a == b


def test_report_summary_counts_match_entries():
    rep = SUITES["action-angle"](SMALL)
    doc = json.loads(rep.to_json())
    assert doc["summary"]["total"] == len(doc["entries"])
    assert doc["summary"]["passed"] == sum(1 for e in doc["entries"] if e["pass"])
    for e in doc["entries"]:
        assert e["pass"] == (e["residual"] <= e["tolerance"])


def test_negative_control_fails_hierarchy():
    rep = SUITES["hierarchy"](VerifyConfig(samples=24, negative_control=True))
    assert not rep.all_passed


def test_config_from_dict():
    cfg = VerifyConfig.from_dict(
        {
            "deformation": {"alpha": [[0, 0.1, 0], [-0.1, 0, 0], [0, 0, 0]], "mass": 1.2},
            "reduced": {"thetadot": 0.004, "phidot": 0.2, "m": 1.1, "k": 0.9},
            "verification": {"seed": 7, "samples": 33, "tolerances": {"bracket": 1e-8}},
        }
    )
    assert cfg.seed == 7
    assert cfg.samples == 33
    assert cfg.tol_bracket == 1e-8
    assert cfg.deformation.mass == 1.2
    assert cfg.reduced.thetadot == 0.004


# -- CLI ----------------------------------------------------------------------


def test_cli_verify_pass_and_reports(tmp_path):
    code = main(["verify", "--suites", "brackets", "--samples", "24", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "brackets.json").read_text())
    assert doc["summary"]["failed"] == 0
    assert doc["notes"]


def test_cli_verify_empty_suite_list_is_usage_error():
    assert main(["verify", "--suites"]) == 2


def test_cli_verify_unknown_suite_is_usage_error():
    assert main(["verify", "--suites", "nonsense"]) == 2


def test_cli_verify_negative_control_fails(tmp_path):
    code = main([
        "verify", "--suites", "hierarchy", "--samples", "24",
        "--negative-control", "--out", str(tmp_path),
    ])
    assert code == 1


def test_cli_verify_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["verify", "--suites", "brackets", "--samples", "24", "--out", str(d)]) == 0
    assert (d1 / "brackets.json").read_bytes() == (d2 / "brackets.json").read_bytes()


def test_cli_simulate_and_collision(tmp_path, capsys):
    config = {
        "deformation": {},
        "initial_state": {"coords": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0], "chart": "cartesian"},
        "integrator": {"method": "rk4", "dt": 1e-3, "n_steps": 500},
        "monitors": ["H", "L3"],
        "drift_tolerance": 1e-8,
        "output": {"trajectory_csv": str(tmp_path / "traj.csv")},
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path)]) == 0
    header = (tmp_path / "traj.csv").read_text().splitlines()[0]
    assert header == "t,q1,q2,q3,p1,p2,p3,H,L3"
    err = capsys.readouterr().err
    assert err.startswith("simulate: 500/500 steps; stop: completed; max energy jump ")

    config["initial_state"]["coords"] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    config["integrator"]["n_steps"] = 2000
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "terminated early: singular configuration" in captured.out
    steps = int(captured.err.split()[1].split("/")[0])
    assert 0 < steps < 2000
    assert "; stop: singular configuration: energy step error exploded" in captured.err
    jump = float(captured.err.split("max energy jump ")[1].split()[0])
    assert jump > 1e-2


def test_cli_verify_sampler_exhaustion_is_config_error(tmp_path):
    # k = 0.01 leaves no bound state in the sampling box: the sampler used to
    # loop forever here
    config = tmp_path / "weak.json"
    config.write_text(json.dumps({"reduced": {"thetadot": 0.006, "phidot": 0.3, "k": 0.01}}))
    proc = subprocess.run(
        [sys.executable, "-m", "nckepler.cli", "verify", "--config", str(config),
         "--suites", "action-angle", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "sample_spherical_bound" in proc.stderr


def test_cli_simulate_malformed_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2
    path.write_text(json.dumps({"initial_state": {"coords": [1, 2], "chart": "cartesian"}}))
    assert main(["simulate", "--config", str(path)]) == 2
    path.write_text(json.dumps({
        "initial_state": {"coords": [1, 0, 0, 0, 1, 0], "chart": "cartesian"},
        "monitors": ["H", "E"],
    }))
    assert main(["simulate", "--config", str(path)]) == 2


def test_cli_simulate_unwritable_output_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "plain.txt"
    blocker.write_text("")
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({
        "initial_state": {"coords": [1, 0, 0, 0, 1, 0]},
        "integrator": {"n_steps": 5},
        "output": {"trajectory_csv": str(blocker / "traj.csv")},
    }))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: cannot write the trajectory" in err
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_cli_simulate_write_failing_part_way_is_config_error(tmp_path):
    """``/dev/full`` opens but takes no byte.  The 200 rows overflow the write
    buffer, so the streamed CSV fails at the first flush, mid-file."""
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({
        "initial_state": {"coords": [1, 0, 0, 0, 1, 0]},
        "integrator": {"n_steps": 200},
        "output": {"trajectory_csv": "/dev/full"},
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "nckepler.cli", "simulate", "--config", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "configuration error: cannot write the trajectory" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--suites", "brackets", "--samples", "24", "--out", "{blocker}/d"],
    ["hierarchy", "--samples", "16", "--h-max", "1", "--out", "{blocker}/x.json"],
    ["master", "--samples", "16", "--out", "{blocker}/x.json"],
], ids=["verify", "hierarchy", "master"])
def test_cli_unwritable_out_is_config_error(argv, tmp_path, capsys, monkeypatch):
    """The output path is checked before any suite runs."""
    def must_not_run(cfg):
        pytest.fail("a suite ran before its unwritable output path was rejected")

    for name in SUITE_NAMES:
        monkeypatch.setitem(SUITES, name, must_not_run)
    blocker = tmp_path / "plainfile"
    blocker.write_text("")
    assert main([a.format(blocker=blocker) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write ")
    assert err.count("\n") == 1


def _simulate(tmp_path, doc):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({**doc, "output": {"trajectory_csv": "traj.csv"}}))
    return main(["simulate", "--config", str(path), "--out", str(tmp_path)])


def test_cli_simulate_overflow_mid_run_truncates_the_run(tmp_path, capsys):
    # the first step moves q to about 1e297, whose square overflows
    assert _simulate(tmp_path, {
        "initial_state": {"coords": [1, 0, 0, 0, 1, 0]},
        "deformation": {"mass": 1e-300},
        "integrator": {"n_steps": 3},
    }) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "simulate: 0/3 steps; stop: overflow: the state left the float range;")
    assert "terminated early: overflow" in captured.out
    assert len((tmp_path / "traj.csv").read_text().splitlines()) == 2


def test_cli_simulate_overflowing_initial_state_is_runtime_error(tmp_path, capsys):
    assert _simulate(tmp_path, {
        "initial_state": {"coords": [1e200, 0, 0, 0, 1, 0]},
        "integrator": {"n_steps": 3},
    }) == 1
    err = capsys.readouterr().err
    assert err.startswith("integration failed: ") and err.count("\n") == 1
    assert not (tmp_path / "traj.csv").exists()


def test_cli_chart_overflow_is_conversion_failure(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"coords": [1.0, 1.2, 0.3, 1e200, 0.1, 0.2], "chart": "spherical"}))
    assert main(["chart", "--state", str(state), "--to", "action_angle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("conversion failed: ") and err.count("\n") == 1


def test_cli_verify_overflowing_parameters_are_config_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"deformation": {"alpha": [[0, 1e200, 0], [-1e200, 0, 0], [0, 0, 0]]}}))
    assert main(["verify", "--config", str(path), "--suites", "brackets", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: suite brackets: arithmetic failure")


@pytest.mark.parametrize("existed", [False, True], ids=["new-file", "existing-file"])
def test_cli_report_failing_run_leaves_no_new_empty_file(existed, tmp_path, capsys):
    """A run that returns no report takes back the file its write probe
    made, and leaves a file that existed before as it was."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"reduced": {"m": 1e200, "k": 1e200}}))
    out = tmp_path / "out.json"
    if existed:
        out.write_text("earlier report\n")
    assert main(["hierarchy", "--config", str(path), "--samples", "12", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: suite hierarchy: arithmetic failure")
    assert "OverflowError" in err
    if existed:
        assert out.read_text() == "earlier report\n"
    else:
        assert not out.exists()


_STATE = {"chart": "cartesian", "coords": [1.0, 0.0, 0.0, 0.0, 1.05, 0.0]}

MALFORMED = [
    pytest.param("verify", {"deformation": [1, 2]}, id="verify-deformation-list"),
    pytest.param("verify", [1], id="verify-top-level-list"),
    pytest.param("verify", {"deformation": {"alpha": 5}}, id="verify-alpha-scalar"),
    pytest.param("verify", {"deformation": {"mass": "x"}}, id="verify-mass-string"),
    pytest.param("verify", {"reduced": {"k": "a"}}, id="verify-reduced-k-string"),
    pytest.param("verify", {"verification": {"tolerances": {"bracket": None}}},
                 id="verify-tolerance-null"),
    pytest.param("verify", {"verification": {"tolerances": {"drift": float("nan")}}},
                 id="verify-tolerance-nan"),
    pytest.param("verify", {"verification": {"tolerances": {"bracket": float("inf")}}},
                 id="verify-tolerance-inf"),
    pytest.param("verify", {"verification": {"tolerances": {"bracket": 10**400}}},
                 id="verify-tolerance-huge-int"),
    pytest.param("verify", {"deformation": {"mass": 10**400}}, id="verify-mass-huge-int"),
    pytest.param("verify", {"verification": {"seed": -1}}, id="verify-seed-negative"),
    pytest.param("simulate", {"deformation": [1, 2], "initial_state": _STATE},
                 id="simulate-deformation-list"),
    pytest.param("simulate", {"deformation": {"alpha": 5}, "initial_state": _STATE},
                 id="simulate-alpha-scalar"),
    pytest.param("simulate", {"deformation": {"k": None}, "initial_state": _STATE},
                 id="simulate-k-null"),
    pytest.param("simulate", {"initial_state": _STATE, "integrator": 5},
                 id="simulate-integrator-number"),
    pytest.param("simulate", {"initial_state": {"coords": [None, 0, 0, 0, 1, 0]}},
                 id="simulate-coords-null"),
    pytest.param("simulate", {"initial_state": {"coords": 5}}, id="simulate-coords-number"),
    pytest.param("simulate", {"initial_state": _STATE, "monitors": 5},
                 id="simulate-monitors-number"),
    pytest.param("simulate", {"initial_state": _STATE, "integrator": {"dt": None}},
                 id="simulate-dt-null"),
    pytest.param("simulate", {"initial_state": _STATE, "integrator": {"n_steps": 2.7}},
                 id="simulate-n-steps-fraction"),
    pytest.param("simulate", {"initial_state": _STATE, "integrator": {"method": ["rk4"]}},
                 id="simulate-method-list"),
    pytest.param("simulate", {"initial_state": _STATE, "drift_tolerance": None},
                 id="simulate-drift-tolerance-null"),
    pytest.param("simulate", {"initial_state": _STATE, "drift_tolerance": -1.0},
                 id="simulate-drift-tolerance-negative"),
    pytest.param("simulate", {"initial_state": _STATE, "output": {"trajectory_csv": 5}},
                 id="simulate-output-number"),
    pytest.param("chart", {"reduced": {"m": "z"}}, id="chart-reduced-m-string"),
    pytest.param("chart", [1], id="chart-params-list"),
    pytest.param("chart-state", [1], id="chart-state-list"),
    pytest.param("chart-state", {"chart": "cartesian", "coords": [1, 0, None, 0, 1, 0]},
                 id="chart-state-coords-null"),
]


@pytest.mark.parametrize("command, doc", MALFORMED)
def test_cli_malformed_block_is_config_error(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(_STATE))
    argv = {
        "verify": ["verify", "--config", str(path), "--suites", "brackets", "--out", str(tmp_path)],
        "simulate": ["simulate", "--config", str(path), "--out", str(tmp_path)],
        "chart": ["chart", "--state", str(state), "--to", "spherical", "--params", str(path)],
        "chart-state": ["chart", "--state", str(path), "--to", "spherical"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_chart_round_trip(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"coords": [1.0, 0.3, -0.4, 0.1, 0.9, 0.2], "chart": "cartesian"}))
    assert main(["chart", "--state", str(state), "--from", "cartesian", "--to", "spherical"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["chart"] == "spherical"
    back = tmp_path / "sph.json"
    back.write_text(json.dumps(out))
    assert main(["chart", "--state", str(back), "--to", "cartesian"]) == 0
    cart = json.loads(capsys.readouterr().out)
    orig = [1.0, 0.3, -0.4, 0.1, 0.9, 0.2]
    assert max(abs(a - b) for a, b in zip(cart["coords"], orig)) < 1e-12


def test_cli_chart_domain_and_undefined_errors(tmp_path):
    state = tmp_path / "axis.json"
    state.write_text(json.dumps({"coords": [0.0, 0.0, 1.0, 0.0, 0.0, 0.1], "chart": "cartesian"}))
    assert main(["chart", "--state", str(state), "--to", "spherical"]) == 2
    # r sin(theta) underflows to zero
    state.write_text(json.dumps({"coords": [0.5, 5e-324, 0, 0, 0, 0], "chart": "spherical"}))
    assert main(["chart", "--state", str(state), "--to", "cartesian"]) == 2
    dstate = tmp_path / "del.json"
    dstate.write_text(json.dumps({"coords": [0.5, 1.0, 1.5, 0, 0, 0], "chart": "delaunay"}))
    assert main(["chart", "--state", str(dstate), "--to", "spherical"]) == 2


def test_cli_chart_source_mismatch(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"coords": [1, 0, 0, 0, 1, 0], "chart": "cartesian"}))
    assert main(["chart", "--state", str(state), "--from", "spherical", "--to", "spherical"]) == 2
    assert main(["chart", "--state", str(state), "--from", "nonsense", "--to", "spherical"]) == 2


def test_cli_hierarchy_and_master_outputs(tmp_path):
    out = tmp_path / "hier.json"
    assert main(["hierarchy", "--samples", "16", "--h-max", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert isinstance(doc, list) and doc
    assert {"identity", "point", "residual", "tolerance", "pass"} <= set(doc[0])
    mout = tmp_path / "master.json"
    assert main(["master", "--samples", "16", "--i-max", "1", "--out", str(mout)]) == 0
    mdoc = json.loads(mout.read_text())
    assert mdoc["summary"]["failed"] == 0


def test_cli_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "nckepler.cli", "verify", "--suites"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(tol_bracket=-1.0)
    with pytest.raises(ValueError):
        VerifyConfig(samples=0)
    with pytest.raises(ValueError):
        VerifyConfig(h_max=-1)
    for key, bad in (("samples", 2.7), ("seed", True), ("h_max", "3"), ("l_max", None)):
        with pytest.raises(ValueError, match=f"verification {key} must be an integer"):
            VerifyConfig.from_dict({"verification": {key: bad}})
    assert VerifyConfig.from_dict({"verification": {"samples": 7}}).samples == 7
