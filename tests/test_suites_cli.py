import hashlib
import json
import os
import subprocess
import sys

import pytest

from nckepler.cli import main
from nckepler.suites import SUITE_NAMES, SUITES, VerifyConfig

SMALL = VerifyConfig(samples=24, deformation_sets=3)

# SHA-256 of each suite report at SMALL, as written by ``SuiteReport.save``.
# A refactor that claims byte-identical output must leave these unchanged.
GOLDEN_REPORTS = {
    "brackets": "94a9f146d643f2fb4b188f8490df0917e4ca47e0cae642bc51b97c6a72a97de3",
    "algebra": "b42b5044801a8255d312c3473c5e212a7bca1a87a352127f6fe1317f75799897",
    "action-angle": "25fbe3639f5e64b99cb1325c1a0b9c87b6745fb21de9d5b434cc683678c7a18c",
    "hierarchy": "41e0393929e45fd55a17ad660a4f72916ca8e2015340246dc5249baddf7e8051",
    "master": "d65eecac99d2242874408c18f229ee6cdfdda8d1ab847231a3610c8234b44a8c",
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


@pytest.mark.parametrize("scenario", sorted(GOLDEN_SCENARIOS))
def test_simulate_csv_matches_golden_digest(scenario, tmp_path):
    doc, digest = GOLDEN_SCENARIOS[scenario]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({**doc, "output": {"trajectory_csv": "traj.csv"}}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
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
    pytest.param("simulate", {"deformation": [1, 2], "initial_state": _STATE},
                 id="simulate-deformation-list"),
    pytest.param("simulate", {"deformation": {"alpha": 5}, "initial_state": _STATE},
                 id="simulate-alpha-scalar"),
    pytest.param("simulate", {"deformation": {"k": None}, "initial_state": _STATE},
                 id="simulate-k-null"),
    pytest.param("simulate", {"initial_state": _STATE, "integrator": 5},
                 id="simulate-integrator-number"),
    pytest.param("chart", {"reduced": {"m": "z"}}, id="chart-reduced-m-string"),
    pytest.param("chart", [1], id="chart-params-list"),
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
    dstate = tmp_path / "del.json"
    dstate.write_text(json.dumps({"coords": [0.5, 1.0, 1.5, 0, 0, 0], "chart": "delaunay"}))
    assert main(["chart", "--state", str(dstate), "--to", "spherical"]) == 2


def test_cli_chart_source_mismatch(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"coords": [1, 0, 0, 0, 1, 0], "chart": "cartesian"}))
    assert main(["chart", "--state", str(state), "--from", "spherical", "--to", "spherical"]) == 2


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
