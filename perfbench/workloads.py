"""Seeded inputs of the benchmark workloads and the checks of their outputs.

Every input is drawn from the benchmark's own ``random.Random(seed)``; the
program only ever sees the generated JSON.  All three workloads are closed
loops: one caller runs one CLI command at a time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The acceptance configuration of the verification battery, seed included:
# ``sampling.DEFAULT_SEED``, the seed the tier-1 battery test holds fully
# green.  The battery fails ``eigenvalue-flow-drift`` at about 45% of other
# seeds (README.md, "Known failures"), so the workload seed does not reach it.
ACCEPTANCE = {"samples": 100, "deformation_sets": 10, "h_max": 3, "i_max": 2, "l_max": 2,
              "seed": 42}

# Report entry identities the acceptance configuration produces, per suite.
EXPECTED_IDENTITIES = {
    "brackets": (
        "bracket-pattern-pq", "bracket-pattern-qq", "bracket-pattern-pp", "structure-F",
        "structure-D", "structure-E", "beta-table-qq", "beta-table-qp", "beta-table-pp",
        "symplectic-inverse", "bivector-bracket", "jacobi", "eom-closed-vs-bivector",
        "eom-primed-vs-closed", "eom-interior-product",
    ),
    "algebra": (
        "bracket-H-L", "bracket-H-A", "pairwise-chain", "pairwise-closed-commutative",
        "so4-closure", "so13-closure", "so4-generator-pattern", "so13-generator-pattern",
        "algebra-jacobi", "conservation-circular-H", "conservation-circular-L",
        "conservation-circular-A", "conservation-eccentric-H", "conservation-eccentric-L",
        "conservation-eccentric-A", "flow-bracket-consistency",
    ),
    "action-angle": (
        "energy-roundtrip", "frequency-degeneracy", "isochronous-derivative",
        "action-hessian-degenerate", "polar-action-quadrature", "radial-action-quadrature",
        "aa-interior-product", "aa-inverse-pair", "aa-action-conservation", "integral-drift",
        "angle-rates", "chart-reduction-oracle", "azimuthal-action-regime",
    ),
    "hierarchy": tuple(
        [
            ident
            for h in range(4)
            for ident in (
                f"compatibility-h{h}",
                *(f"compatibility-h{h}-h{hp}" for hp in range(1, h)),
                f"pairing-h{h}", f"inverse-pair-h{h}", f"torsion-h{h}",
                f"eigenvalue-invariance-h{h}", f"level-bracket-flow-h{h}",
            )
        ]
        + ["recursion-semigroup"]
        + [
            f"{check}-h{h}"
            for h in range(1, 4)
            for check in (
                "transport-pairing", "transport-compatibility", "transport-torsion",
                "table-diagonal", "table-internal-relation",
            )
        ]
        + [
            "delaunay-symplectic", "delaunay-roundtrip", "energy-rescaled-canonical",
            "classical-elements-energy", "eigenvalue-flow-drift",
        ]
    ),
    "master": (
        "symmetry-ladder", "symmetry-commutation", "degree-one", "master-integral-pairing",
        "conformal-coefficients", "recursion-families", "scaling-ledger",
        "coefficient-patterns",
    ),
}


@dataclass(frozen=True)
class Outcome:
    """What one command achieved: operations attempted and failed, problems
    found, and the SHA-256 of every output file by name."""

    attempted: int
    failed: int
    problems: tuple
    digests: dict


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _antisymmetric(rng: random.Random, scale: float) -> list:
    a, b, c = (rng.uniform(-scale, scale) for _ in range(3))
    return [[0.0, a, b], [-a, 0.0, c], [-b, -c, 0.0]]


def _bound_state(rng: random.Random, mass: float, k: float) -> list:
    """A bound state near a circular orbit: speed within 10% of circular and
    a radial part below 10% of it.  In the commutative limit the
    eccentricity stays below about 0.25, so fixed-step integration never
    nears the collision guard."""
    r = rng.uniform(0.9, 1.3)
    radial = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(v * v for v in radial))
    radial = [v / norm for v in radial]
    other = [rng.gauss(0.0, 1.0) for _ in range(3)]
    dot = sum(a * b for a, b in zip(other, radial))
    tangent = [o - dot * e for o, e in zip(other, radial)]
    norm = math.sqrt(sum(v * v for v in tangent))
    tangent = [v / norm for v in tangent]
    p_circ = mass * math.sqrt(k / (mass * r))
    along, out = rng.uniform(0.9, 1.1), rng.uniform(-0.1, 0.1)
    q = [r * e for e in radial]
    p = [p_circ * (along * t + out * e) for t, e in zip(tangent, radial)]
    return q + p


class VerifyFull:
    """``verify`` of all five suites at the acceptance configuration; the
    same inputs for every workload seed."""

    kind = "verify"
    ops = sum(len(ids) for ids in EXPECTED_IDENTITIES.values())

    @staticmethod
    def inputs(seed: int) -> dict:
        return {"verification": dict(ACCEPTANCE)}

    @staticmethod
    def argv(config: Path, out_dir: Path) -> list:
        return ["verify", "--config", str(config), "--out", str(out_dir)]

    @staticmethod
    def check(doc: dict, out_dir: Path, returncode: int) -> Outcome:
        failed, problems, digests = 0, [], {}
        for suite, expected in EXPECTED_IDENTITIES.items():
            path = out_dir / f"{suite}.json"
            if not path.is_file():
                failed += len(expected)
                problems.append(f"{suite}: no report")
                continue
            digests[path.name] = sha256(path)
            entries = json.loads(path.read_text())["entries"]
            passed = {e["identity"] for e in entries if e["pass"]}
            missing = [ident for ident in expected if ident not in passed]
            failed += len(missing)
            if missing:
                problems.append(f"{suite}: not passed: {', '.join(missing)}")
            extra = sorted({e["identity"] for e in entries} - set(expected))
            if extra or len(entries) != len(expected):
                problems.append(f"{suite}: unexpected entries {extra} ({len(entries)} total)")
        if returncode != 0:
            problems.append(f"exit code {returncode}")
        return Outcome(VerifyFull.ops, failed, tuple(problems), digests)


class Simulate:
    """``simulate`` of a seeded bound scenario; subclasses fix the physics."""

    kind = "simulate"
    method: str
    dt: float
    ops: int  # requested steps
    monitors: tuple
    drift_tolerance: float
    deformation_scale: float

    @classmethod
    def inputs(cls, seed: int) -> dict:
        rng = random.Random(seed)
        if cls.deformation_scale:
            alpha = _antisymmetric(rng, cls.deformation_scale)
            lam = _antisymmetric(rng, cls.deformation_scale)
        else:
            alpha = lam = [[0.0] * 3 for _ in range(3)]
        mass, k = rng.uniform(0.8, 1.5), rng.uniform(0.8, 1.8)
        return {
            "deformation": {"alpha": alpha, "lambda": lam, "mass": mass, "k": k},
            "initial_state": {"chart": "cartesian", "coords": _bound_state(rng, mass, k)},
            "integrator": {"method": cls.method, "dt": cls.dt, "n_steps": cls.ops},
            "monitors": list(cls.monitors),
            "drift_tolerance": cls.drift_tolerance,
            "output": {"trajectory_csv": "trajectory.csv"},
        }

    @staticmethod
    def argv(config: Path, out_dir: Path) -> list:
        return ["simulate", "--config", str(config), "--out", str(out_dir)]

    @staticmethod
    def check(doc: dict, out_dir: Path, returncode: int) -> Outcome:
        n_steps = doc["integrator"]["n_steps"]
        path = out_dir / doc["output"]["trajectory_csv"]
        if not path.is_file():
            return Outcome(n_steps, n_steps, ("no trajectory",), {})
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems, failed = [], n_steps - max(len(rows) - 1, 0)
        if failed:
            problems.append(f"{len(rows)} rows, expected {n_steps + 1}")
        energy = [float(row["H"]) for row in rows]
        drift = max(abs(e - energy[0]) for e in energy) / (abs(energy[0]) or 1.0)
        if drift > doc["drift_tolerance"]:
            failed = n_steps
            problems.append(f"H drift {drift:.3e} over budget {doc['drift_tolerance']:.1e}")
        if returncode != 0:
            failed = n_steps
            problems.append(f"exit code {returncode}")
        return Outcome(n_steps, failed, tuple(problems), {path.name: sha256(path)})


class SimulateDeformed(Simulate):
    """Generic deformation, RK4, all seven monitors."""

    method, dt, ops = "rk4", 1e-3, 10000
    monitors = ("H", "L1", "L2", "L3", "A1", "A2", "A3")
    drift_tolerance = 1e-8
    deformation_scale = 0.05


class SimulateKepler(Simulate):
    """Commutative limit, implicit midpoint, energy monitor only."""

    method, dt, ops = "implicit_midpoint", 1e-3, 40000
    monitors = ("H",)
    drift_tolerance = 1e-5
    deformation_scale = 0.0


WORKLOADS = {
    "verify-full": VerifyFull,
    "simulate-deformed": SimulateDeformed,
    "simulate-kepler": SimulateKepler,
}
