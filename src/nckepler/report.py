"""Verification report containers with deterministic JSON serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckRecord:
    identity: str
    statement: str
    point: tuple
    lhs: float
    rhs: float
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "statement": self.statement,
            "point": list(self.point),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class SuiteReport:
    suite: str
    entries: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, identity: str, statement: str, point, lhs: float, rhs: float,
            residual: float, tolerance: float) -> CheckRecord:
        rec = CheckRecord(
            identity=identity,
            statement=statement,
            point=tuple(float(v) for v in point),
            lhs=float(lhs),
            rhs=float(rhs),
            residual=float(residual),
            tolerance=float(tolerance),
        )
        self.entries.append(rec)
        return rec

    def note(self, text: str):
        self.notes.append(text)

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def passed(self) -> int:
        return len([e for e in self.entries if e.passed])

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "summary": {"total": self.total, "passed": self.passed, "failed": self.failed},
            "notes": list(self.notes),
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
