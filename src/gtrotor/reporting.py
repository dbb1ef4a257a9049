"""Pass/fail reports shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Check:
    name: str
    weight: Optional[str]
    passed: bool
    residual: float = 0.0
    elapsed: float = 0.0

    def line(self) -> str:
        # no timing here: identical argv must produce byte-identical text
        status = "PASS" if self.passed else "FAIL"
        where = f" [{self.weight}]" if self.weight else ""
        return f"{status} {self.name}{where} residual={self.residual:g}"


@dataclass
class Report:
    suite: str
    checks: List[Check] = field(default_factory=list)

    def add(self, name, weight, passed, residual=0.0, elapsed=0.0):
        self.checks.append(Check(name, weight, bool(passed), float(residual), elapsed))

    def extend(self, other: "Report"):
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]

    def summary(self, height: Optional[int] = None) -> str:
        n_fail = len(self.failures)
        verdict = "PASS" if n_fail == 0 else f"FAIL ({n_fail} failing)"
        at = "" if height is None else f" up to height {height}"
        return f"suite {self.suite}{at}: {len(self.checks)} checks, {verdict}"

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "weight": c.weight,
                    "status": "pass" if c.passed else "fail",
                    "residual": c.residual,
                    "elapsed": c.elapsed,
                }
                for c in self.checks
            ],
        }
