"""Verification report shared by the certificate checkers."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

REPORT_ROWS = 200       # rows that as_dict writes out
_INDEX = re.compile(r"\d+$")


@dataclass(frozen=True)
class CheckRow:
    """One checked inequality, or one class of constraint instances that
    share lhs, rhs and slack: count is how many instances the row stands
    for, and an id ending in a vertex index names the class's first
    vertex."""

    constraint_id: str
    lhs: float
    rhs: float
    slack: float  # violation amount; 0.0 when satisfied
    count: int = 1

    def as_dict(self) -> dict:
        return {"id": self.constraint_id, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "count": self.count}


@dataclass
class VerifyReport:
    """Check rows, each standing for `count` constraint instances; the
    verdict is on the worst slack, and num_checks counts instances."""

    checks: list[CheckRow] = field(default_factory=list)
    tolerance: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, constraint_id: str, lhs, rhs, violation,
            count: int = 1) -> None:
        self.checks.append(CheckRow(constraint_id=constraint_id,
                                    lhs=float(lhs), rhs=float(rhs),
                                    slack=max(0.0, float(violation)),
                                    count=count))

    def add_exact(self, constraint_id: str, ok: bool, lhs, rhs) -> None:
        """Row for an exact (rational) check: slack is 0 or 1."""
        self.add(constraint_id, lhs, rhs, 0.0 if ok else 1.0)

    @property
    def max_violation(self) -> float:
        return max((row.slack for row in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def failing(self) -> list[CheckRow]:
        return [r for r in self.checks if r.slack > self.tolerance]

    def as_dict(self) -> dict:
        """The summary and the first REPORT_ROWS rows: the violations,
        highest slack first, then one row of each constraint family not yet
        shown (the id without its trailing vertex index), then the rest in
        check order.  A passing report thus shows every kind of check.
        num_checks counts constraint instances, the sum of the row counts."""
        shown: list[CheckRow] = []
        rest: list[CheckRow] = []
        families: set[str] = set()
        for row in sorted(self.checks, key=lambda r: -r.slack):
            family = _INDEX.sub("", row.constraint_id)
            if row.slack > 0 or family not in families:
                families.add(family)
                shown.append(row)
            else:
                rest.append(row)
        return {
            "passed": self.passed,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "num_checks": sum(row.count for row in self.checks),
            "checks": [r.as_dict() for r in (shown + rest)[:REPORT_ROWS]],
            **self.extra,
        }
