"""Common result types for the reproduction experiments.

Every experiment (one per figure, lemma or proposition of the paper) returns
an :class:`ExperimentResult`: a list of checkable claims (paper statement vs
measured outcome) plus pre-rendered text tables.  The CLI and the
benchmark's ``paper`` workload call the same entry points, so "the code
that regenerates the figure" and "the code the test suite asserts on" are
one and the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class ClaimCheck:
    """One paper claim together with what the reproduction measured."""

    description: str
    expected: str
    observed: str
    passed: bool

    def render(self) -> str:
        """One-line summary of the check."""
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.description}: expected {self.expected}; observed {self.observed}"


@dataclass
class ExperimentResult:
    """The outcome of running one experiment."""

    experiment_id: str
    title: str
    claims: List[ClaimCheck] = field(default_factory=list)
    tables: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """Whether every claim check passed."""
        return all(claim.passed for claim in self.claims)

    def add_claim(
        self, description: str, expected: str, observed: str, passed: bool
    ) -> None:
        """Record one claim check."""
        self.claims.append(
            ClaimCheck(
                description=description,
                expected=expected,
                observed=observed,
                passed=passed,
            )
        )

    def render(self) -> str:
        """Full text report of the experiment."""
        lines = [self.title, "=" * len(self.title), ""]
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.notes:
            lines.append("")
        for claim in self.claims:
            lines.append(claim.render())
        for table in self.tables:
            lines.append("")
            lines.append(table)
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line pass/fail summary."""
        passed = sum(1 for c in self.claims if c.passed)
        return (
            f"{self.experiment_id}: {passed}/{len(self.claims)} claims reproduced"
        )
