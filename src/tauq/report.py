"""Structured pass/fail records for identity verification."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rings import MomentPoly

# the side types whose equal values have one printed form
_CANONICAL = (int, Fraction, MomentPoly)


@dataclass(frozen=True)
class Check:
    """One verified instance; lhs/rhs carry the witness values as strings."""

    instance: dict
    passed: bool
    lhs: str | None = None
    rhs: str | None = None


@dataclass(frozen=True)
class Skip:
    """One instance that could not be evaluated (degenerate denominator)."""

    instance: dict
    reason: str


@dataclass
class VerificationReport:
    """Deterministic record of a verification run.

    total = passes + failures; skipped instances are tracked separately and
    never count toward the total.
    """

    name: str = "verification"
    checks: list[Check] = field(default_factory=list)
    skipped: list[Skip] = field(default_factory=list)

    def add_check(self, instance: dict, lhs, rhs) -> None:
        """Record one check of lhs == rhs. Equal ints, Fractions or
        MomentPolys print the same, so a passing check of two such sides
        of one type prints lhs once for both. Other sides (a RingFraction
        is unreduced) are printed one by one."""
        passed = bool(lhs == rhs)
        lhs_text = str(lhs)
        if passed and type(lhs) is type(rhs) and type(lhs) in _CANONICAL:
            rhs_text = lhs_text
        else:
            rhs_text = str(rhs)
        self.checks.append(Check(dict(instance), passed, lhs_text, rhs_text))

    def add_skip(self, instance: dict, reason: str) -> None:
        self.skipped.append(Skip(dict(instance), reason))

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)
        self.skipped.extend(other.skipped)

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passes(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failures(self) -> int:
        return self.total - self.passes

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "checks": [
                {"instance": c.instance, "pass": c.passed, "lhs": c.lhs, "rhs": c.rhs}
                for c in self.checks
            ],
            "skipped": [
                {"instance": s.instance, "reason": s.reason} for s in self.skipped
            ],
            "summary": {"total": self.total, "pass": self.passes,
                        "skipped": len(self.skipped)},
        }

    def summary_line(self) -> str:
        line = f"{self.name}: {self.total} checks, {self.passes} pass"
        if self.failures:
            line += f", {self.failures} FAIL"
        if self.skipped:
            line += f", {len(self.skipped)} skipped (degenerate)"
        return line
