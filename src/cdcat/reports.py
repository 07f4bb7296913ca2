"""Suite reports: per-check status with counterexamples, JSON-renderable.

A check's `checked` is the number of instances it decided, up to and
including its first failure: a passing check decided every instance, a
failing one stops at the instance its counterexample names.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int = 0
    counterexample: str | None = None

    def to_dict(self):
        out = {"name": self.name, "status": "pass" if self.passed else "fail",
               "checked": self.checked}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class Report:
    suite: str
    config: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add(self, name, passed, checked=0, counterexample=None):
        self.checks.append(CheckResult(name, passed, checked, counterexample))

    def extend(self, prefix, sub):
        """Add a copy of each of sub's checks, its name behind `prefix`."""
        for c in sub.checks:
            self.add(prefix + c.name, c.passed, c.checked, c.counterexample)

    def check(self, items, *laws):
        """Decide every law on one lazy stream of instances.

        Each law is a (name, law) pair; law(item) returns a counterexample
        string or None.  A law stops at its own first failure, and the
        stream is not advanced once every law has failed.  A law's
        `checked` is then the 1-based index of the instance it failed on.
        """
        live = [(CheckResult(name, True), law) for name, law in laws]
        self.checks.extend(result for result, _ in live)
        for item in items:
            failed = False
            for result, law in live:
                result.checked += 1
                witness = law(item)
                if witness is not None:
                    result.passed, result.counterexample = False, witness
                    failed = True
            if failed:
                live = [(result, law) for result, law in live if result.passed]
                if not live:
                    return

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        # elapsed time is deliberately not part of the payload so that a
        # fixed seed and config give byte-identical serialized reports
        return {
            "suite": self.suite,
            "config": {k: self.config[k] for k in sorted(self.config)},
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"  [{status}] {c.name} ({c.checked} checked)"
            lines.append(line)
            if c.counterexample:
                lines.append(f"         counterexample: {c.counterexample}")
        lines.append(f"result: {'all passed' if self.passed else 'FAILURES'}")
        return "\n".join(lines)
