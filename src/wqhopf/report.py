"""Verification reports: one named check per identity, machine- and human-readable."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    id: str
    passed: bool
    worst_deviation: float = 0.0
    witnesses: tuple = ()

    def to_json(self):
        return {
            "id": self.id,
            "status": "pass" if self.passed else "fail",
            "worst_deviation": self.worst_deviation,
            "witness_indices": [list(w) if isinstance(w, (tuple, list)) else [w]
                                for w in self.witnesses],
        }


@dataclass
class Report:
    checks: list = field(default_factory=list)

    def add(self, id, passed, worst_deviation=0.0, witnesses=()):
        self.checks.append(Check(id, bool(passed), float(worst_deviation), tuple(witnesses)))

    def record(self, id, *parts):
        """Add a check from (witnesses, worst deviation) parts: it fails when
        any part holds a witness, and reports the worst of all parts."""
        witnesses = [w for ws, _ in parts for w in ws]
        self.add(id, not witnesses, max((w for _, w in parts), default=0.0),
                 witnesses)

    def extend(self, other: "Report"):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, id):
        for c in self.checks:
            if c.id == id:
                return c
        raise KeyError(id)

    def to_json(self):
        return [c.to_json() for c in self.checks]

    def human_table(self) -> str:
        width = max((len(c.id) for c in self.checks), default=2) + 2
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = ""
            if not c.passed:
                extra = f"  worst_deviation={c.worst_deviation:.3e}"
                if c.witnesses:
                    shown = list(c.witnesses[:4])
                    more = "" if len(c.witnesses) <= 4 else f" (+{len(c.witnesses) - 4} more)"
                    extra += f"  at {shown}{more}"
            lines.append(f"{status}  {c.id.ljust(width)}{extra}")
        lines.append(f"{'OK' if self.passed else 'VIOLATIONS'}: "
                     f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines)


def witness(w, found):
    """The part holding the single witness w when found = (differs, worst)
    differs; a (witnesses, worst) part differs when it holds any witness."""
    differs, worst = found
    return ([w] if differs else [], worst)


def prefixed(prefix, part):
    """The (witnesses, worst) part with prefix prepended to each witness."""
    witnesses, worst = part
    return ([prefix + w for w in witnesses], worst)
