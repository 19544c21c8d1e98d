"""Check records and pass/fail aggregation for the verification runners."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return f"{status} {self.check_id} {self.detail}"


@dataclass
class VerificationReport:
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, check_id: str, ok: bool, detail: str = "") -> None:
        self.records.append(CheckRecord(check_id, bool(ok), detail))

    def extend(self, other: "VerificationReport") -> None:
        self.records.extend(other.records)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)

    def sorted_records(self) -> list[CheckRecord]:
        return sorted(self.records, key=lambda r: r.check_id)

    def lines(self) -> list[str]:
        """Report lines ``<STATUS> <check-id> <detail>``, sorted by check id."""
        return [r.line() for r in self.sorted_records()]
