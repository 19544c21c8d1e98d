"""Check records and pass/fail aggregation for the verification runners."""

from __future__ import annotations

from .value import Value


class CheckRecord(Value):
    __slots__ = ("check_id", "ok", "detail")

    def line(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return f"{status} {self.check_id} {self.detail}"


class VerificationReport(Value):
    """A mutable, unhashable list of check records."""

    __slots__ = ("records",)
    _defaults = {"records": list}
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

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
