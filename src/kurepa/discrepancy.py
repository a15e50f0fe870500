"""Shared record type for claim verification results.

Every published claim the workbench re-checks produces one of these.
A mismatch always carries both values verbatim; nothing is silently
corrected. Field strings stay within [-0-9a-z_*^.] so the line format
claim_id,location,claimed,computed,status needs no quoting.
"""

from __future__ import annotations

MATCH = "match"
MISMATCH = "mismatch"


class DiscrepancyReport:
    """One checked claim; equality compares the five line fields, not the note."""

    __slots__ = ("claim_id", "location", "claimed", "computed", "status", "note")

    def __init__(self, claim_id: str, location: str, claimed: str, computed: str, status: str, note: str = "") -> None:
        if status not in (MATCH, MISMATCH):
            raise ValueError(f"status must be match or mismatch, got {status!r}")
        self.claim_id, self.location, self.claimed, self.computed = claim_id, location, claimed, computed
        self.status, self.note = status, note

    def _fields(self) -> tuple[str, ...]:
        return (self.claim_id, self.location, self.claimed, self.computed, self.status)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscrepancyReport):
            return NotImplemented
        return self._fields() == other._fields()

    def as_line(self) -> str:
        return ",".join(self._fields())


def compare(claim_id: str, location: str, claimed, computed, note: str = "") -> DiscrepancyReport:
    """Build a report by exact string comparison of the two rendered values.

    This is the status rule of every exact claim; report, which owns the
    claims, is its one caller. Only the real-valued rows judged within a
    tolerance (report's _near and physics.debruijn_bound_check) build
    DiscrepancyReport directly.
    """
    c1, c2 = str(claimed), str(computed)
    return DiscrepancyReport(
        claim_id=claim_id,
        location=location,
        claimed=c1,
        computed=c2,
        status=MATCH if c1 == c2 else MISMATCH,
        note=note,
    )
