"""Shared record type for claim verification results.

Every published claim the workbench re-checks produces one of these.
A mismatch always carries both values verbatim; nothing is silently
corrected. Field strings stay within [-0-9a-z_*^.] so the line format
claim_id,location,claimed,computed,status needs no quoting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MATCH = "match"
MISMATCH = "mismatch"


@dataclass(frozen=True)
class DiscrepancyReport:
    claim_id: str
    location: str
    claimed: str
    computed: str
    status: str
    note: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.status not in (MATCH, MISMATCH):
            raise ValueError(f"status must be match or mismatch, got {self.status!r}")

    def as_line(self) -> str:
        return ",".join(
            (self.claim_id, self.location, self.claimed, self.computed, self.status)
        )


def compare(claim_id: str, location: str, claimed, computed, note: str = "") -> DiscrepancyReport:
    """Build a report by exact string comparison of the two rendered values.

    This is the status rule of every exact claim in the package; only the
    numeric checks judged within a tolerance build DiscrepancyReport directly.
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
