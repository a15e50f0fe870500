"""In-memory spans for the traced run: name, start, end, parent and counts."""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": 0.0,
            "end": 0.0,
            "counts": counts,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def with_self_times(spans: list[dict]) -> list[dict]:
    """Copy spans adding self_s: duration minus the time its children cover."""
    covered: dict[tuple[str, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["trace"], s["parent"])
            covered[key] = covered.get(key, 0.0) + duration(s)
    return [dict(s, self_s=duration(s) - covered.get((s["trace"], s["id"]), 0.0)) for s in spans]


def total(spans: list[dict], name: str) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)


def count(spans: list[dict], name: str, key: str) -> int:
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)
