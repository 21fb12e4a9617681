"""The reference flight recorder the deferred one is tested against.

Before flight records rendered on read, :meth:`FlightRecorder.record`
built a :class:`ReferenceFlightEvent` on every call: one clock read, the
detail values rendered to strings and sorted by key, one deque append.
Every read then walked already-rendered events.  That obviously-correct
eager form lives here, in the test tree, so the production recorder can
be checked against it read for read.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable


def _fmt_value(value: object) -> str:
    if isinstance(value, bytes):
        return value[:6].hex()
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True, slots=True)
class ReferenceFlightEvent:
    """One event, its detail rendered at record time."""

    seq: int
    time_ms: float
    category: str
    kind: str
    detail: tuple[tuple[str, str], ...]

    def render(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self.detail)
        line = f"{self.seq:>7} {self.time_ms:>12.1f}ms {self.category:<9} {self.kind:<14}"
        return f"{line} {parts}".rstrip()

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time_ms": self.time_ms,
            "category": self.category,
            "kind": self.kind,
            "detail": dict(self.detail),
        }


class ReferenceFlightRecorder:
    """Bounded ring of events rendered when they are recorded."""

    def __init__(
        self,
        capacity: int = 4096,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._events: deque[ReferenceFlightEvent] = deque(maxlen=capacity)
        self.total_recorded = 0

    @property
    def evicted(self) -> int:
        return self.total_recorded - len(self._events)

    def record(self, category: str, kind: str, **detail: object) -> None:
        event = ReferenceFlightEvent(
            seq=self.total_recorded,
            time_ms=self.clock(),
            category=category,
            kind=kind,
            detail=tuple(sorted((k, _fmt_value(v)) for k, v in detail.items())),
        )
        self.total_recorded += 1
        self._events.append(event)

    def reset(self) -> None:
        self._events.clear()
        self.total_recorded = 0

    def events(
        self,
        categories: Iterable[str] | None = None,
        kinds: Iterable[str] | None = None,
    ) -> list[ReferenceFlightEvent]:
        cats = set(categories) if categories is not None else None
        knds = set(kinds) if kinds is not None else None
        return [
            e
            for e in self._events
            if (cats is None or e.category in cats)
            and (knds is None or e.kind in knds)
        ]

    def to_dicts(self, categories: Iterable[str] | None = None) -> list[dict]:
        return [e.to_dict() for e in self.events(categories)]

    def categories(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return dict(sorted(counts.items()))

    def render(
        self,
        categories: Iterable[str] | None = None,
        limit: int | None = None,
    ) -> str:
        if limit is not None and limit < 0:
            raise ValueError("flight recorder render limit must be >= 0")
        selected = self.events(categories)
        shown = selected if limit is None else selected[max(len(selected) - limit, 0):]
        header = (
            f"flight recorder: {len(shown)} of {len(selected)} matching events"
            f" ({self.total_recorded} recorded, {self.evicted} evicted)"
        )
        lines = [header]
        if len(shown) < len(selected):
            lines.append(f"... {len(selected) - len(shown)} earlier matching event(s) omitted")
        lines.extend(event.render() for event in shown)
        return "\n".join(lines)

    def digest(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(f"total={self.total_recorded};evicted={self.evicted}\n".encode())
        for event in self._events:
            hasher.update(event.render().encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def dump_json(self, categories: Iterable[str] | None = None) -> str:
        return json.dumps(
            {
                "total_recorded": self.total_recorded,
                "evicted": self.evicted,
                "events": self.to_dicts(categories),
            },
            indent=2,
            sort_keys=True,
        )
