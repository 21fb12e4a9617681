"""Flight recorder: a bounded, deterministic ring buffer of structured events.

Metrics (:mod:`repro.telemetry.metrics`) aggregate; spans
(:mod:`repro.telemetry.tracing`) explain one operation's latency.  The
flight recorder answers the third question a failing run poses: *what
happened, in order, just before things went wrong?*  Components record
structured events -- kernel schedule/fire, ``Network.send``/deliver with
fault-schedule outcomes, PBFT phase transitions and view changes,
dissemination pushes, archival encode/repair -- into one ring buffer
whose capacity bounds memory, so it can stay on for an entire chaos run
and still hold the causally ordered tail when an invariant breaks.

Determinism is a hard requirement: every field of every event derives
from simulated state (virtual clock, seeded RNG streams, qualified
callback names -- never ``repr`` with object addresses), so two runs
from the same master seed produce **byte-identical** dumps.  The chaos
harness relies on this: a failure dump from CI replays locally, line for
line.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable


def _fmt_value(value: object) -> str:
    """Deterministic compact rendering of one detail value.

    ``bytes`` become a short hex prefix (digests and GUID material are
    long and the prefix is what humans compare); everything else renders
    via ``str`` -- never ``repr`` of arbitrary objects, which leaks
    memory addresses and breaks byte-identical replay.
    """
    if isinstance(value, bytes):
        return value[:6].hex()
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True, slots=True)
class FlightEvent:
    """One structured event: when, where in the system, and the details.

    ``detail`` is a sorted tuple of ``(key, value)`` string pairs --
    hashable and order-stable.  Events are built from the recorder's raw
    records when something reads them, not when they are recorded.
    """

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


#: one retained record as stored: ``(time_ms, category, kind, keys,
#: *values)``, ``keys`` being the interned ``tuple(detail)``
_Record = tuple


def _event(seq: int, record: _Record) -> FlightEvent:
    time_ms, category, kind, keys, *values = record
    detail = tuple(sorted(zip(keys, map(_fmt_value, values))))
    return FlightEvent(seq, time_ms, category, kind, detail)


class FlightRecorder:
    """Bounded ring buffer of flat records, read as :class:`FlightEvent`.

    Old records evict silently once ``capacity`` is reached (the evicted
    count is kept, so a dump states what it no longer holds).  Recording
    reads the clock and appends ``(time_ms, category, kind, keys,
    *values)``: no dict and no seq.  ``keys`` is interned in a shape
    table, one entry per key order at the call sites, and the i-th
    retained record's seq is ``evicted + i``.  Rendering waits until a
    read asks for events, so a record nobody reads is never rendered.
    That is exact only because detail values are immutable: ``int``,
    ``float``, ``str``, ``bytes``, ``bool``, ``None``,
    :class:`~repro.util.ids.GUID` or an ``Enum`` member.  Never record a
    value that can change after the call.  The disabled path lives one
    level up in :class:`repro.telemetry.NullTelemetry`.
    """

    def __init__(
        self,
        capacity: int = 4096,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._records: deque[_Record] = deque(maxlen=capacity)
        #: interned key tuples, one per distinct ``tuple(detail)``
        self._shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
        #: events ever recorded (retained + evicted); also the next seq
        self.total_recorded = 0

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.total_recorded - len(self._records)

    def record(self, category: str, kind: str, **detail: object) -> None:
        self.total_recorded += 1
        keys = tuple(detail)
        self._records.append(
            (self.clock(), category, kind, self._shapes.setdefault(keys, keys), *detail.values())
        )

    def reset(self) -> None:
        self._records.clear()
        self.total_recorded = 0

    # -- reads -------------------------------------------------------------

    def _select(
        self,
        categories: Iterable[str] | None = None,
        kinds: Iterable[str] | None = None,
    ) -> list[tuple[int, _Record]]:
        """``(seq, record)`` pairs in record order, optionally filtered."""
        cats = set(categories) if categories is not None else None
        knds = set(kinds) if kinds is not None else None
        return [
            (seq, r)
            for seq, r in enumerate(self._records, self.evicted)
            if (cats is None or r[1] in cats) and (knds is None or r[2] in knds)
        ]

    def events(
        self,
        categories: Iterable[str] | None = None,
        kinds: Iterable[str] | None = None,
    ) -> list[FlightEvent]:
        """Retained events in causal (record) order, optionally filtered."""
        return [_event(seq, r) for seq, r in self._select(categories, kinds)]

    def to_dicts(
        self, categories: Iterable[str] | None = None
    ) -> list[dict]:
        return [e.to_dict() for e in self.events(categories)]

    def categories(self) -> dict[str, int]:
        """Retained event count per category (dump header material)."""
        counts: dict[str, int] = {}
        for record in self._records:
            counts[record[1]] = counts.get(record[1], 0) + 1
        return dict(sorted(counts.items()))

    # -- dumps -------------------------------------------------------------

    def render(
        self,
        categories: Iterable[str] | None = None,
        limit: int | None = None,
    ) -> str:
        """Causally ordered text timeline.

        ``limit`` keeps the last N matching events (the interesting tail
        of a failure; ``0`` keeps none); a header line states what was
        filtered or evicted so a truncated dump never masquerades as a
        complete one.
        """
        if limit is not None and limit < 0:
            raise ValueError("flight recorder render limit must be >= 0")
        selected = self._select(categories)
        shown = selected if limit is None else selected[max(len(selected) - limit, 0):]
        header = (
            f"flight recorder: {len(shown)} of {len(selected)} matching events"
            f" ({self.total_recorded} recorded, {self.evicted} evicted)"
        )
        lines = [header]
        if len(shown) < len(selected):
            lines.append(f"... {len(selected) - len(shown)} earlier matching event(s) omitted")
        lines.extend(_event(seq, record).render() for seq, record in shown)
        return "\n".join(lines)

    def digest(self) -> str:
        """sha256 over the full retained timeline; replay-comparison key."""
        hasher = hashlib.sha256()
        hasher.update(f"total={self.total_recorded};evicted={self.evicted}\n".encode())
        for seq, record in enumerate(self._records, self.evicted):
            hasher.update(_event(seq, record).render().encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def dump_json(self, categories: Iterable[str] | None = None) -> str:
        """Machine-readable dump (stable key order)."""
        return json.dumps(
            {
                "total_recorded": self.total_recorded,
                "evicted": self.evicted,
                "events": self.to_dicts(categories),
            },
            indent=2,
            sort_keys=True,
        )


__all__ = ["FlightEvent", "FlightRecorder"]
