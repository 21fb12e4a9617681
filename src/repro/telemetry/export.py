"""Deterministic trace export: Chrome trace-event / Perfetto JSON.

Renders the tracer's causal spans and the flight recorder's structured
events into one `trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
JSON document that ``ui.perfetto.dev`` (or ``chrome://tracing``) opens
directly.  Spans become async-nestable ``b``/``e`` pairs keyed by span
id so causal parent/child relationships survive the export; flight
events become instants on their own track; timestamps are virtual
kernel milliseconds scaled to the format's microseconds.

Determinism is the contract: events sort by timestamp with a stable
tiebreak on recording order, keys are emitted sorted, floats derive only
from simulated state -- so two same-seed runs export **byte-identical**
JSON, and a chaos failure artifact from CI diffs cleanly against a
local replay.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.telemetry.flightrec import FlightEvent
from repro.telemetry.tracing import Span

#: fixed virtual process/thread ids: one process, spans and flight
#: events on separate tracks
PID = 1
TID_SPANS = 1
TID_FLIGHT = 2


def _ts_us(time_ms: float) -> int:
    """Virtual ms -> integer trace-event microseconds (deterministic)."""
    return round(time_ms * 1000.0)


def trace_events(
    spans: Iterable[Span],
    flight: Iterable[FlightEvent],
    process_name: str = "repro-sim",
) -> list[dict]:
    """The sorted trace-event list (metadata first, then the timeline)."""
    events: list[dict] = []
    for span in spans:
        args = {k: str(v) for k, v in sorted(span.labels.items())}
        events.append(
            {
                "ph": "b",
                "cat": "span",
                "id": span.span_id,
                "name": span.name,
                "pid": PID,
                "tid": TID_SPANS,
                "ts": _ts_us(span.start_ms),
                "args": args,
            }
        )
        if span.end_ms is not None:
            events.append(
                {
                    "ph": "e",
                    "cat": "span",
                    "id": span.span_id,
                    "name": span.name,
                    "pid": PID,
                    "tid": TID_SPANS,
                    "ts": _ts_us(span.end_ms),
                }
            )
    for event in flight:
        args = {k: v for k, v in event.detail}
        args["seq"] = str(event.seq)
        events.append(
            {
                "ph": "i",
                "s": "t",
                "cat": event.category,
                "name": f"{event.category}.{event.kind}",
                "pid": PID,
                "tid": TID_FLIGHT,
                "ts": _ts_us(event.time_ms),
                "args": args,
            }
        )
    # Stable sort: equal timestamps keep recording order, so the export
    # is a pure function of the (deterministic) inputs.
    events.sort(key=lambda e: e["ts"])
    metadata = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": process_name},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": PID,
            "tid": TID_SPANS,
            "ts": 0,
            "args": {"name": "spans"},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": PID,
            "tid": TID_FLIGHT,
            "ts": 0,
            "args": {"name": "flight-recorder"},
        },
    ]
    return metadata + events


def perfetto_json(
    spans: Iterable[Span],
    flight: Iterable[FlightEvent],
    process_name: str = "repro-sim",
) -> str:
    """The complete export as a compact, byte-stable JSON string."""
    document = {
        "displayTimeUnit": "ms",
        "traceEvents": trace_events(spans, flight, process_name=process_name),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def export_telemetry(telemetry, process_name: str = "repro-sim") -> str:
    """Export a live :class:`~repro.telemetry.Telemetry` facade's spans
    and flight timeline; empty-but-valid JSON when telemetry is off."""
    if telemetry is None or not telemetry.enabled:
        return perfetto_json((), (), process_name=process_name)
    return perfetto_json(
        telemetry.tracer.spans,
        telemetry.flight.events(),
        process_name=process_name,
    )


__all__ = ["export_telemetry", "perfetto_json", "trace_events"]
