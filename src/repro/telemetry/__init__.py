"""Out-of-band observability for the reproduction's own internals.

The paper's introspection layer (:mod:`repro.introspect`) models the
*mechanism described by the paper* -- observation modules feeding
optimization modules.  This package is different: it watches the
reproduction itself, answering "where did this update's latency go?" and
"how many Bloom queries missed per node?" without editing source.

Four verbs, one store each:

* ``count`` -- labelled **counters** in a per-deployment registry
  (:mod:`repro.telemetry.metrics`) with label-cardinality limits and
  JSON export compatible with the ``benchmarks/results/*.json`` shape;
* ``observe`` -- an end-user operation's simulated latency, into the
  **SLO recorder** (:mod:`repro.telemetry.slo`), the one distribution
  store;
* ``record`` -- one structured event into the **flight recorder**
  (:mod:`repro.telemetry.flightrec`);
* ``span`` -- **causal trace spans** (:mod:`repro.telemetry.tracing`)
  propagated through kernel scheduling and network message delivery,
  so one client update yields a single span tree covering Bloom
  lookups, Plaxton routing, PBFT phases, dissemination-tree pushes,
  and archival encode/placement.

Everything defaults to **off**: instrumented components take an optional
``telemetry`` argument and fall back to :data:`DISABLED`, a shared null
object whose methods do nothing, so the disabled path costs one
attribute load per instrumentation site.  Hot paths additionally guard
on ``telemetry.enabled`` to skip even argument construction.  (The
simulation kernel and network stay import-free of this package: they
accept any object with this interface, keeping :mod:`repro.sim` a leaf.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.telemetry.flightrec import FlightEvent, FlightRecorder
from repro.telemetry.metrics import (
    OVERFLOW_KEY,
    MetricsRegistry,
    flatten_name,
    label_key,
)
from repro.telemetry.slo import SLORecorder, SLOViolation, validate_thresholds
from repro.telemetry.tracing import NULL_SPAN, Span, Tracer
from repro.util import ConfigError


class NullTelemetry:
    """The disabled telemetry object: every operation is a no-op.

    A single shared instance (:data:`DISABLED`) serves the entire
    process; ``span`` returns one preallocated null context manager, and
    ``wrap`` returns its argument unchanged, so leaving instrumentation
    in place costs essentially nothing when telemetry is off.
    """

    enabled = False
    #: no recorder when disabled (mirrors :attr:`Telemetry.flight`)
    flight = None
    #: no SLO recorder when disabled (mirrors :attr:`Telemetry.slo`)
    slo = None

    def count(self, name: str, value: float = 1, **labels: object) -> None:
        return None

    def record(self, category: str, kind: str, **detail: object) -> None:
        return None

    def observe(self, op: str, latency_ms: float, **labels: object) -> None:
        return None

    def span(self, name: str, **labels: object):
        return NULL_SPAN

    def wrap(self, callback: Callable[[], None]) -> Callable[[], None]:
        return callback

    def export(self, spans: bool = False, flight: bool = False) -> dict:
        return {}

    def render_spans(self, max_depth: int | None = None) -> str:
        return ""

    def reset(self) -> None:
        return None


#: The process-wide disabled singleton every component defaults to.
DISABLED = NullTelemetry()


def coalesce(telemetry) -> "Telemetry | NullTelemetry":
    """``telemetry`` if given, else the shared disabled singleton."""
    return telemetry if telemetry is not None else DISABLED


@dataclass
class TelemetryConfig:
    """Deployment knob for the telemetry subsystem (default: off)."""

    enabled: bool = False
    #: flight-recorder ring size; old events evict past this
    flight_capacity: int = 4096
    #: also record kernel schedule/fire events (noisy: one event per
    #: scheduled callback, so protocol events evict fast; opt-in)
    flight_kernel: bool = False
    #: declarative SLO limits: op -> {"p95": limit_ms, ...}; empty means
    #: record but never judge
    slo_thresholds: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.flight_capacity < 1:
            raise ConfigError("flight_capacity must be >= 1")
        validate_thresholds(self.slo_thresholds)


class Telemetry:
    """Live telemetry: counters, SLO latencies, flight records and
    trace spans behind one facade.

    ``clock`` supplies span timestamps -- wire it to the simulation
    kernel's virtual clock so traces are deterministic.
    """

    enabled = True

    def __init__(
        self,
        config: TelemetryConfig | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config or TelemetryConfig(enabled=True)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=clock)
        self.flight = FlightRecorder(
            capacity=self.config.flight_capacity, clock=clock
        )
        #: end-user operation latency recorder (sim time, deterministic)
        self.slo = SLORecorder(clock=clock, thresholds=self.config.slo_thresholds)

    # -- metrics and operation latency --------------------------------------

    def count(self, name: str, value: float = 1, **labels: object) -> None:
        self.metrics.inc(name, value, **labels)

    def observe(self, op: str, latency_ms: float, **labels: object) -> None:
        """Record one completed operation's simulated latency."""
        self.slo.observe(op, latency_ms, **labels)

    # -- flight recorder --------------------------------------------------

    def record(self, category: str, kind: str, **detail: object) -> None:
        """Append one structured event to the flight recorder."""
        self.flight.record(category, kind, **detail)

    # -- tracing ----------------------------------------------------------

    def span(self, name: str, **labels: object):
        return self.tracer.span(name, **labels)

    def wrap(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Kernel trace hook: bind a callback to the current span."""
        return self.tracer.wrap(callback)

    # -- export -----------------------------------------------------------

    def export(self, spans: bool = False, flight: bool = False) -> dict:
        """JSON-able snapshot; pass ``spans=True`` to include the trace
        forest and ``flight=True`` the flight-recorder timeline."""
        out = self.metrics.export()
        if spans:
            out["spans"] = self.tracer.span_tree()
        if flight:
            out["flight"] = {
                "total_recorded": self.flight.total_recorded,
                "evicted": self.flight.evicted,
                "events": self.flight.to_dicts(),
            }
        if self.slo.ops():
            out["slo"] = self.slo.summary()
        return out

    def render_spans(self, max_depth: int | None = None) -> str:
        return self.tracer.render(max_depth=max_depth)

    def reset(self) -> None:
        self.metrics.reset()
        self.tracer.reset()
        self.flight.reset()
        self.slo.reset()

    @classmethod
    def from_config(
        cls,
        config: TelemetryConfig,
        clock: Callable[[], float] | None = None,
    ) -> "Telemetry | NullTelemetry":
        """The configured instance, or :data:`DISABLED` when off."""
        if not config.enabled:
            return DISABLED
        return cls(config, clock=clock)


__all__ = [
    "DISABLED",
    "FlightEvent",
    "FlightRecorder",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullTelemetry",
    "OVERFLOW_KEY",
    "SLORecorder",
    "SLOViolation",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "Tracer",
    "coalesce",
    "flatten_name",
    "label_key",
]
