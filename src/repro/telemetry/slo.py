"""Operation SLO recorder: what the end user actually experienced.

Metrics count protocol internals; spans explain one operation.  This
module records the *edge* latency of every end-user operation -- create,
update, read, degraded read -- in simulated milliseconds, bucketed by
operation plus labels (owning ring shard, degraded-read rung), and
judges the percentiles against declarative thresholds from
``TelemetryConfig.slo_thresholds``.  It is telemetry's one distribution
store: ``Telemetry.observe`` lands here.

Synchronous operations record via :meth:`SLORecorder.observe`.  The
update path is asynchronous -- ``submit_update`` returns before PBFT
commits -- so it uses :meth:`begin`/:meth:`end` keyed by update id: the
clock starts at first submission (client retries keep the original
start, matching what a user waits through) and stops when the commit
certificate delivers, surviving cross-shard resolution and membership
handoffs because the update id, not the ring, is the key.

Everything is simulated time from the kernel clock, so same-seed runs
produce identical histograms; the chaos oracle can therefore gate on
"p95 read <= X under recovery" without flaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.stats import Distribution
from repro.telemetry.metrics import LabelKey, flatten_name, label_key
from repro.util import ConfigError

#: default summary quantiles (p50/p95/p99 -- the SLO vocabulary)
DEFAULT_QUANTILES: tuple[float, ...] = (50.0, 95.0, 99.0)


def validate_thresholds(thresholds: dict[str, dict[str, float]]) -> None:
    """Reject a threshold spec the judge could not apply.

    Every key must be ``p<q>`` with 0 <= q <= 100 and every limit >= 0;
    the error names the operation and the key, so a bad spec fails when
    it is configured, not after a whole run has been recorded.
    """
    for op, spec in thresholds.items():
        for key, limit in spec.items():
            try:
                q = float(key[1:]) if key.startswith("p") else None
            except ValueError:
                q = None
            if q is None or not 0 <= q <= 100:
                raise ConfigError(
                    f"slo_thresholds[{op!r}]: quantile key {key!r} must be "
                    f"p<q> with 0 <= q <= 100, e.g. 'p95'"
                )
            if not limit >= 0:
                raise ConfigError(f"slo_thresholds[{op!r}][{key!r}] must be >= 0")


def summary_table(summary: dict[str, dict[str, float]]) -> list[str]:
    """Text rows for a :meth:`SLORecorder.summary` dict: a header, then
    one row per op/label set with its mean, quantiles and max."""
    if not summary:
        return []
    columns = [k for k in next(iter(summary.values())) if k not in ("count", "min")]
    width = max(len(name) for name in summary)
    lines = [
        f"  {'operation':<{width}}  {'count':>6}  "
        + "  ".join(f"{k:>8}" for k in columns)
    ]
    for name, row in summary.items():
        cells = "  ".join(f"{row[k]:>8.1f}" for k in columns)
        lines.append(f"  {name:<{width}}  {int(row['count']):>6}  {cells}")
    return lines


@dataclass(frozen=True)
class SLOViolation:
    """One threshold the recorded distribution failed to meet."""

    op: str
    quantile: str
    limit_ms: float
    actual_ms: float
    count: int

    def describe(self) -> str:
        return (
            f"{self.op} {self.quantile}={self.actual_ms:.1f}ms exceeds "
            f"{self.limit_ms:.1f}ms (n={self.count})"
        )


class SLORecorder:
    """Per-operation sim-latency histograms plus threshold checking.

    ``thresholds`` maps operation name to ``{quantile: limit_ms}``,
    e.g. ``{"read": {"p95": 400.0}, "update": {"p99": 2500.0}}``.
    Checks run against the operation's aggregate distribution (all label
    sets merged), so a threshold covers every ring and rung at once.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        thresholds: dict[str, dict[str, float]] | None = None,
    ) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.thresholds: dict[str, dict[str, float]] = {
            op: dict(spec) for op, spec in (thresholds or {}).items()
        }
        self._dists: dict[str, dict[LabelKey, Distribution]] = {}
        #: open async operations: token -> (op, start_ms, labels)
        self._pending: dict[object, tuple[str, float, LabelKey]] = {}

    # -- recording ---------------------------------------------------------

    def observe(self, op: str, latency_ms: float, **labels: object) -> None:
        """Record one completed operation's simulated latency."""
        series = self._dists.setdefault(op, {})
        key = label_key(labels)
        dist = series.get(key)
        if dist is None:
            dist = series[key] = Distribution()
        dist.add(latency_ms)

    def begin(self, op: str, token: object, **labels: object) -> None:
        """Open an async operation.  A token already open keeps its
        original start time: a client's retry of the same update doesn't
        reset the latency the user has been waiting through."""
        if token in self._pending:
            return
        self._pending[token] = (op, self.clock(), label_key(labels))

    def end(self, token: object, **labels: object) -> float | None:
        """Close an async operation and record its latency; unknown
        tokens (duplicate commit delivery, SLO enabled mid-run) are
        ignored.  Extra labels merge over those given at begin."""
        entry = self._pending.pop(token, None)
        if entry is None:
            return None
        op, start_ms, begun = entry
        latency = self.clock() - start_ms
        merged = dict(begun)
        merged.update(label_key(labels))
        self.observe(op, latency, **merged)
        return latency

    def discard(self, token: object) -> None:
        self._pending.pop(token, None)

    @property
    def inflight(self) -> int:
        """Async operations begun but never ended (lost updates show up
        here, not as dishonestly fast samples)."""
        return len(self._pending)

    def reset(self) -> None:
        self._dists.clear()
        self._pending.clear()

    # -- reads -------------------------------------------------------------

    def histogram(self, op: str, **labels: object) -> Distribution | None:
        return self._dists.get(op, {}).get(label_key(labels))

    def aggregate(self, op: str) -> Distribution | None:
        """All samples for one operation, label sets merged."""
        series = self._dists.get(op)
        if not series:
            return None
        merged = Distribution()
        for dist in series.values():
            merged.extend(dist.samples)
        return merged

    def ops(self) -> list[str]:
        return sorted(self._dists)

    # -- reporting ---------------------------------------------------------

    def summary(
        self, quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    ) -> dict:
        """``{op{labels}: {count, mean, p50, ...}}`` -- JSON-able."""
        out: dict[str, dict[str, float]] = {}
        for op, series in sorted(self._dists.items()):
            for key, dist in sorted(series.items()):
                row: dict[str, float] = {
                    "count": float(dist.count),
                    "mean": dist.mean,
                    "min": dist.min,
                }
                for q in quantiles:
                    row[Distribution.quantile_key(q)] = dist.percentile(q)
                row["max"] = dist.max
                out[flatten_name(op, key)] = row
        return out

    def check(
        self, thresholds: dict[str, dict[str, float]] | None = None
    ) -> list[SLOViolation]:
        """Judge recorded latencies against thresholds (the configured
        ones by default).  Operations with no samples are not violations
        -- absence is a liveness question, answered elsewhere."""
        spec = thresholds if thresholds is not None else self.thresholds
        violations: list[SLOViolation] = []
        for op in sorted(spec):
            dist = self.aggregate(op)
            if dist is None:
                continue
            for qname in sorted(spec[op]):
                limit = spec[op][qname]
                q = float(qname[1:])
                actual = dist.percentile(q)
                if actual > limit:
                    violations.append(
                        SLOViolation(
                            op=op,
                            quantile=qname,
                            limit_ms=limit,
                            actual_ms=actual,
                            count=dist.count,
                        )
                    )
        return violations

    def render(
        self, quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    ) -> str:
        """Text report: one row per op/label set, then threshold verdicts."""
        summary = self.summary(quantiles)
        if not summary and not self._pending:
            return "no operations recorded"
        lines = summary_table(summary)
        if self._pending:
            lines.append(f"  inflight (begun, never completed): {self.inflight}")
        if self.thresholds:
            violations = self.check()
            if violations:
                lines.append("SLO violations:")
                lines.extend(f"  FAIL  {v.describe()}" for v in violations)
            else:
                lines.append("SLO thresholds: all met")
        return "\n".join(lines)


__all__ = [
    "DEFAULT_QUANTILES",
    "SLORecorder",
    "SLOViolation",
    "summary_table",
    "validate_thresholds",
]
