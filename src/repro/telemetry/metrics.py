"""Per-deployment metrics registry: labelled counters.

Counters are keyed by name plus a tuple of ``label=value`` pairs, in the
style of Prometheus client libraries.  Distributions live in one other
place: an operation's latency goes to the SLO recorder
(:mod:`repro.telemetry.slo`) through ``Telemetry.observe``.

Label sets are bounded per metric name: once a metric has accumulated
``max_label_sets`` distinct label combinations, further combinations fold
into a single reserved overflow series (and are counted in
:attr:`MetricsRegistry.dropped_label_sets`) instead of growing memory
without bound -- mis-labelled instrumentation degrades gracefully rather
than taking the process down.
"""

from __future__ import annotations

#: label-set key: sorted tuple of (label, value) string pairs
LabelKey = tuple[tuple[str, str], ...]

#: reserved series that absorbs label sets beyond the cardinality cap
OVERFLOW_KEY: LabelKey = (("overflow", "true"),)


def label_key(labels: dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label mapping."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def flatten_name(name: str, key: LabelKey) -> str:
    """``name{k=v,...}`` rendering used for JSON export and tables."""
    if not key:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class MetricsRegistry:
    """Counters with label-cardinality limits.

    Mutation is cheap (a dict lookup and an add); the zero-overhead
    disabled path lives one level up, in
    :class:`repro.telemetry.NullTelemetry`.
    """

    def __init__(self, max_label_sets: int = 64) -> None:
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be >= 1")
        self.max_label_sets = max_label_sets
        self._counters: dict[str, dict[LabelKey, float]] = {}
        #: label sets folded into the overflow series, by metric name
        self.dropped_label_sets: dict[str, int] = {}

    # -- mutation ---------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        series = self._counters.setdefault(name, {})
        key = label_key(labels)
        if key not in series and len(series) >= self.max_label_sets:
            self.dropped_label_sets[name] = self.dropped_label_sets.get(name, 0) + 1
            key = OVERFLOW_KEY
        series[key] = series.get(key, 0) + value

    def reset(self) -> None:
        self._counters.clear()
        self.dropped_label_sets.clear()

    # -- reads ------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        return self._counters.get(name, {}).get(label_key(labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of one counter across every label set."""
        return sum(self._counters.get(name, {}).values())

    def label_sets(self, name: str) -> list[LabelKey]:
        return list(self._counters.get(name, {}))

    # -- export -----------------------------------------------------------

    def export(self) -> dict:
        """Plain JSON-able dict, same shape discipline as the
        ``benchmarks/results/*.json`` files (string keys, numbers/dicts
        as values) so traces and benchmark series can live side by side.
        """
        out: dict = {"counters": {}}
        for name, series in sorted(self._counters.items()):
            for key, value in sorted(series.items()):
                out["counters"][flatten_name(name, key)] = value
        if self.dropped_label_sets:
            out["dropped_label_sets"] = dict(sorted(self.dropped_label_sets.items()))
        return out
