"""The sample distribution behind the SLO recorder's latency histograms.

The sample sizes here are modest, so a small pure-Python accumulator
keeps the dependency surface of the simulation core thin.  The telemetry
subsystem (:mod:`repro.telemetry.slo`) builds its histograms on
:class:`Distribution`, so quantile code lives in exactly one place.

Edge-case contract (explicit, and uniform across every statistic):

* **empty** distributions raise :class:`EmptyDistributionError` (a
  ``ValueError``) from ``mean``/``min``/``max``/``percentile`` -- never a
  silent ``0.0`` that could be mistaken for a measurement;
* **single-sample** distributions are well-defined: ``mean``/``min``/
  ``max`` and every percentile equal the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class EmptyDistributionError(ValueError):
    """A statistic was requested from a distribution with no samples."""


@dataclass
class Distribution:
    """Online accumulator for a sample distribution."""

    samples: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.samples.append(float(value))

    def _require_samples(self) -> None:
        if not self.samples:
            raise EmptyDistributionError("empty distribution")

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        self._require_samples()
        return sum(self.samples) / len(self.samples)

    @property
    def min(self) -> float:
        self._require_samples()
        return min(self.samples)

    @property
    def max(self) -> float:
        self._require_samples()
        return max(self.samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolation percentile, ``p`` in [0, 100]."""
        self._require_samples()
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    @staticmethod
    def quantile_key(q: float) -> str:
        """``p95`` for 95.0, ``p99.9`` for 99.9 -- stable summary keys."""
        if float(q).is_integer():
            return f"p{int(q)}"
        return f"p{q:g}"
