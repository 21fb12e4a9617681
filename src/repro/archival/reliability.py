"""Availability analytics for deep archival storage (Section 4.5).

The paper's formula: "Assuming uncorrelated faults among machines, one
can calculate the reliability at a given instant of time according to the
following formula:

    P = sum_{i=0}^{rf} C(m, i) * C(n - m, f - i) / C(n, f)

where P is the probability that a document is available, n is the number
of machines, m is the number of currently unavailable machines, f is the
number of fragments per document, and rf is the maximum number of
unavailable fragments that still allows the document to be retrieved."

Fragments land on f distinct machines chosen uniformly; the count of
fragments on down machines is hypergeometric.  The paper's worked
example: a million machines, 10% down -- two replicas give ~0.99; a
rate-1/2 code with 16 fragments gives ~0.999994 (five nines); 32
fragments improve reliability "by another factor of 4000".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.util import ConfigError


def document_availability(n: int, m: int, f: int, rf: int) -> float:
    """The paper's hypergeometric availability formula.

    ``rf`` is the number of *losable* fragments: for a rate k/f erasure
    code, rf = f - k; for plain replication with f replicas, rf = f - 1.
    """
    if not 0 <= m <= n:
        raise ConfigError(f"need 0 <= m <= n, got m={m}, n={n}")
    if not 1 <= f <= n:
        raise ConfigError(f"need 1 <= f <= n, got f={f}, n={n}")
    if not 0 <= rf < f:
        raise ConfigError(f"need 0 <= rf < f, got rf={rf}, f={f}")
    total = math.comb(n, f)
    acc = 0
    for i in range(min(rf, m) + 1):
        if f - i > n - m:
            continue
        acc += math.comb(m, i) * math.comb(n - m, f - i)
    return acc / total


def replication_availability(n: int, m: int, replicas: int) -> float:
    """Availability with simple whole-copy replication."""
    return document_availability(n, m, f=replicas, rf=replicas - 1)


def erasure_availability(n: int, m: int, fragments: int, rate: float) -> float:
    """Availability with a rate-``rate`` erasure code into ``fragments``."""
    if not 0 < rate < 1:
        raise ConfigError(f"rate must be in (0, 1), got {rate}")
    needed = math.ceil(fragments * rate)
    return document_availability(n, m, f=fragments, rf=fragments - needed)


def nines(p: float) -> float:
    """Express availability as a (fractional) count of nines."""
    if not 0 <= p < 1:
        if p == 1.0:
            return math.inf
        raise ValueError(f"availability must be in [0, 1], got {p}")
    return -math.log10(1 - p)


@dataclass(frozen=True, slots=True)
class MonteCarloResult:
    trials: int
    available: int

    @property
    def availability(self) -> float:
        return self.available / self.trials


def monte_carlo_availability(
    n: int,
    m: int,
    f: int,
    rf: int,
    rng: random.Random,
    trials: int = 2000,
) -> MonteCarloResult:
    """Empirical cross-check of the analytic formula.

    Each trial places f fragments on distinct machines and knocks out a
    uniform random m machines; the document survives if at most rf
    fragments were hit.  (Machines are sampled, not materialized, so
    n can be large.)
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    available = 0
    for _ in range(trials):
        # Fragment machines are distinct; each is down with the
        # hypergeometric dependence approximated exactly by sampling
        # without replacement from the down set via sequential draws.
        down_hits = 0
        remaining_down = m
        remaining_total = n
        for _ in range(f):
            if rng.random() < remaining_down / remaining_total:
                down_hits += 1
                remaining_down -= 1
            remaining_total -= 1
        if down_hits <= rf:
            available += 1
    return MonteCarloResult(trials=trials, available=available)


def storage_overhead(fragments: int, rate: float) -> float:
    """Storage multiplier relative to the raw data (1/rate)."""
    if not 0 < rate < 1:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    return 1.0 / rate


def paper_examples() -> dict[str, float]:
    """The worked numbers from Section 4.5, for the benchmark harness."""
    n, m = 1_000_000, 100_000
    return {
        "replication_2": replication_availability(n, m, replicas=2),
        "erasure_16_rate_half": erasure_availability(n, m, fragments=16, rate=0.5),
        "erasure_32_rate_half": erasure_availability(n, m, fragments=32, rate=0.5),
    }
