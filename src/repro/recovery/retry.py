"""Client-side retry budgets for degraded reads.

A :class:`RetryPolicy` is the client's patience, made explicit: a total
deadline in virtual milliseconds, a capped number of attempts, and an
exponential backoff whose jitter is drawn from a named
:class:`~repro.util.rng.SeedSequence` stream -- so two clients with the
same policy and seed back off identically, and a chaos run that embeds a
degraded read stays bit-replayable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import ConfigError, SeedSequence


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Deadline-budgeted exponential backoff with deterministic jitter."""

    #: total virtual-time budget for the whole read, across all rungs
    deadline_ms: float = 60_000.0
    #: maximum retry attempts (backoff sleeps) before giving up
    max_attempts: int = 4
    #: first backoff delay; later delays multiply by ``backoff_factor``
    backoff_base_ms: float = 1_000.0
    backoff_factor: float = 2.0
    #: each delay is stretched by up to this fraction, deterministically
    jitter_frac: float = 0.2
    #: seed for the jitter stream (same seed -> same schedule)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline_ms <= 0:
            raise ConfigError("deadline_ms must be positive")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.backoff_base_ms <= 0:
            raise ConfigError("backoff_base_ms must be positive")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ConfigError("jitter_frac must be in [0, 1]")

    def backoff_delays(self) -> list[float]:
        """The full backoff schedule (ms), one entry per attempt."""
        rng = SeedSequence(self.seed).derive("retry-backoff")
        delays = []
        delay = self.backoff_base_ms
        for _ in range(self.max_attempts):
            delays.append(delay * (1.0 + self.jitter_frac * rng.random()))
            delay *= self.backoff_factor
        return delays
