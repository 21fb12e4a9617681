"""Synthetic workload generators.

Section 3's motivating applications (groupware/email, digital libraries,
nomadic data) are qualitative; these generators produce traces that
exercise the same code paths, and the benchmark harness sweeps them:

* :func:`correlated_trace` -- embedded k-order access patterns plus
  noise, for the prefetching experiment (Section 5's claim);
* :func:`diurnal_trace` -- work-site/home-site migration cycles
  ("project files and email folder on a local machine during the work
  day, and waiting ... at home at night", Section 4.7.2);
* :class:`EmailWorkload` -- concurrent inbox appends and atomic moves
  (Section 3's email example).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.util.ids import GUID


def correlated_trace(
    pattern_length: int,
    repetitions: int,
    noise_rate: float,
    rng: random.Random,
    noise_objects: int = 50,
) -> list[GUID]:
    """A repeating access pattern with uniform noise injected.

    The Status-section prefetching claim -- "correctly captured
    high-order correlations, even in the presence of noise" -- is tested
    by sweeping ``noise_rate``.
    """
    if not 0 <= noise_rate < 1:
        raise ValueError("noise_rate must be in [0, 1)")
    pattern = [GUID.hash_of(f"pattern-{i}".encode()) for i in range(pattern_length)]
    trace: list[GUID] = []
    for _ in range(repetitions):
        for obj in pattern:
            if noise_rate and rng.random() < noise_rate:
                trace.append(
                    GUID.hash_of(f"noise-{rng.randrange(noise_objects)}".encode())
                )
            trace.append(obj)
    return trace


@dataclass(frozen=True, slots=True)
class DiurnalAccess:
    """One access in a day/night cycle: which site issued it."""

    object_guid: GUID
    site: str  # "work" or "home"
    time_ms: float


def diurnal_trace(
    cluster_size: int,
    days: int,
    accesses_per_period: int,
    rng: random.Random,
    day_length_ms: float = 86_400_000.0,
) -> list[DiurnalAccess]:
    """A cluster of objects touched at work by day, at home by night."""
    if days < 1 or cluster_size < 1 or accesses_per_period < 1:
        raise ValueError("days, cluster_size, accesses_per_period must be >= 1")
    cluster = [GUID.hash_of(f"project-{i}".encode()) for i in range(cluster_size)]
    trace = []
    half = day_length_ms / 2
    for day in range(days):
        day_start = day * day_length_ms
        for period, site in ((0.0, "work"), (half, "home")):
            for i in range(accesses_per_period):
                offset = (i + 0.5) * half / accesses_per_period
                trace.append(
                    DiurnalAccess(
                        object_guid=rng.choice(cluster),
                        site=site,
                        time_ms=day_start + period + offset,
                    )
                )
    return trace


@dataclass(frozen=True, slots=True)
class EmailOp:
    """One operation against a shared mail store."""

    kind: str  # "deliver", "read", "move"
    actor: str
    folder: str
    message: bytes
    target_folder: str | None = None


class EmailWorkload:
    """Concurrent mailbox traffic (Section 3).

    "an email inbox may be simultaneously written by numerous different
    users while being read by a single user.  Further, some operations,
    such as message move operations, must occur atomically."
    """

    FOLDERS = ("inbox", "archive")

    def __init__(
        self, senders: list[str], owner: str, rng: random.Random
    ) -> None:
        if not senders:
            raise ValueError("need at least one sender")
        self.senders = senders
        self.owner = owner
        self.rng = rng
        self._message_id = 0

    def next_ops(self, count: int) -> list[EmailOp]:
        """A batch of interleaved deliveries, reads, and moves."""
        ops = []
        for _ in range(count):
            roll = self.rng.random()
            if roll < 0.6:
                self._message_id += 1
                sender = self.rng.choice(self.senders)
                ops.append(
                    EmailOp(
                        kind="deliver",
                        actor=sender,
                        folder="inbox",
                        message=f"msg-{self._message_id} from {sender}".encode(),
                    )
                )
            elif roll < 0.85:
                ops.append(
                    EmailOp(
                        kind="read", actor=self.owner, folder="inbox", message=b""
                    )
                )
            else:
                ops.append(
                    EmailOp(
                        kind="move",
                        actor=self.owner,
                        folder="inbox",
                        message=b"",
                        target_folder="archive",
                    )
                )
        return ops
