"""Per-link message fault schedules: drop, duplicate, reorder, corrupt.

Real wide-area links misbehave in ways a crash model never exercises:
messages vanish probabilistically, arrive twice, arrive late and out of
order, or arrive garbled.  Every protocol in the reproduction claims to
tolerate this ("protocols must handle loss with timeouts and retries" --
:mod:`repro.sim.network`); this module makes the claim testable.

A :class:`LinkFaultRule` scopes a fault mix to an endpoint pattern and a
virtual-time window, so a scenario can say "between t=10s and t=40s,
drop 30% of everything into the stub domains" or "duplicate traffic
from node 7 forever".  :class:`NetworkFaultInjector` evaluates the rule
set per message from its own seeded RNG stream, keeping runs replayable
from a master seed.

This module deliberately imports nothing from :mod:`repro.sim.network`
(node ids are plain ints) so the network can consult the injector
without an import cycle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

NodeId = int


@dataclass(frozen=True, slots=True)
class LinkFaultRule:
    """One fault mix, scoped to an endpoint pattern and a time window.

    ``src``/``dst`` of ``None`` match any endpoint; with
    ``bidirectional`` (the default) the pattern also matches traffic
    flowing the other way.  All probabilities are independent per
    message: a message can be both delayed and duplicated.
    """

    src: NodeId | None = None
    dst: NodeId | None = None
    start_ms: float = 0.0
    end_ms: float = math.inf
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    #: max extra delay (uniform) applied when the reorder draw fires;
    #: enough to leapfrog messages sent later on the same link
    reorder_delay_ms: float = 250.0
    corrupt: float = 0.0
    bidirectional: bool = True

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.reorder_delay_ms < 0:
            raise ValueError(f"negative reorder_delay_ms: {self.reorder_delay_ms}")
        if self.end_ms < self.start_ms:
            raise ValueError("fault window ends before it starts")

    def matches(self, src: NodeId, dst: NodeId, now: float) -> bool:
        if not self.start_ms <= now < self.end_ms:
            return False
        if self._ends_match(src, dst):
            return True
        return self.bidirectional and self._ends_match(dst, src)

    def _ends_match(self, src: NodeId, dst: NodeId) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass(slots=True)
class FaultDecision:
    """What the injector decided for one message."""

    drop: bool = False
    duplicates: int = 0
    extra_delay_ms: float = 0.0
    corrupt: bool = False


#: Decision shared by every message no rule matches; immutable by
#: convention (callers only read it), so one instance serves all.
NO_FAULT = FaultDecision()


@dataclass
class NetworkFaultInjector:
    """Evaluates the installed rule set for every message sent.

    The network calls :meth:`decide` once per :meth:`Network.send`; the
    injector draws from its own RNG stream, so a deployment's fault
    pattern is a pure function of (master seed, rule set, traffic).
    """

    rng: random.Random
    rules: list[LinkFaultRule] = field(default_factory=list)
    stats_dropped: int = 0
    stats_duplicated: int = 0
    stats_reordered: int = 0
    stats_corrupted: int = 0

    def add_rule(self, rule: LinkFaultRule) -> LinkFaultRule:
        self.rules.append(rule)
        return rule

    def clear(self) -> None:
        self.rules.clear()

    def decide(self, src: NodeId, dst: NodeId, now: float) -> FaultDecision:
        matched = [r for r in self.rules if r.matches(src, dst, now)]
        if not matched:
            return NO_FAULT
        decision = FaultDecision()
        for rule in matched:
            if rule.drop and self.rng.random() < rule.drop:
                decision.drop = True
                self.stats_dropped += 1
                return decision  # dropped: no further effects apply
            if rule.duplicate and self.rng.random() < rule.duplicate:
                decision.duplicates += 1
                self.stats_duplicated += 1
            if rule.reorder and self.rng.random() < rule.reorder:
                decision.extra_delay_ms += self.rng.uniform(
                    0.0, rule.reorder_delay_ms
                )
                self.stats_reordered += 1
            if rule.corrupt and self.rng.random() < rule.corrupt:
                decision.corrupt = True
                self.stats_corrupted += 1
        return decision
