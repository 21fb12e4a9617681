"""Heartbeat-based failure detection over the simulation kernel.

The paper's soft-state layers (Plaxton neighbor links, dissemination
trees) all assume *someone* notices a dead server; this is that someone.
An observer node pings every monitored node on a jittered kernel timer;
a node that misses ``suspicion_threshold`` consecutive rounds is
declared *suspected* and registered listeners (routing repair,
dissemination-tree repair) are notified.  A later ack clears the
suspicion and fires the restore listeners.

Everything runs through :class:`~repro.sim.network.Network` messages and
kernel timers, so detection latency is real (pings to a crashed node are
dropped by the network, acks ride actual links) and the suspicion
timeline is a deterministic function of the master seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.sim.kernel import Kernel, Timer
from repro.sim.network import Message, Network, NodeId
from repro.telemetry import coalesce

#: Wire size of a ping or ack (small control message).
HEARTBEAT_BYTES = 64


# slots for footprint, eq=False for a fast __init__ (no frozen
# per-field __setattr__, no generated __eq__): one ack is allocated per
# delivered ping, squarely on the kernel's hottest path
@dataclass(slots=True, eq=False)
class HeartbeatPing:
    round_no: int
    sender: NodeId


@dataclass(slots=True, eq=False)
class HeartbeatAck:
    round_no: int
    sender: NodeId


@dataclass
class Subscription:
    """A cancellable registration on the failure detector.

    Returned by :meth:`FailureDetector.subscribe`; call :meth:`cancel`
    to detach both callbacks (idempotent).
    """

    detector: "FailureDetector"
    on_suspect: Callable[[NodeId], None] | None = None
    on_restore: Callable[[NodeId], None] | None = None
    active: bool = True

    def cancel(self) -> None:
        if not self.active:
            return
        self.active = False
        if self.on_suspect is not None:
            self.detector._on_suspect.remove(self.on_suspect)
        if self.on_restore is not None:
            self.detector._on_restore.remove(self.on_restore)


class FailureDetector:
    """One observer's suspicion state over a set of monitored nodes."""

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        observer: NodeId,
        monitored: list[NodeId],
        rng: random.Random,
        interval_ms: float = 2_000.0,
        timeout_ms: float = 1_500.0,
        threshold: int = 2,
        telemetry=None,
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.observer = observer
        self.monitored = sorted(n for n in monitored if n != observer)
        self.interval_ms = interval_ms
        self.timeout_ms = timeout_ms
        self.threshold = threshold
        self.telemetry = coalesce(telemetry)
        #: consecutive missed rounds per node
        self.suspicion: dict[NodeId, int] = {}
        self.suspected: set[NodeId] = set()
        #: (virtual time, "suspect"|"restore", node) -- the determinism
        #: contract: same seed, same timeline
        self.timeline: list[tuple[float, str, NodeId]] = []
        self._last_ack: dict[NodeId, int] = {}
        self._round_no = 0
        self._on_suspect: list[Callable[[NodeId], None]] = []
        self._on_restore: list[Callable[[NodeId], None]] = []
        for node in self.monitored:
            network.subscribe(node, self._respond, (HeartbeatPing,))
        network.subscribe(observer, self._handle_ack, (HeartbeatAck,))
        self._timer = Timer(
            kernel,
            interval_ms,
            self._round,
            jitter=lambda: rng.uniform(0.0, interval_ms * 0.05),
            label="recovery.heartbeat",
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def close(self) -> None:
        """Stop, and give the network back its mailboxes: without this a
        discarded detector (and the system behind it) stays reachable
        from the network's handler table."""
        self.stop()
        for node in self.monitored:
            self.network.unsubscribe(node, self._respond)
        self.network.unsubscribe(self.observer, self._handle_ack)

    def subscribe(
        self,
        on_suspect: Callable[[NodeId], None] | None = None,
        on_restore: Callable[[NodeId], None] | None = None,
    ) -> Subscription:
        """Register for suspicion transitions; the public listener API.

        Callbacks fire in subscription order on each *transition* (a
        node newly suspected, a suspected node acking again) -- never on
        steady state.  Returns a :class:`Subscription` whose ``cancel``
        detaches both callbacks, so layered subsystems (tree repair, ring
        handoff) can unhook cleanly when torn down.
        """
        if on_suspect is None and on_restore is None:
            raise ValueError("subscribe needs at least one callback")
        if on_suspect is not None:
            self._on_suspect.append(on_suspect)
        if on_restore is not None:
            self._on_restore.append(on_restore)
        return Subscription(
            detector=self, on_suspect=on_suspect, on_restore=on_restore
        )

    # -- heartbeat rounds -----------------------------------------------------

    def _round(self) -> None:
        if self.network.is_down(self.observer):
            return  # a dead observer observes nothing
        self._round_no += 1
        round_no = self._round_no
        # Messages are immutable, so every monitored node gets the same
        # ping object: one allocation per round, not one per node.
        ping = HeartbeatPing(round_no, self.observer)
        send = self.network.send
        observer = self.observer
        for node in self.monitored:
            send(observer, node, ping, HEARTBEAT_BYTES, "heartbeat", "recovery")
        # fire-and-forget: post_after skips the EventHandle the old
        # call_after allocated and immediately discarded
        self.kernel.post_after(
            self.timeout_ms,
            lambda: self._evaluate(round_no),
            label="recovery.heartbeat-timeout",
        )

    def _respond(self, message: Message) -> None:
        payload = message.payload
        if payload.sender != self.observer:
            return
        self.network.send(
            message.dst,
            self.observer,
            HeartbeatAck(payload.round_no, message.dst),
            HEARTBEAT_BYTES,
            "heartbeat",
            "recovery",
        )

    def _handle_ack(self, message: Message) -> None:
        payload = message.payload
        last_ack = self._last_ack
        sender = payload.sender
        if payload.round_no > last_ack.get(sender, 0):
            last_ack[sender] = payload.round_no

    def _evaluate(self, round_no: int) -> None:
        if self.network.is_down(self.observer):
            return
        tel = self.telemetry
        for node in self.monitored:
            if self._last_ack.get(node, 0) >= round_no:
                self.suspicion[node] = 0
                if node in self.suspected:
                    self.suspected.discard(node)
                    self.timeline.append((self.kernel.now, "restore", node))
                    if tel.enabled:
                        tel.record("recovery", "restore", node=node)
                    for callback in self._on_restore:
                        callback(node)
                continue
            count = self.suspicion.get(node, 0) + 1
            self.suspicion[node] = count
            if count >= self.threshold and node not in self.suspected:
                self.suspected.add(node)
                self.timeline.append((self.kernel.now, "suspect", node))
                if tel.enabled:
                    tel.record(
                        "recovery", "suspect", node=node, missed_rounds=count
                    )
                for callback in self._on_suspect:
                    callback(node)
