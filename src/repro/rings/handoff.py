"""Ring-membership handoff: election, state transfer, epoch fencing.

When the failure detector suspects a current ring member, the shard must
replace it without losing the version logs it guards or the updates
still in flight.  The handoff runs in deterministic stages on the
simulation kernel:

1. **Election** (suspicion time): the dead members are identified, the
   rendezvous election (:mod:`repro.rings.election`) picks replacements
   from the spare transit nodes for the *next epoch*, and the surviving
   coordinator announces the new membership -- messages tagged
   ``(rings, election)``.  The shard is marked *transitioning*: new
   client submissions queue in the manager instead of entering the old
   ring.

2. **Drain + state transfer**: after a short drain window (letting
   in-flight agreement rounds finish), the coordinator streams each
   owned object's version log to every replacement as
   ``(rings, handoff)`` chunks, closed by a ``HandoffComplete`` marker.

3. **Install**: when every replacement holds every chunk, the old ring
   is detached from the network and retired, a fresh
   :class:`~repro.consistency.pbft.InnerRing` is built for the new
   epoch, the directory entry is republished through the mesh and
   announced as ``(rings, directory)`` traffic, dissemination-tree roots
   hosted on dead members are repointed, location publications move to
   the replacements, and queued plus known-but-unexecuted updates are
   re-submitted to the new ring.  Certificates from the old epoch are
   *fenced*: the system drops them, so a stale ring member can never
   commit into a shard it no longer owns.

4. **Watchdog**: if the transfer stalls -- the coordinator or a
   replacement crashed mid-handoff -- a kernel timer aborts the attempt
   and re-runs the election at a higher epoch with the enlarged dead
   set.  This retry loop is what the ``mid-handoff-crash`` chaos
   scenario exercises; with recovery disabled there is no handoff at
   all and the scenario's invariant oracle must fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.objects import PersistentObject
from repro.rings.directory import RingDescriptor
from repro.rings.election import plan_membership
from repro.sim.network import Message, NodeId
from repro.util.ids import GUID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.system import OceanStoreSystem
    from repro.data.update import Update

#: wire size of an election announcement / handoff control message
CONTROL_BYTES = 128


@dataclass(frozen=True, slots=True)
class ElectionAnnounce:
    """The coordinator's announcement of the next epoch's membership."""

    shard_id: int
    epoch: int
    members: tuple[NodeId, ...]


@dataclass(frozen=True, slots=True)
class StateHandoffChunk:
    """One object's version log, streamed to a replacement member."""

    shard_id: int
    epoch: int
    object_guid: GUID
    state: PersistentObject


@dataclass(frozen=True, slots=True)
class HandoffComplete:
    """End-of-stream marker: how many chunks the replacement should hold."""

    shard_id: int
    epoch: int
    chunk_count: int


@dataclass
class PendingHandoff:
    """Book-keeping for one in-flight epoch change."""

    shard_id: int
    epoch: int
    dead: tuple[NodeId, ...]
    replacements: tuple[NodeId, ...]
    new_members: tuple[NodeId, ...]
    coordinator: NodeId
    attempt: int
    owned: tuple[GUID, ...] = ()
    received: dict[NodeId, int] = field(default_factory=dict)
    done: set[NodeId] = field(default_factory=set)
    queued: list[tuple[NodeId, "Update"]] = field(default_factory=list)


class HandoffManager:
    """Drives deterministic election + state handoff for every shard."""

    def __init__(
        self,
        system: "OceanStoreSystem",
        drain_ms: float = 2_000.0,
        timeout_ms: float = 12_000.0,
        max_attempts: int = 5,
    ) -> None:
        self.system = system
        self.drain_ms = drain_ms
        self.timeout_ms = timeout_ms
        self.max_attempts = max_attempts
        self._active: dict[int, PendingHandoff] = {}
        #: highest epoch ever attempted per shard (retries must advance)
        self._attempted_epoch: dict[int, int] = {}
        self._subscribed: dict[int, list[NodeId]] = {}
        #: (virtual time, shard, epoch, dead, replacements) per completion
        self.completed: list[tuple[float, int, int, tuple, tuple]] = []
        self.stats_retries = 0
        self.stats_abandoned = 0
        self._transit = sorted(
            n
            for n, d in system.graph.nodes(data=True)
            if d["kind"] == "transit"
        )

    # -- wiring ------------------------------------------------------------

    def wire(self, detector) -> None:
        """Attach to the failure detector's public subscription API."""
        detector.subscribe(on_suspect=self.on_suspect)
        self._detector = detector

    # -- public queries ----------------------------------------------------

    @property
    def stats_handoffs(self) -> int:
        return len(self.completed)

    def is_active(self, shard_id: int) -> bool:
        return shard_id in self._active

    def active_handoffs(self) -> list[dict]:
        return [
            {
                "shard": p.shard_id,
                "epoch": p.epoch,
                "dead": list(p.dead),
                "replacements": list(p.replacements),
                "attempt": p.attempt,
            }
            for p in self._active.values()
        ]

    def queue_update(
        self, shard_id: int, client_node: NodeId, update: "Update"
    ) -> None:
        """Park a submission while the shard's membership is in flux."""
        pending = self._active.get(shard_id)
        if pending is not None:
            pending.queued.append((client_node, update))

    # -- suspicion entry point ---------------------------------------------

    def on_suspect(self, node: NodeId) -> None:
        for shard in self.system.rings.shards:
            if node in shard.members and shard.shard_id not in self._active:
                self._begin(shard.shard_id, attempt=0, carry_queue=[])

    def _dead_members(self, members) -> tuple[NodeId, ...]:
        network = self.system.network
        suspected = getattr(self._detector, "suspected", set())
        return tuple(
            m
            for m in members
            if network.is_down(m) or m in suspected
        )

    # -- stage 1: election --------------------------------------------------

    def _begin(self, shard_id: int, attempt: int, carry_queue: list) -> None:
        system = self.system
        shard = system.rings.shards[shard_id]
        dead = self._dead_members(shard.members)
        if not dead:
            shard.transitioning = False
            return
        if attempt >= self.max_attempts:
            self.stats_abandoned += 1
            if system.telemetry.enabled:
                system.telemetry.record(
                    "rings", "handoff_abandoned", shard=shard_id
                )
            shard.transitioning = False
            return
        survivors = [m for m in shard.members if m not in dead]
        if not survivors:
            # Nobody left to coordinate the transfer: the shard's state
            # is gone with its members.  It stays degraded and the
            # ownership invariant reports the orphaned range.
            self.stats_abandoned += 1
            if system.telemetry.enabled:
                system.telemetry.record(
                    "rings", "handoff_no_survivors", shard=shard_id
                )
            shard.transitioning = False
            return
        epoch = max(shard.epoch, self._attempted_epoch.get(shard_id, 0)) + 1
        self._attempted_epoch[shard_id] = epoch
        taken = system.rings.all_ring_nodes()
        suspected = getattr(self._detector, "suspected", set())
        spares = [
            n
            for n in self._transit
            if n not in taken
            and not system.network.is_down(n)
            and n not in suspected
        ]
        try:
            new_members = plan_membership(
                system.config.seed, shard_id, epoch, shard.members, dead, spares
            )
        except ValueError:
            # Not enough live spares: the shard stays degraded and the
            # ownership invariant will say so.  A later suspicion (or a
            # revive) re-triggers the attempt.
            self.stats_abandoned += 1
            if system.telemetry.enabled:
                system.telemetry.record(
                    "rings",
                    "handoff_no_spares",
                    shard=shard_id,
                    dead=len(dead),
                    spares=len(spares),
                )
            shard.transitioning = False
            return
        replacements = tuple(m for m in new_members if m not in shard.members)
        coordinator = survivors[0]
        pending = PendingHandoff(
            shard_id=shard_id,
            epoch=epoch,
            dead=dead,
            replacements=replacements,
            new_members=tuple(new_members),
            coordinator=coordinator,
            attempt=attempt,
            queued=carry_queue,
        )
        self._active[shard_id] = pending
        shard.transitioning = True
        for node in replacements:
            system.network.subscribe(
                node, self._handle, (StateHandoffChunk, HandoffComplete)
            )
        self._subscribed[shard_id] = list(replacements)
        for member in new_members:
            if member == coordinator:
                continue
            system.network.send(
                coordinator,
                member,
                ElectionAnnounce(shard_id, epoch, tuple(new_members)),
                size_bytes=CONTROL_BYTES + 8 * len(new_members),
                phase="election",
                subsystem="rings",
            )
        tel = system.telemetry
        if tel.enabled:
            tel.count("rings_elections_total")
            tel.record(
                "rings",
                "election",
                shard=shard_id,
                epoch=epoch,
                dead=",".join(str(d) for d in dead),
                replacements=",".join(str(r) for r in replacements),
            )
        system.kernel.call_after(
            self.drain_ms,
            lambda: self._transfer(shard_id, epoch),
            label="rings.handoff-drain",
        )
        system.kernel.call_after(
            self.timeout_ms,
            lambda: self._watchdog(shard_id, epoch),
            label="rings.handoff-watchdog",
        )

    # -- stage 2: state transfer --------------------------------------------

    def _owned_guids(self, shard) -> tuple[GUID, ...]:
        return tuple(
            sorted(
                (g for g in self.system.tiers if g in shard.range),
                key=lambda g: g.value,
            )
        )

    def _transfer(self, shard_id: int, epoch: int) -> None:
        pending = self._active.get(shard_id)
        if pending is None or pending.epoch != epoch:
            return
        system = self.system
        shard = system.rings.shards[shard_id]
        pending.owned = self._owned_guids(shard)
        source = pending.coordinator
        server = system.servers[source]
        for node in pending.replacements:
            for guid in pending.owned:
                obj = server.objects.get(guid)
                if obj is None:
                    continue
                copy = PersistentObject(
                    guid=guid, log=obj.log.snapshot(), archived=dict(obj.archived)
                )
                system.network.send(
                    source,
                    node,
                    StateHandoffChunk(shard_id, epoch, guid, copy),
                    size_bytes=copy.active.size_bytes
                    + 64 * len(copy.log.history()),
                    phase="handoff",
                    subsystem="rings",
                )
            system.network.send(
                source,
                node,
                HandoffComplete(shard_id, epoch, len(pending.owned)),
                size_bytes=CONTROL_BYTES,
                phase="handoff",
                subsystem="rings",
            )

    def _handle(self, message: Message) -> None:
        payload = message.payload
        pending = self._active.get(payload.shard_id)
        if (
            pending is None
            or pending.epoch != payload.epoch
            or message.dst not in pending.replacements
        ):
            return
        if isinstance(payload, StateHandoffChunk):
            server = self.system.servers[message.dst]
            server.objects[payload.object_guid] = payload.state
            pending.received[message.dst] = (
                pending.received.get(message.dst, 0) + 1
            )
        elif pending.received.get(message.dst, 0) >= payload.chunk_count:
            pending.done.add(message.dst)
            if pending.done == set(pending.replacements):
                self._finalize(payload.shard_id)

    # -- stage 3: install ----------------------------------------------------

    def _finalize(self, shard_id: int) -> None:
        system = self.system
        pending = self._active.pop(shard_id)
        self._unsubscribe(shard_id)
        shard = system.rings.shards[shard_id]
        old_ring = shard.ring

        # Pending-batch transfer: everything the survivors know about
        # but never executed gets re-submitted to the new epoch.
        executed: set[bytes] = set()
        for replica in old_ring.replicas:
            executed |= replica.executed_updates
        carry: dict[bytes, "Update"] = {}
        for replica in old_ring.replicas:
            if system.network.is_down(replica.network_id):
                continue
            for update in replica.known_by_digest.values():
                if update.update_id not in executed:
                    carry.setdefault(update.update_id, update)

        # Fence the old epoch: detach every old replica's mailbox, so the
        # stale ring can make no further progress; the certificate-path
        # epoch check in the system is the backstop for anything already
        # in flight.
        for replica in old_ring.replicas:
            system.network.unsubscribe(replica.network_id, replica.handle)

        new_members = list(pending.new_members)
        new_ring = system.build_ring(shard_id, pending.epoch, new_members)
        system.rings.install_ring(
            shard_id, pending.epoch, new_ring, new_members
        )
        # Directory: republish through the mesh and notify the members.
        system.rings.directory.announce(
            RingDescriptor(
                shard_id=shard_id,
                range=shard.range,
                epoch=pending.epoch,
                members=tuple(new_members),
            ),
            origin=pending.coordinator,
        )

        # Location + dissemination bookkeeping per owned object.  The
        # dead members' publications are NOT touched here: the routing
        # repairer scrubs a suspected node's pointers itself (it keeps
        # the publish paths; unpublishing would try to route *from* the
        # corpse).
        for guid in pending.owned:
            for node in pending.replacements:
                system.location.add_replica(node, guid)
                if system.recovery is not None:
                    system.recovery.register_publication(node, guid)
            tier = system.tiers.get(guid)
            if tier is not None and (
                tier.tree.root not in new_members
                or system.network.is_down(tier.tree.root)
            ):
                # Prefer a live new member that is not already one of
                # this tier's secondaries (an elected spare may have
                # been serving the tree); failing that, root_at retires
                # a live member's secondary role.
                live = [m for m in new_members if not system.network.is_down(m)]
                spares = [m for m in live if m not in tier.replicas]
                tier.root_at((spares or live)[0])
        if pending.owned:
            system.probabilistic.converge()

        # Re-drive the backlog: known-but-unexecuted survivors' requests
        # first, then submissions queued while the shard transitioned.
        # Anything the old epoch already executed is skipped -- replaying
        # it through the new ring would double-apply the update.
        for uid in sorted(carry):
            if uid not in system._outcomes:
                new_ring.submit(pending.coordinator, carry[uid])
        for client_node, update in pending.queued:
            if update.update_id not in system._outcomes:
                new_ring.submit(client_node, update)

        self.completed.append(
            (
                system.kernel.now,
                shard_id,
                pending.epoch,
                pending.dead,
                pending.replacements,
            )
        )
        tel = system.telemetry
        if tel.enabled:
            tel.record(
                "rings",
                "handoff_complete",
                shard=shard_id,
                epoch=pending.epoch,
                members=",".join(str(m) for m in new_members),
                resubmitted=len(carry) + len(pending.queued),
            )
        # A member that died *during* this handoff never re-fires the
        # detector transition; sweep for it now.
        if self._dead_members(new_members):
            self._begin(shard_id, attempt=0, carry_queue=[])

    # -- stage 4: watchdog ---------------------------------------------------

    def _watchdog(self, shard_id: int, epoch: int) -> None:
        pending = self._active.get(shard_id)
        if pending is None or pending.epoch != epoch:
            return  # finalized (or superseded) in time
        self._active.pop(shard_id)
        self._unsubscribe(shard_id)
        self.stats_retries += 1
        tel = self.system.telemetry
        if tel.enabled:
            tel.record(
                "rings",
                "handoff_retry",
                shard=shard_id,
                epoch=epoch,
                attempt=pending.attempt,
            )
        self._begin(
            shard_id, attempt=pending.attempt + 1, carry_queue=pending.queued
        )

    def _unsubscribe(self, shard_id: int) -> None:
        for node in self._subscribed.pop(shard_id, []):
            self.system.network.unsubscribe(node, self._handle)
