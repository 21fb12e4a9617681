"""The secondary tier: epidemic floating replicas (Section 4.4.3,
Figure 5b).

"Secondary replicas do not participate in the serialization protocol, may
contain incomplete copies of an object's data, and can be more numerous
than primary replicas. ... Secondary replicas contain both tentative and
committed data.  They employ an epidemic-style communication pattern to
quickly spread tentative commits among themselves and to pick a tentative
serialization order."

Each :class:`SecondaryReplica` keeps a committed version log plus a set
of tentative (not-yet-serialized) updates.  Its *tentative state* is the
committed head with tentative updates applied in optimistic-timestamp
order, so every replica holding the same update set derives the same
tentative view.  Anti-entropy exchanges reconcile update sets pairwise;
committed results arriving down the dissemination tree retire tentative
entries.  Replicas beyond a low-bandwidth tree edge receive
*invalidations* instead of update bodies and pull the bytes on demand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.consistency.dissemination import DisseminationTree
from repro.consistency.pbft import SMALL_MESSAGE_BYTES
from repro.consistency.timestamps import tentative_order
from repro.data.update import DataObjectState, Update, apply_update
from repro.data.version_log import VersionLog
from repro.sim.network import Message, Network, NodeId
from repro.telemetry import coalesce
from repro.util.ids import GUID


# -- wire messages ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TentativeGossip:
    """Push of tentative updates during anti-entropy."""

    updates: tuple[Update, ...]
    sender: NodeId


@dataclass(frozen=True, slots=True)
class AntiEntropyRequest:
    """Pull side of anti-entropy: what the requester already knows."""

    object_guid: GUID
    known_tentative: tuple[bytes, ...]
    committed_through: int
    sender: NodeId


@dataclass(frozen=True, slots=True)
class CommittedPush:
    """A serialized update flowing down the dissemination tree."""

    seq: int
    update: Update


@dataclass(frozen=True, slots=True)
class Invalidation:
    """Bandwidth-saving stand-in for a committed update at leaf edges."""

    seq: int
    object_guid: GUID
    update_id: bytes


@dataclass(frozen=True, slots=True)
class PullRequest:
    object_guid: GUID
    seq: int
    sender: NodeId


@dataclass(frozen=True, slots=True)
class PullResponse:
    seq: int
    update: Update


class SecondaryReplica:
    """One floating replica in the secondary tier (single object)."""

    def __init__(self, network_id: NodeId, tier: "SecondaryTier") -> None:
        self.network_id = network_id
        self.tier = tier
        self.committed_log = VersionLog()
        self.committed_updates: dict[int, Update] = {}
        self.committed_through = -1
        self._commit_buffer: dict[int, Update] = {}
        self.tentative: dict[bytes, Update] = {}
        self.invalidated: dict[int, Invalidation] = {}
        self._tentative_cache: DataObjectState | None = None

    # -- state views ----------------------------------------------------------

    @property
    def committed_state(self) -> DataObjectState:
        return self.committed_log.head

    def tentative_state(self) -> DataObjectState:
        """Committed head plus tentative updates in timestamp order.

        Aborting tentative updates are skipped; they may still commit
        later if the final serialization puts them after state changes
        that satisfy their predicates.
        """
        if self._tentative_cache is None:
            state = self.committed_log.head
            for update in tentative_order(self.tentative.values()):
                _, state = apply_update(state, update)
            self._tentative_cache = state
        return self._tentative_cache

    @property
    def is_stale(self) -> bool:
        """True when an invalidation told us we miss committed bytes."""
        return bool(self.invalidated)

    def _invalidate_cache(self) -> None:
        self._tentative_cache = None

    # -- local ingestion --------------------------------------------------------

    def add_tentative(self, update: Update) -> None:
        if update.update_id in self.tentative:
            return
        if any(u.update_id == update.update_id for u in self.committed_updates.values()):
            return
        if not update.verify_signature():
            return
        self.tentative[update.update_id] = update
        self._invalidate_cache()

    def apply_committed(self, seq: int, update: Update) -> None:
        """Apply a serialized update (in order; out-of-order buffers)."""
        if seq <= self.committed_through:
            return
        self._commit_buffer[seq] = update
        while self.committed_through + 1 in self._commit_buffer:
            next_seq = self.committed_through + 1
            next_update = self._commit_buffer.pop(next_seq)
            self.committed_log.apply(next_update)
            self.committed_updates[next_seq] = next_update
            self.committed_through = next_seq
            self.tentative.pop(next_update.update_id, None)
            self.invalidated.pop(next_seq, None)
            self._invalidate_cache()

    # -- message handling ------------------------------------------------------------

    def handle(self, message: Message) -> None:
        """Dispatch one tier message.

        A node can host secondary replicas of *several* objects, all
        subscribed to the same mailbox, so every branch first checks the
        payload names this tier's object -- without that, one object's
        committed pushes would silently apply to another object's
        replica on a shared node.
        """
        # subscribed with exactly the table's keys; the table is read per
        # message because benchmark tracers wrap its values in place
        _SECONDARY_DISPATCH[type(message.payload)](self, message.payload)

    def _on_tentative_gossip(self, payload: TentativeGossip) -> None:
        guid = self.tier.object_guid
        for update in payload.updates:
            if update.object_guid == guid:
                self.add_tentative(update)

    def _on_anti_entropy_request(self, payload: AntiEntropyRequest) -> None:
        if payload.object_guid == self.tier.object_guid:
            self._serve_anti_entropy(payload)

    def _on_committed_push(self, payload: CommittedPush) -> None:
        if payload.update.object_guid != self.tier.object_guid:
            return
        self.apply_committed(payload.seq, payload.update)
        self.tier._forward_down_tree(self.network_id, payload)

    def _on_invalidation(self, payload: Invalidation) -> None:
        if payload.object_guid != self.tier.object_guid:
            return
        if payload.seq > self.committed_through:
            self.invalidated[payload.seq] = payload
            self._invalidate_cache()
        self.tier._forward_down_tree(self.network_id, payload)

    def _on_pull_request(self, payload: PullRequest) -> None:
        if payload.object_guid != self.tier.object_guid:
            return
        update = self.committed_updates.get(payload.seq)
        if update is not None:
            self.tier.network.send(
                self.network_id,
                payload.sender,
                PullResponse(seq=payload.seq, update=update),
                size_bytes=update.size_bytes() + SMALL_MESSAGE_BYTES,
                phase="pull",
                subsystem="dissemination",
            )

    def _on_pull_response(self, payload: PullResponse) -> None:
        if payload.update.object_guid == self.tier.object_guid:
            self.apply_committed(payload.seq, payload.update)

    def _serve_anti_entropy(self, request: AntiEntropyRequest) -> None:
        known = set(request.known_tentative)
        missing = tuple(
            u for uid, u in sorted(self.tentative.items()) if uid not in known
        )
        if missing:
            self.tier.network.send(
                self.network_id,
                request.sender,
                TentativeGossip(updates=missing, sender=self.network_id),
                size_bytes=sum(u.size_bytes() for u in missing) + SMALL_MESSAGE_BYTES,
                phase="anti_entropy",
                subsystem="dissemination",
            )
        # Committed catch-up: stream anything the requester lacks.
        for seq in sorted(self.committed_updates):
            if seq > request.committed_through:
                update = self.committed_updates[seq]
                self.tier.network.send(
                    self.network_id,
                    request.sender,
                    CommittedPush(seq=seq, update=update),
                    size_bytes=update.size_bytes() + SMALL_MESSAGE_BYTES,
                    phase="anti_entropy",
                    subsystem="dissemination",
                )

    # -- initiating exchanges -----------------------------------------------------------

    def start_anti_entropy(self, partner: NodeId) -> None:
        """Push-pull with a partner: advertise what we know, push our
        tentative set."""
        request = AntiEntropyRequest(
            object_guid=self.tier.object_guid,
            known_tentative=tuple(sorted(self.tentative)),
            committed_through=self.committed_through,
            sender=self.network_id,
        )
        self.tier.network.send(
            self.network_id,
            partner,
            request,
            size_bytes=SMALL_MESSAGE_BYTES + 8 * len(self.tentative),
            phase="anti_entropy",
            subsystem="dissemination",
        )
        if self.tentative:
            self.tier.network.send(
                self.network_id,
                partner,
                TentativeGossip(
                    updates=tuple(self.tentative.values()), sender=self.network_id
                ),
                size_bytes=sum(u.size_bytes() for u in self.tentative.values())
                + SMALL_MESSAGE_BYTES,
                phase="anti_entropy",
                subsystem="dissemination",
            )

    def pull_missing(self) -> None:
        """Ask the tree parent for the bodies of invalidated versions.

        Requests every sequence number from the first gap through the
        newest invalidation: a replica that joined late may be missing
        updates *before* the invalidated one, and commits apply in order.
        """
        parent = self.tier.tree.parent(self.network_id)
        if parent is None or not self.invalidated:
            return
        newest = max(self.invalidated)
        for seq in range(self.committed_through + 1, newest + 1):
            self.tier.network.send(
                self.network_id,
                parent,
                PullRequest(
                    object_guid=self.tier.object_guid,
                    seq=seq,
                    sender=self.network_id,
                ),
                size_bytes=SMALL_MESSAGE_BYTES,
                phase="pull",
                subsystem="dissemination",
            )


#: payload type -> handler for :meth:`SecondaryReplica.handle`, and (its
#: keys) the types a replica's mailbox subscribes with, so heartbeats and
#: PBFT traffic on a shared node never reach it.
_SECONDARY_DISPATCH = {
    TentativeGossip: SecondaryReplica._on_tentative_gossip,
    AntiEntropyRequest: SecondaryReplica._on_anti_entropy_request,
    CommittedPush: SecondaryReplica._on_committed_push,
    Invalidation: SecondaryReplica._on_invalidation,
    PullRequest: SecondaryReplica._on_pull_request,
    PullResponse: SecondaryReplica._on_pull_response,
}


#: what :meth:`SecondaryTier._root_handle` serves from the pushed log
_ROOT_TYPES = (PullRequest, AntiEntropyRequest)


class SecondaryTier:
    """All secondary replicas of one object, plus their dissemination tree.

    The tree's root is the primary-tier contact node; committed updates
    enter via :meth:`push_committed` (wired to the inner ring's
    certificate callback by :mod:`repro.core`).
    """

    def __init__(
        self,
        network: Network,
        object_guid: GUID,
        root_contact: NodeId,
        rng: random.Random,
        max_fanout: int = 4,
        telemetry=None,
    ) -> None:
        self.network = network
        self.object_guid = object_guid
        self.rng = rng
        self.telemetry = coalesce(telemetry)
        self.tree = DisseminationTree(
            network,
            root=root_contact,
            max_fanout=max_fanout,
            telemetry=self.telemetry,
        )
        self.replicas: dict[NodeId, SecondaryReplica] = {}
        #: committed updates already pushed, kept so the tree root can
        #: serve pulls ("pull missing information from parents and
        #: primary replicas").
        self._pushed: dict[int, Update] = {}
        network.subscribe(root_contact, self._root_handle, _ROOT_TYPES)

    def _root_handle(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, PullRequest):
            if payload.object_guid != self.object_guid:
                return
            update = self._pushed.get(payload.seq)
            if update is not None:
                self.network.send(
                    self.tree.root,
                    payload.sender,
                    PullResponse(seq=payload.seq, update=update),
                    size_bytes=update.size_bytes() + SMALL_MESSAGE_BYTES,
                    phase="pull",
                    subsystem="dissemination",
                )
        elif isinstance(payload, AntiEntropyRequest):
            # Catch-up served from the primary tier's pushed log: an
            # orphan reparented directly under the root ("pull missing
            # information from parents and primary replicas") streams
            # everything it missed.
            if payload.object_guid != self.object_guid:
                return
            for seq in sorted(self._pushed):
                if seq > payload.committed_through:
                    update = self._pushed[seq]
                    self.network.send(
                        self.tree.root,
                        payload.sender,
                        CommittedPush(seq=seq, update=update),
                        size_bytes=update.size_bytes() + SMALL_MESSAGE_BYTES,
                        phase="anti_entropy",
                        subsystem="dissemination",
                    )

    def repoint_root(self, new_root: NodeId) -> None:
        """Move the tree root to a new primary-tier contact.

        Ring-membership handoff calls this when the shard's old contact
        node left the membership (or died): the pushed-update log and the
        whole tree shape survive, only the root mailbox moves.
        """
        old_root = self.tree.root
        if new_root == old_root:
            return
        self.network.unsubscribe(old_root, self._root_handle)
        self.tree.repoint_root(new_root)
        self.network.subscribe(new_root, self._root_handle, _ROOT_TYPES)

    def add_replica(self, network_id: NodeId, low_bandwidth: bool = False) -> SecondaryReplica:
        replica = SecondaryReplica(network_id, self)
        self.replicas[network_id] = replica
        self.network.subscribe(network_id, replica.handle, _SECONDARY_DISPATCH)
        self.tree.add_member(network_id)
        if low_bandwidth:
            self.tree.mark_low_bandwidth(network_id)
        return replica

    def remove_replica(self, network_id: NodeId) -> None:
        replica = self.replicas.pop(network_id, None)
        if replica is not None:
            self.network.unsubscribe(network_id, replica.handle)
        self.tree.remove_member(network_id)

    def repair_member_failure(self, network_id: NodeId) -> dict[NodeId, NodeId]:
        """Remove a *dead* member: orphans reattach under live nodes only.

        Unlike :meth:`remove_replica` (a graceful departure), this is the
        recovery path: the dead replica's state is unrecoverable, so its
        record is simply dropped, and orphaned children are reparented
        with a liveness filter so they never land under another corpse.
        Returns the ``orphan -> new parent`` mapping so the caller can
        drive catch-up anti-entropy.
        """
        replica = self.replicas.pop(network_id, None)
        if replica is not None:
            self.network.unsubscribe(network_id, replica.handle)
        return self.tree.remove_member(
            network_id,
            candidate_filter=lambda member: not self.network.is_down(member),
        )

    # -- tentative path -----------------------------------------------------------

    def submit_tentative(self, client_node: NodeId, update: Update, fanout: int = 2) -> None:
        """Client sends the update to a few random secondary replicas
        (Figure 5a: '... as well as to several other random replicas')."""
        if not self.replicas:
            return
        targets = self.rng.sample(
            sorted(self.replicas), min(fanout, len(self.replicas))
        )
        tel = self.telemetry
        with tel.span("secondary.tentative", client=client_node):
            for target in targets:
                self.network.send(
                    client_node,
                    target,
                    TentativeGossip(updates=(update,), sender=client_node),
                    size_bytes=update.size_bytes() + SMALL_MESSAGE_BYTES,
                    phase="tentative",
                    subsystem="dissemination",
                )

    def epidemic_round(self) -> None:
        """Each replica anti-entropies with one random partner."""
        ids = sorted(self.replicas)
        if len(ids) < 2:
            return
        if self.telemetry.enabled:
            self.telemetry.count("secondary_anti_entropy_rounds_total")
        for replica_id in ids:
            partner = self.rng.choice([i for i in ids if i != replica_id])
            self.replicas[replica_id].start_anti_entropy(partner)

    def start_epidemic_timer(self, kernel, interval_ms: float = 5_000.0) -> None:
        """Run anti-entropy continuously on a kernel timer (with jitter,
        so rounds don't synchronize across tiers)."""
        from repro.sim.kernel import Timer

        if getattr(self, "_timer", None) is not None and self._timer.running:
            return
        self._timer = Timer(
            kernel,
            interval_ms,
            self.epidemic_round,
            jitter=lambda: self.rng.uniform(0.0, interval_ms * 0.1),
        )
        self._timer.start()

    def stop_epidemic_timer(self) -> None:
        timer = getattr(self, "_timer", None)
        if timer is not None:
            timer.stop()

    # -- committed path ---------------------------------------------------------------

    def push_committed(self, seq: int, update: Update) -> None:
        """Multicast a serialized update down the dissemination tree,
        degrading to invalidations across low-bandwidth edges.

        The root sends one hop; each replica forwards to its children on
        receipt (see :meth:`_forward_down_tree`), so delivery time grows
        with tree depth as in a real overlay multicast.
        """
        self._pushed[seq] = update
        with self.telemetry.span("dissem.push", seq=seq):
            self.tree.send_to_children(
                self.tree.root,
                CommittedPush(seq=seq, update=update),
                size_bytes=update.size_bytes() + SMALL_MESSAGE_BYTES,
                small_payload=self._invalidation_for(seq, update.update_id),
                small_size_bytes=SMALL_MESSAGE_BYTES,
            )

    def _invalidation_for(self, seq: int, update_id: bytes) -> Invalidation:
        return Invalidation(seq=seq, object_guid=self.object_guid, update_id=update_id)

    def _forward_down_tree(self, node: NodeId, payload: object) -> None:
        """A replica received a tree push; forward it to its children."""
        if isinstance(payload, CommittedPush):
            self.tree.send_to_children(
                node,
                payload,
                size_bytes=payload.update.size_bytes() + SMALL_MESSAGE_BYTES,
                small_payload=self._invalidation_for(
                    payload.seq, payload.update.update_id
                ),
                small_size_bytes=SMALL_MESSAGE_BYTES,
            )
        elif isinstance(payload, Invalidation):
            # A node that only has the invalidation can only pass it on.
            self.tree.send_to_children(
                node, payload, size_bytes=SMALL_MESSAGE_BYTES
            )

    # -- queries -----------------------------------------------------------------------

    def consistent_fraction(self) -> float:
        """Fraction of replicas whose committed state matches the max seq."""
        if not self.replicas:
            return 1.0
        newest = max(r.committed_through for r in self.replicas.values())
        if newest < 0:
            return 1.0
        agree = sum(
            1 for r in self.replicas.values() if r.committed_through == newest
        )
        return agree / len(self.replicas)

    def tentative_agreement(self) -> float:
        """Fraction of replicas sharing the plurality tentative update set."""
        if not self.replicas:
            return 1.0
        signatures: dict[tuple[bytes, ...], int] = {}
        for replica in self.replicas.values():
            key = tuple(sorted(replica.tentative))
            signatures[key] = signatures.get(key, 0) + 1
        return max(signatures.values()) / len(self.replicas)
