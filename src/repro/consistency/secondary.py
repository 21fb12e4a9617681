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
tentative view.  Anti-entropy exchanges reconcile update sets pairwise.

The dissemination tree carries the result of agreement as a
:class:`CommitNotice` -- object, seq, update id -- never the body.  A
replica that holds the update tentatively applies it from there; one
that does not pulls every missing seq from its tree parent.  A replica
announces seq s to its children only once it has *applied* s, so a
child's pull always finds the body at its parent.  Every tier of a
deployment shares one :class:`TierMailboxes`: one subscription per
replica host and one per tree root, each dispatching on the payload's
object GUID.
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
    """Push of tentative updates (one object's, at least one)."""

    updates: tuple[Update, ...]
    sender: NodeId

    @property
    def object_guid(self) -> GUID:
        return self.updates[0].object_guid


@dataclass(frozen=True, slots=True)
class AntiEntropyRequest:
    """Pull side of anti-entropy: what the requester already knows."""

    object_guid: GUID
    known_tentative: tuple[bytes, ...]
    committed_through: int
    sender: NodeId


@dataclass(frozen=True, slots=True)
class CommittedPush:
    """A serialized update in anti-entropy's committed catch-up stream."""

    seq: int
    update: Update

    @property
    def object_guid(self) -> GUID:
        return self.update.object_guid


@dataclass(frozen=True, slots=True)
class CommitNotice:
    """What one tree edge carries per commit: which update took ``seq``."""

    object_guid: GUID
    seq: int
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

    @property
    def object_guid(self) -> GUID:
        return self.update.object_guid


class SecondaryReplica:
    """One floating replica in the secondary tier (single object)."""

    def __init__(self, network_id: NodeId, tier: "SecondaryTier") -> None:
        self.network_id = network_id
        self.tier = tier
        self.committed_log = VersionLog()
        self.committed_updates: dict[int, Update] = {}
        self.committed_through = -1
        self._commit_buffer: dict[int, Update] = {}
        #: seq -> the parent asked for its body, until the seq applies
        self._pulling: dict[int, NodeId] = {}
        self.tentative: dict[bytes, Update] = {}
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
        """Apply a serialized update (in order; out-of-order buffers).

        Each seq applied here is announced to this replica's tree
        children, so their pulls for it find the body here.
        """
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
            self._pulling.pop(next_seq, None)
            self._invalidate_cache()
            self.tier.notify_children(self.network_id, next_seq, next_update.update_id)

    # -- message handling ------------------------------------------------------------

    def _on_tentative_gossip(self, payload: TentativeGossip) -> None:
        guid = self.tier.object_guid
        for update in payload.updates:
            if update.object_guid == guid:
                self.add_tentative(update)

    def _on_committed_push(self, payload: CommittedPush) -> None:
        self.apply_committed(payload.seq, payload.update)

    def _on_commit_notice(self, payload: CommitNotice) -> None:
        """Apply from the tentative copy if held, and pull every seq
        through the noticed one that is neither held nor asked for."""
        if payload.seq <= self.committed_through:
            return
        held = self.tentative.get(payload.update_id)
        if held is not None:
            self.apply_committed(payload.seq, held)
        parent = self.tier.tree.parent(self.network_id)
        if parent is None:
            return
        for seq in range(self.committed_through + 1, payload.seq + 1):
            if seq in self._commit_buffer or self._pulling.get(seq) == parent:
                continue
            self._pulling[seq] = parent
            self.tier.network.send(
                self.network_id,
                parent,
                PullRequest(
                    object_guid=self.tier.object_guid, seq=seq, sender=self.network_id
                ),
                size_bytes=SMALL_MESSAGE_BYTES,
                phase="pull",
                subsystem="dissemination",
            )

    def _on_pull_request(self, payload: PullRequest) -> None:
        self.tier.serve_pull(self.network_id, payload, self.committed_updates)

    def _on_pull_response(self, payload: PullResponse) -> None:
        self.apply_committed(payload.seq, payload.update)

    def _on_anti_entropy_request(self, request: AntiEntropyRequest) -> None:
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
        self.tier.stream_committed(self.network_id, request, self.committed_updates)

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


#: payload type -> replica handler, and (its keys) the types a replica
#: host's :class:`TierMailboxes` subscription takes, so heartbeats and
#: PBFT traffic on a shared node never reach it.  Read per message: the
#: benchmark's tracer wraps the values in place.
_SECONDARY_DISPATCH = {
    TentativeGossip: SecondaryReplica._on_tentative_gossip,
    AntiEntropyRequest: SecondaryReplica._on_anti_entropy_request,
    CommittedPush: SecondaryReplica._on_committed_push,
    CommitNotice: SecondaryReplica._on_commit_notice,
    PullRequest: SecondaryReplica._on_pull_request,
    PullResponse: SecondaryReplica._on_pull_response,
}


def _dispatch_to_replica(replica: SecondaryReplica, payload) -> None:
    _SECONDARY_DISPATCH[type(payload)](replica, payload)


class _GuidMailbox:
    """One subscription per node; a payload goes to what that node hosts
    for the payload's ``object_guid``, and nowhere else."""

    def __init__(self, network: Network, types, act) -> None:
        self.network = network
        self.types = tuple(types)
        self.act = act
        self.hosted: dict[NodeId, dict[GUID, object]] = {}

    def add(self, node: NodeId, guid: GUID, target: object) -> None:
        hosted = self.hosted.get(node)
        if hosted is None:
            hosted = self.hosted[node] = {}
            self.network.subscribe(node, self.handle, self.types)
        hosted[guid] = target

    def remove(self, node: NodeId, guid: GUID) -> None:
        hosted = self.hosted.get(node)
        if hosted is not None and hosted.pop(guid, None) is not None and not hosted:
            del self.hosted[node]
            self.network.unsubscribe(node, self.handle)

    def handle(self, message: Message) -> None:
        payload = message.payload
        target = self.hosted.get(message.dst, {}).get(payload.object_guid)
        if target is not None:
            self.act(target, payload)


class SecondaryTier:
    """All secondary replicas of one object, plus their dissemination tree.

    The tree's root is the owning ring's leader, moved by :meth:`root_at`
    on each view change; committed updates enter via :meth:`push_committed`
    (both wired to the inner ring's callbacks by :mod:`repro.core`).
    Tiers that share ``mailboxes`` share each node's subscription;
    without it a tier keeps its own.
    """

    def __init__(
        self,
        network: Network,
        object_guid: GUID,
        root_contact: NodeId,
        rng: random.Random,
        max_fanout: int = 4,
        telemetry=None,
        mailboxes: "TierMailboxes | None" = None,
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
        self.mailboxes = mailboxes if mailboxes is not None else TierMailboxes(network)
        self.mailboxes.roots.add(root_contact, object_guid, self)

    def serve_root(self, payload: PullRequest | AntiEntropyRequest) -> None:
        """The root serves pulls and catch-up from the primary tier's
        pushed log: an orphan reparented directly under the root streams
        everything it missed."""
        if isinstance(payload, PullRequest):
            self.serve_pull(self.tree.root, payload, self._pushed)
        else:
            self.stream_committed(self.tree.root, payload, self._pushed)

    def serve_pull(
        self, node: NodeId, request: PullRequest, committed: dict[int, Update]
    ) -> None:
        update = committed.get(request.seq)
        if update is not None:
            self.network.send(
                node,
                request.sender,
                PullResponse(seq=request.seq, update=update),
                size_bytes=update.size_bytes() + SMALL_MESSAGE_BYTES,
                phase="pull",
                subsystem="dissemination",
            )

    def stream_committed(
        self, node: NodeId, request: AntiEntropyRequest, committed: dict[int, Update]
    ) -> None:
        """Anti-entropy's committed catch-up: every seq the requester lacks."""
        for seq in sorted(committed):
            if seq > request.committed_through:
                update = committed[seq]
                self.network.send(
                    node,
                    request.sender,
                    CommittedPush(seq=seq, update=update),
                    size_bytes=update.size_bytes() + SMALL_MESSAGE_BYTES,
                    phase="anti_entropy",
                    subsystem="dissemination",
                )

    def root_at(self, node: NodeId) -> None:
        """Re-root the tree at the ring's new leader (view change) or new
        member (membership handoff), retiring ``node``'s secondary role
        first.  The pushed log and the tree's shape survive; children pull
        from the new root the seqs the old one never announced."""
        old_root = self.tree.root
        if node == old_root:
            return
        if node in self.tree.members:
            self.remove_replica(node)
        self.mailboxes.roots.remove(old_root, self.object_guid)
        self.tree.repoint_root(node)
        self.mailboxes.roots.add(node, self.object_guid, self)

    def add_replica(self, network_id: NodeId) -> SecondaryReplica:
        replica = SecondaryReplica(network_id, self)
        self.replicas[network_id] = replica
        self.mailboxes.replicas.add(network_id, self.object_guid, replica)
        self.tree.add_member(network_id)
        return replica

    def remove_replica(self, network_id: NodeId) -> None:
        if self.replicas.pop(network_id, None) is not None:
            self.mailboxes.replicas.remove(network_id, self.object_guid)
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
        if self.replicas.pop(network_id, None) is not None:
            self.mailboxes.replicas.remove(network_id, self.object_guid)
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
        """Announce a serialized update down the dissemination tree.

        The root sends a :class:`CommitNotice` one hop; each replica
        announces it to its children once it has applied the seq (see
        :meth:`SecondaryReplica.apply_committed`), so delivery time grows
        with tree depth as in a real overlay multicast.
        """
        self._pushed[seq] = update
        with self.telemetry.span("dissem.push", seq=seq):
            self.notify_children(self.tree.root, seq, update.update_id)

    def notify_children(self, node: NodeId, seq: int, update_id: bytes) -> None:
        self.tree.send_to_children(
            node,
            CommitNotice(object_guid=self.object_guid, seq=seq, update_id=update_id),
            size_bytes=SMALL_MESSAGE_BYTES,
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


class TierMailboxes:
    """The secondary tiers' mailboxes on one network: each replica host
    and each tree root holds one subscription, however many objects it
    serves, so a tier message runs one handler, not one per object."""

    def __init__(self, network: Network) -> None:
        self.replicas = _GuidMailbox(network, _SECONDARY_DISPATCH, _dispatch_to_replica)
        self.roots = _GuidMailbox(
            network, (PullRequest, AntiEntropyRequest), SecondaryTier.serve_root
        )
