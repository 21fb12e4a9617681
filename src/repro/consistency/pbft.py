"""Byzantine agreement for the primary tier (Section 4.4.3).

"We replace this master replica with a primary tier of replicas.  These
replicas cooperate with one another in a Byzantine agreement protocol to
choose the final commit order for updates" -- with n = 3m + 1 replicas
tolerating m faults (footnote 8), in the style of Castro-Liskov PBFT [10].

This is a working implementation of PBFT's normal case (pre-prepare /
prepare / commit with in-order execution), its checkpoints and a view
change sufficient to survive leader failure, running over the simulated
network with accurate byte accounting -- the measured counterpart of the
Figure 6 analytic model.  Faulty replicas can be *silent* (crashed) or
*equivocating* (wrong digests, which honest replicas reject).

Every ``CHECKPOINT_INTERVAL`` executed slots each replica signs a digest
of its executed prefix; 2m+1 matching ones make a stable checkpoint, a
low watermark below which agreement state is dropped and which bounds
what a view change carries and re-agrees (Castro-Liskov sections 4.3
and 4.4).

To allow "later, offline verification by a party who did not participate
in the protocol" each replica signs its COMMIT vote over (view, seq,
digest); the 2m+1 signed COMMITs of one view that commit a slot are its
:class:`CommitCertificate` (the paper's planned proactive-threshold-
signature role, modelled with an aggregate of individual signatures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.consistency.byzantine import (
    ByzantineStrategy,
    CorruptDigestStrategy,
    DelayedStrategy,
    EquivocatingStrategy,
    SilentStrategy,
)
from repro.crypto.hashes import sha256
from repro.crypto.keys import Principal
from repro.data.update import Update
from repro.sim.kernel import Kernel, Timer
from repro.sim.network import Message, Network, NodeId
from repro.telemetry import coalesce
from repro.util import ConfigError, serialization

#: Size in bytes of small protocol messages (the paper's c1 ~ 100 bytes).
SMALL_MESSAGE_BYTES = 100


class FaultMode(Enum):
    HONEST = "honest"
    SILENT = "silent"
    EQUIVOCATE = "equivocate"
    DELAY = "delay"
    CORRUPT = "corrupt"


def strategy_for(mode: FaultMode) -> ByzantineStrategy | None:
    """The adversarial behaviour a marked replica actually executes."""
    if mode is FaultMode.HONEST:
        return None
    if mode is FaultMode.SILENT:
        return SilentStrategy()
    if mode is FaultMode.EQUIVOCATE:
        return EquivocatingStrategy()
    if mode is FaultMode.DELAY:
        return DelayedStrategy()
    return CorruptDigestStrategy()


# -- wire messages -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClientRequest:
    update: Update


@dataclass(frozen=True, slots=True)
class PrePrepare:
    """Leader's ordering proposal.

    Carries only digests: clients send the full update to every replica
    directly (Figure 5a), so re-shipping the body would double the
    large-update bandwidth floor -- the Figure 6 equation's (u+c2)*n
    term counts the body crossing the network once per replica.

    Every slot holds an ordered tuple of member update digests (the
    Castro-Liskov batching extension) and ``digest`` is their
    :func:`slot_digest`, so prepare/commit votes bind the composition,
    not just an opaque label.  A one-member slot travels with
    ``batch=()``: its digest is its member's, which keeps it
    wire-identical to the unbatched protocol.
    """

    view: int
    seq: int
    digest: bytes
    batch: tuple[bytes, ...] = ()

    @property
    def members(self) -> tuple[bytes, ...]:
        return self.batch or (self.digest,)


@dataclass(frozen=True, slots=True)
class PrepareMsg:
    view: int
    seq: int
    digest: bytes
    sender: int


@dataclass(frozen=True, slots=True)
class CommitMsg:
    """A commit vote, signed: ``signature`` is the sender's signature over
    :meth:`CommitCertificate.signed_payload` for (view, seq, digest), so
    the votes that commit a slot are also its certificate."""

    view: int
    seq: int
    digest: bytes
    sender: int
    signature: bytes


@dataclass(frozen=True, slots=True)
class PreparedReport:
    """One slot the sender has *prepared* (quorum of prepares).

    Carried in view-change messages so the new leader preserves the
    numbering of any slot that could have executed anywhere -- PBFT's
    safety rule across views.
    """

    seq: int
    digest: bytes


@dataclass(frozen=True, slots=True)
class CheckpointMsg:
    """A replica's signed claim that its executed prefix through ``seq``
    hashes to ``digest`` (Castro-Liskov's CHECKPOINT).  2m+1 matching
    ones from distinct replicas make the checkpoint stable, and are its
    proof."""

    seq: int
    digest: bytes
    sender: int
    signature: bytes

    @staticmethod
    def signed_payload(seq: int, digest: bytes) -> bytes:
        return serialization.encode(
            {"type": "pbft-checkpoint", "seq": seq, "digest": digest}
        )


@dataclass(frozen=True, slots=True)
class ViewChangeMsg:
    """A vote for ``new_view``: the sender's stable checkpoint proof
    and every slot it prepared above that checkpoint."""

    new_view: int
    sender: int
    prepared: tuple[PreparedReport, ...] = ()
    checkpoint: tuple[CheckpointMsg, ...] = ()


@dataclass(frozen=True, slots=True)
class NewViewMsg:
    new_view: int


@dataclass(frozen=True, slots=True)
class BodyFetchRequest:
    """New leader asking peers for an update body it never received.

    A preserved slot's digest can be known (from prepared reports) while
    the request body is not -- the client's copy to this replica may
    have been lost.  The slot must keep its digest, so the leader
    fetches the body rather than repurposing the sequence number.
    """

    digest: bytes
    sender: int


@dataclass(frozen=True, slots=True)
class BodyFetchResponse:
    """Body-fetch answer: a slot's ordered member bodies.

    ``digest`` is the slot digest they hash to, so the requester learns
    both the missing bodies and the composition (which it may never have
    seen if the pre-prepare was lost).
    """

    digest: bytes
    updates: tuple[Update, ...]


@dataclass(frozen=True, slots=True)
class CommitCertificate:
    """Proof that the primary tier serialized ``updates`` at slot ``seq``.

    The signed COMMITs of one view that committed the slot.  Verifiable
    offline: check 2m+1 distinct valid signatures over (view, seq,
    digest) against the ring's known replica keys.  The view is part of
    the signed bytes, so votes from two views never combine into one
    certificate.  The slot's whole ordered membership rides along;
    ``digest`` recomputes from the member digests, so a helper cannot
    splice bodies into a certificate.
    """

    view: int
    seq: int
    digest: bytes
    updates: tuple[Update, ...]
    signatures: tuple[tuple[int, bytes], ...]

    @staticmethod
    def signed_payload(view: int, seq: int, digest: bytes) -> bytes:
        return serialization.encode(
            {"type": "pbft-commit", "view": view, "seq": seq, "digest": digest}
        )

    def verify(self, ring: "InnerRing") -> bool:
        if len({idx for idx, _ in self.signatures}) < ring.quorum:
            return False
        payload = self.signed_payload(self.view, self.seq, self.digest)
        for idx, sig in self.signatures:
            if not 0 <= idx < ring.n:
                return False
            if not ring.replicas[idx].principal.public_key.verify(payload, sig):
                return False
        return True


@dataclass(frozen=True, slots=True)
class CatchUpRequest:
    """A lagging replica asking peers for committed state it missed.

    A single laggard cannot force a view change (the other replicas are
    satisfied and will not vote), so after a timeout it asks for state
    transfer instead.  Peers replay the certificates they hold, which
    also brings a replica below the stable checkpoint back up.
    """

    sender: int
    last_executed_seq: int


@dataclass(frozen=True, slots=True)
class CatchUpResponse:
    """Committed slots above the requester's execution horizon.

    Every slot a replica executed other than a no-op travels as its
    :class:`CommitCertificate` (a replica executes one only after
    committing on 2m+1 signed COMMITs or adopting a certificate, so it
    always holds one, and a Byzantine helper cannot forge it).  No-op
    gap fillers carry no signatures at all, so the requester only trusts
    a no-op claim confirmed by m+1 distinct helpers (at least one
    honest).
    """

    certificates: tuple[CommitCertificate, ...]
    noop_seqs: tuple[int, ...]
    sender: int


def update_digest(update: Update) -> bytes:
    return update.digest()


def slot_digest(members: tuple[bytes, ...]) -> bytes:
    """The digest a slot with these ordered member digests advertises.

    A one-member slot keeps its member's digest (wire-compatible with
    the unbatched protocol); larger slots hash the ordered membership,
    binding order and composition.
    """
    if len(members) == 1:
        return members[0]
    return sha256(b"pbft-batch" + b"".join(members))


def slot_digest_for(updates: tuple[Update, ...]) -> bytes:
    """The digest a slot carrying ``updates`` must advertise."""
    return slot_digest(tuple(update_digest(u) for u in updates))


#: Digest of the null request used to fill sequence gaps after a view
#: change (PBFT's no-op padding, so in-order execution never deadlocks
#: behind a slot nobody can complete).
NOOP_DIGEST = sha256(b"pbft-noop-request")

#: Wire-message type -> telemetry phase label.  With ``request`` (client
#: to all replicas) and the dissemination push this mirrors the
#: six-phase update flow of Section 4.4.5.
_PHASE_BY_TYPE: dict[type, str] = {
    PrePrepare: "pre_prepare",
    PrepareMsg: "prepare",
    CommitMsg: "commit",
    CheckpointMsg: "checkpoint",
    ViewChangeMsg: "view_change",
    NewViewMsg: "new_view",
    BodyFetchRequest: "body_fetch",
    BodyFetchResponse: "body_fetch",
    CatchUpRequest: "catch_up",
    CatchUpResponse: "catch_up",
}


# -- replica -----------------------------------------------------------------


@dataclass(slots=True)
class _Instance:
    """Per-(view, seq) agreement state.

    Prepares are a bitmask over replica indices; commits map each sender
    to its verified COMMIT signature, so the quorum that commits the
    slot is its certificate.  ``early_prepares`` and ``early_commits``
    buffer votes that arrive before the pre-prepare fixes the slot's
    digest (message reordering across partitions), keyed by digest; they
    exist only once such a vote arrives, and merge in when the digest is
    known.
    """

    digest: bytes | None = None
    #: ordered member bodies (None for a noop slot)
    updates: tuple[Update, ...] | None = None
    prepares: int = 0
    commits: dict[int, bytes] = field(default_factory=dict)
    committed: bool = False
    #: the bytes every COMMIT for this slot signs, built on first use
    #: and released once the slot commits
    payload: bytes | None = None
    early_prepares: dict[bytes, int] | None = None
    early_commits: dict[bytes, dict[int, bytes]] | None = None


class PBFTReplica:
    """One primary-tier replica."""

    VIEW_TIMEOUT_MS = 3_000.0
    #: executed slots between two checkpoints (Castro-Liskov's K)
    CHECKPOINT_INTERVAL = 64

    def __init__(
        self,
        index: int,
        network_id: NodeId,
        principal: Principal,
        ring: "InnerRing",
    ) -> None:
        self.index = index
        self.network_id = network_id
        self.principal = principal
        self.ring = ring
        self.fault_mode = FaultMode.HONEST
        #: adversarial behaviour executed when non-honest (None = honest)
        self.strategy: ByzantineStrategy | None = None
        self.view = 0
        self.next_seq = 0
        self.instances: dict[tuple[int, int], _Instance] = {}
        #: request or slot digest -> instances whose digest or members
        #: carry it (see :meth:`_assign_slot`)
        self._carried: dict[bytes, int] = {}
        self.executed_updates: set[bytes] = set()
        #: seq -> digest actually executed there (agreement-safety audit)
        self.executed_by_seq: dict[int, bytes] = {}
        self.last_executed_seq = -1
        #: committed or adopted slots above ``last_executed_seq``: each
        #: non-no-op slot's certificate, None for a no-op
        self.execution_queue: dict[int, CommitCertificate | None] = {}
        #: update digest -> body, for every request this replica has seen
        self.known_by_digest: dict[bytes, Update] = {}
        #: slot digest -> ordered member digests, for every slot of more
        #: than one member this replica has seen proposed or proven (see
        #: :meth:`_members_of`)
        self.slot_members: dict[bytes, tuple[bytes, ...]] = {}
        #: pre-prepares that arrived before their client request(s),
        #: keyed by slot digest; each waits for *all* its member bodies
        self._deferred_pre_prepares: dict[bytes, PrePrepare] = {}
        #: leader-side batch buffer (requests waiting to be proposed)
        self._batch_queue: list[Update] = []
        self._queued_digests: set[bytes] = set()
        self._batch_timer: object | None = None
        #: seq -> certificate of every executed slot but no-ops, served
        #: to lagging peers
        self.certificates: dict[int, CommitCertificate] = {}
        #: seq -> helpers claiming the slot executed as a no-op
        self._noop_claims: dict[int, set[int]] = {}
        #: view -> {sender -> that sender's prepared-slot reports}
        self.view_change_votes: dict[int, dict[int, tuple[PreparedReport, ...]]] = {}
        #: view -> {sender -> the checkpoint proof its vote carried}
        self.view_change_proofs: dict[int, dict[int, tuple[CheckpointMsg, ...]]] = {}
        #: the stable checkpoint's proof, and its seq: the low watermark
        #: at and below which agreement state is dropped
        self.stable_checkpoint: tuple[CheckpointMsg, ...] = ()
        self.low_watermark = -1
        #: checkpoint seq above the low watermark -> sender -> its
        #: verified CHECKPOINT
        self._checkpoint_votes: dict[int, dict[int, CheckpointMsg]] = {}
        #: digest of the executed prefix at the last checkpoint taken
        self._prefix_digest = b""
        #: update ids and deferred slot numbers waited on, oldest first
        self._waiting: dict[bytes | int, None] = {}
        self._progress_timer = Timer(
            ring.kernel,
            self.VIEW_TIMEOUT_MS,
            self._on_progress_timeout,
            label=f"pbft.progress[{index}]",
        )
        #: slot digest -> sequence number reserved for it while its bodies
        #: are fetched from peers (view-change recovery of lost requests)
        self._awaiting_body: dict[bytes, int] = {}

    # -- helpers ---------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.ring.leader_index(self.view) == self.index

    def _instance(self, view: int, seq: int) -> _Instance:
        """The instance for ``(view, seq)``; the only place one is made."""
        instance = self.instances.get((view, seq))
        if instance is None:
            instance = self.instances[(view, seq)] = _Instance()
        return instance

    def _assign_slot(
        self, instance: _Instance, digest: bytes, updates: tuple[Update, ...] | None
    ) -> None:
        """Fix an instance's slot, counting the votes held for its digest
        and keeping :attr:`_carried` counting each digest the instance
        answers to (its own and its members').  Callers learn a batch's
        composition first, so :meth:`_members_of` names the same members
        here as when the slot is released."""
        if instance.digest is not None:
            self._release_slot(instance.digest)
        instance.digest = digest
        instance.updates = updates
        instance.payload = None
        if instance.early_prepares:
            instance.prepares |= instance.early_prepares.pop(digest, 0)
        if instance.early_commits:
            instance.commits.update(instance.early_commits.pop(digest, {}))
        carried = self._carried
        for key in {digest, *self._members_of(digest)}:
            carried[key] = carried.get(key, 0) + 1

    def _release_slot(self, digest: bytes) -> None:
        """An instance let go of ``digest``: uncount it in :attr:`_carried`."""
        carried = self._carried
        for key in {digest, *self._members_of(digest)}:
            if carried[key] == 1:
                del carried[key]
            else:
                carried[key] -= 1

    def _broadcast(self, payload: object, size: int) -> None:
        if self.fault_mode is FaultMode.SILENT:
            return
        strategy = self.strategy
        phase = _PHASE_BY_TYPE[type(payload)]
        for other in self.ring.replicas:
            if other.index == self.index:
                continue
            if strategy is None:
                self.ring.network.send(
                    self.network_id,
                    other.network_id,
                    payload,
                    size,
                    phase=phase,
                    subsystem="pbft",
                )
                continue
            for wire_payload, delay_ms in strategy.outgoing(
                self, other.index, payload
            ):
                self._send_adversarial(
                    other.network_id, wire_payload, size, delay_ms, phase
                )

    def _send_adversarial(
        self,
        dst: NodeId,
        payload: object,
        size: int,
        delay_ms: float,
        phase: str,
    ) -> None:
        if delay_ms <= 0:
            self.ring.network.send(
                self.network_id, dst, payload, size, phase=phase, subsystem="pbft"
            )
            return
        self.ring.kernel.call_after(
            delay_ms,
            lambda: self.ring.network.send(
                self.network_id, dst, payload, size, phase=phase, subsystem="pbft"
            ),
            label=f"pbft.delayed_send[{self.index}]",
        )

    # -- message handling ---------------------------------------------------------

    def handle(self, message: Message) -> None:
        # The mailbox is subscribed with exactly the keys of the dispatch
        # table, so the network delivers nothing that misses it.  The table
        # is read per message, not bound at subscribe time: benchmark
        # tracers wrap its values in place.
        if self.fault_mode is not FaultMode.SILENT:
            payload = message.payload
            kind = type(payload)
            if kind in _VOTES and self.ring.index_of.get(message.src) != payload.sender:
                return  # a vote counts only from the replica that sent it
            _PBFT_DISPATCH[kind](self, payload)

    # -- normal case ----------------------------------------------------------------

    def _on_request(self, update: Update) -> None:
        if update.update_id in self.executed_updates:
            return
        if not update.verify_signature():
            return  # replicas drop unauthenticated requests
        if self.ring.authorizer is not None and not self.ring.authorizer(update):
            return  # write not allowed by the object's ACL (Section 4.2)
        digest = update_digest(update)
        self.known_by_digest[digest] = update
        # Every replica waits on the request -- including one that believes
        # it is the leader.  A view-desynced replica whose stale view
        # maps the leader role onto itself would otherwise propose into
        # the void and never fire the catch-up/view-change machinery
        # that is its only way back to the ring.
        self._wait_for(update.update_id)
        if (
            self.is_leader
            and not self._already_in_flight(digest)
            and digest not in self._queued_digests
            and not self._reserved(digest)
        ):
            self._enqueue_update(update)
        # The body may complete slots held back on it: a pre-prepare
        # deferred for missing bodies, or (as leader) a slot a view
        # change reserved, which fills at its original number.
        self._retry_deferred(digest)
        self._retry_reserved(digest)

    def _already_in_flight(self, digest: bytes) -> bool:
        """True if some slot already carries this request (client retry),
        either as the whole slot or as one member of a batch."""
        return digest in self._carried

    # -- leader-side batching ----------------------------------------------------

    def _in_flight_slots(self) -> int:
        """Slots this leader has proposed but not yet executed."""
        return self.next_seq - self.last_executed_seq - 1

    def _enqueue_update(self, update: Update) -> None:
        self._batch_queue.append(update)
        self._queued_digests.add(update_digest(update))
        self._maybe_flush_batch()

    def _maybe_flush_batch(self, force: bool = False) -> None:
        """Propose queued requests as batch slots.

        A batch seals when ``batch_size`` requests are waiting, when the
        ``batch_delay_ms`` timer expires on a partial batch (``force``),
        or immediately when no delay is configured.  The pipeline window
        bounds proposed-but-unexecuted slots: a closed window leaves the
        queue intact and :meth:`_execute_ready` drains it as rounds
        complete -- pipelining without unbounded in-flight state.
        """
        ring = self.ring
        if not self.is_leader:
            self._reset_batch_queue()
            return
        while self._batch_queue:
            if ring.pipeline_depth and self._in_flight_slots() >= ring.pipeline_depth:
                return  # window closed; execution reopens it
            if (
                not force
                and len(self._batch_queue) < ring.batch_size
                and ring.batch_delay_ms > 0
            ):
                self._arm_batch_timer()
                return
            members = tuple(self._batch_queue[: ring.batch_size])
            del self._batch_queue[: ring.batch_size]
            for member in members:
                self._queued_digests.discard(update_digest(member))
            seq = self.next_seq
            self.next_seq += 1
            self._propose_slot_at(seq, members)
        self._cancel_batch_timer()

    def _arm_batch_timer(self) -> None:
        if self._batch_timer is not None:
            return

        def flush() -> None:
            self._batch_timer = None
            self._maybe_flush_batch(force=True)

        self._batch_timer = self.ring.kernel.call_after(
            self.ring.batch_delay_ms, flush, label=f"pbft.batch_flush[{self.index}]"
        )

    def _cancel_batch_timer(self) -> None:
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None

    def _reset_batch_queue(self) -> None:
        """Drop the buffer (view change / leadership loss).  The bodies
        stay in ``known_by_digest``; the new leader's gap-fill step or a
        client retry re-proposes them."""
        self._batch_queue.clear()
        self._queued_digests.clear()
        self._cancel_batch_timer()

    # -- slot membership -----------------------------------------------------------

    def _members_of(self, slot: bytes) -> tuple[bytes, ...]:
        """A slot digest's ordered member digests.

        Unrecorded means one member whose digest is the slot's own -- or
        a batch whose composition is still unknown, which is the same
        answer for every caller: no body ever hashes to a batch digest.
        """
        return self.slot_members.get(slot, (slot,))

    def _learn_members(self, slot: bytes, members: tuple[bytes, ...]) -> None:
        if members != (slot,):
            self.slot_members[slot] = members

    def _updates_for_digest(self, digest: bytes) -> tuple[Update, ...] | None:
        """Resolve a slot digest to its ordered member bodies, if all
        are locally known; None while any body (or the composition) is
        missing."""
        members = self._members_of(digest)
        if all(d in self.known_by_digest for d in members):
            return tuple(self.known_by_digest[d] for d in members)
        return None

    def _register_slot_bodies(
        self, slot: bytes, updates: tuple[Update, ...]
    ) -> None:
        """Learn a proven slot's bodies and composition."""
        digests = tuple(update_digest(u) for u in updates)
        for member_digest, update in zip(digests, updates):
            self.known_by_digest[member_digest] = update
        self._learn_members(slot, digests)

    def _reserved(self, digest: bytes) -> bool:
        """True if this request digest belongs to a slot reserved by a
        view change -- the reservation, not a fresh slot, must carry it
        once every member is here."""
        return any(digest in self._members_of(slot) for slot in self._awaiting_body)

    def _retry_deferred(self, digest: bytes) -> None:
        """Process deferred pre-prepares whose bodies are all known now:
        ``digest``'s own slot first, then the rest in arrival order."""
        deferred = self._deferred_pre_prepares
        ready = sorted(
            (
                slot
                for slot, msg in deferred.items()
                if all(d in self.known_by_digest for d in msg.members)
            ),
            key=lambda slot: slot != digest,
        )
        for slot in ready:
            self._on_pre_prepare(deferred.pop(slot))

    def _retry_reserved(self, digest: bytes) -> None:
        """As leader, propose reserved slots whose bodies are all known
        now, in the same order as :meth:`_retry_deferred`."""
        if not self._awaiting_body or not self.is_leader:
            return
        for slot in sorted(self._awaiting_body, key=lambda slot: slot != digest):
            updates = self._updates_for_digest(slot)
            if updates is not None:
                self._propose_slot_at(self._awaiting_body.pop(slot), updates)

    def _propose_slot_at(self, seq: int, updates: tuple[Update, ...]) -> None:
        digests = tuple(update_digest(u) for u in updates)
        slot = slot_digest(digests)
        self._learn_members(slot, digests)
        instance = self._instance(self.view, seq)
        self._assign_slot(instance, slot, updates)
        instance.prepares |= 1 << self.index
        for member_digest, update in zip(digests, updates):
            self.known_by_digest[member_digest] = update
        tel = self.ring.telemetry
        if tel.enabled:
            tel.record(
                "pbft", "pre_prepare", view=self.view, seq=seq, leader=self.index
            )
            if self.ring.batching_enabled:
                # Batch boundary marker: which updates share this round.
                tel.record(
                    "pbft",
                    "batch_seal",
                    view=self.view,
                    seq=seq,
                    size=len(updates),
                    members=",".join(u.update_id[:4].hex() for u in updates),
                )
        # A one-member slot's digest names its member, so it travels
        # without a membership list, as the unbatched protocol's did.
        batch = digests if len(digests) > 1 else ()
        with self.ring.telemetry.span("pbft.pre_prepare", seq=seq, leader=self.index):
            self._broadcast(
                PrePrepare(self.view, seq, slot, batch),
                size=SMALL_MESSAGE_BYTES + 32 * len(batch),
            )
        self._maybe_prepared(self.view, seq)

    def _propose_noop_at(self, seq: int) -> None:
        """Fill a sequence gap with a null request (view-change padding)."""
        instance = self._instance(self.view, seq)
        self._assign_slot(instance, NOOP_DIGEST, None)
        instance.prepares |= 1 << self.index
        self._broadcast(
            PrePrepare(self.view, seq, NOOP_DIGEST), size=SMALL_MESSAGE_BYTES
        )
        self._maybe_prepared(self.view, seq)

    def _on_pre_prepare(self, msg: PrePrepare) -> None:
        if msg.view != self.view or msg.seq <= self.low_watermark:
            return
        updates: tuple[Update, ...] | None = None
        if msg.digest != NOOP_DIGEST:
            members = msg.members
            if slot_digest(members) != msg.digest:
                return  # membership does not hash to the slot digest
            # Record the composition even while bodies are missing: the
            # view-change and body-fetch paths need to know which member
            # digests a reserved slot stands for.
            self._learn_members(msg.digest, members)
            known = self.known_by_digest
            if any(d not in known for d in members):
                # Some client copies have not arrived yet; hold the
                # proposal until they (or fetched bodies) land, and wait
                # on its number, which catch-up alone may bring.
                self._deferred_pre_prepares[msg.digest] = msg
                if msg.seq > self.last_executed_seq:
                    self._wait_for(msg.seq)
                return
            updates = tuple(known[d] for d in members)
        instance = self._instance(msg.view, msg.seq)
        if instance.digest is not None and instance.digest != msg.digest:
            return  # conflicting pre-prepare for the slot
        self._assign_slot(instance, msg.digest, updates)
        for update in updates or ():
            # The client's own copy may never arrive (lossy links): this
            # pre-prepare can be the replica's only sight of the request.
            if update.update_id not in self.executed_updates:
                self._wait_for(update.update_id)
        instance.prepares |= 1 << self.ring.leader_index(msg.view) | 1 << self.index
        self._broadcast(
            PrepareMsg(msg.view, msg.seq, msg.digest, self.index),
            size=SMALL_MESSAGE_BYTES,
        )
        self._maybe_prepared(msg.view, msg.seq)
        self._maybe_committed(msg.view, msg.seq)

    def _on_prepare(self, msg: PrepareMsg) -> None:
        if (
            msg.view != self.view
            or msg.seq <= self.low_watermark
            or not 0 <= msg.sender < self.ring.n
        ):
            return
        instance = self._instance(msg.view, msg.seq)
        if instance.digest is None:
            # Pre-prepare not here yet (reordering); hold the vote.
            early = instance.early_prepares = instance.early_prepares or {}
            early[msg.digest] = early.get(msg.digest, 0) | 1 << msg.sender
            return
        if msg.digest != instance.digest:
            return  # mismatched digest: ignore (equivocator)
        instance.prepares |= 1 << msg.sender
        self._maybe_prepared(msg.view, msg.seq)

    def _maybe_prepared(self, view: int, seq: int) -> None:
        # A checkpoint that became stable meanwhile may have collected
        # the instance; it must not come back empty.
        instance = self.instances.get((view, seq))
        if instance is None or instance.digest is None or instance.committed:
            return
        if (
            instance.prepares.bit_count() >= self.ring.quorum
            and self.index not in instance.commits
        ):
            # The COMMIT carries this replica's signature: the quorum of
            # signed COMMITs that commits the slot also certifies it.
            signature = self.principal.sign(self._commit_payload(view, seq, instance))
            instance.commits[self.index] = signature
            tel = self.ring.telemetry
            if tel.enabled:
                tel.record("pbft", "prepared", view=view, seq=seq, replica=self.index)
            self._broadcast(
                CommitMsg(view, seq, instance.digest, self.index, signature),
                size=SMALL_MESSAGE_BYTES,
            )
            self._maybe_committed(view, seq)

    def _commit_payload(self, view: int, seq: int, instance: _Instance) -> bytes:
        """:meth:`CommitCertificate.signed_payload` for the instance's
        digest, built once per instance: every COMMIT signs the same bytes."""
        payload = instance.payload
        if payload is None:
            payload = instance.payload = CommitCertificate.signed_payload(
                view, seq, instance.digest
            )
        return payload

    def _on_commit(self, msg: CommitMsg) -> None:
        if (
            msg.view != self.view
            or msg.seq <= self.low_watermark
            or not 0 <= msg.sender < self.ring.n
        ):
            return
        instance = self._instance(msg.view, msg.seq)
        if instance.committed:
            return  # its certificate is already sealed
        key = self.ring.replicas[msg.sender].principal.public_key
        if instance.digest is None:
            # Pre-prepare not here yet (reordering); hold the vote, with
            # its signature, once the signature checks out.
            payload = CommitCertificate.signed_payload(msg.view, msg.seq, msg.digest)
            if key.verify(payload, msg.signature):
                early = instance.early_commits = instance.early_commits or {}
                early.setdefault(msg.digest, {})[msg.sender] = msg.signature
            return
        if msg.digest != instance.digest:
            return
        if not key.verify(self._commit_payload(msg.view, msg.seq, instance), msg.signature):
            return
        instance.commits[msg.sender] = msg.signature
        self._maybe_committed(msg.view, msg.seq)

    def _maybe_committed(self, view: int, seq: int) -> None:
        instance = self.instances.get((view, seq))
        if instance is None or instance.committed or instance.digest is None:
            return
        if len(instance.commits) < self.ring.quorum:
            return
        if instance.prepares.bit_count() < self.ring.quorum:
            return
        instance.committed = True
        instance.payload = None
        tel = self.ring.telemetry
        if tel.enabled:
            tel.record("pbft", "committed", view=view, seq=seq, replica=self.index)
        if seq > self.last_executed_seq:
            if instance.digest == NOOP_DIGEST:
                self.execution_queue[seq] = None
            else:
                assert instance.updates is not None
                self.execution_queue[seq] = CommitCertificate(
                    view=view,
                    seq=seq,
                    digest=instance.digest,
                    updates=instance.updates,
                    signatures=tuple(sorted(instance.commits.items())),
                )
        self._execute_ready()

    def _execute_ready(self) -> None:
        while self.last_executed_seq + 1 in self.execution_queue:
            seq = self.last_executed_seq + 1
            certificate = self.execution_queue.pop(seq)
            self.last_executed_seq = seq
            # Progress ends the view-change timeout's backoff.
            self._progress_timer.interval = self.VIEW_TIMEOUT_MS
            self._done_waiting(seq)
            if certificate is None:
                # no-op gap filler from a view change
                self.executed_by_seq[seq] = NOOP_DIGEST
            else:
                self._execute_slot(seq, certificate)
            if (seq + 1) % self.CHECKPOINT_INTERVAL == 0:
                self._take_checkpoint(seq)
        # Execution reopened the pipeline window; drain waiting requests.
        if self._batch_queue:
            self._maybe_flush_batch()

    def _execute_slot(self, seq: int, certificate: CommitCertificate) -> None:
        self.executed_by_seq[seq] = certificate.digest
        self.certificates[seq] = certificate
        executed_any = False
        for update in certificate.updates:
            if update.update_id in self.executed_updates:
                continue  # client retry already executed elsewhere
            self.executed_updates.add(update.update_id)
            self._done_waiting(update.update_id)
            with self.ring.telemetry.span("pbft.execute", seq=seq, replica=self.index):
                self.ring._replica_executed(self, seq, update)
            executed_any = True
        if not executed_any:
            return  # every member was a dup; nothing to attest
        # The commit quorum's signatures already certify the slot: one
        # certificate attests the whole batch, with no round after
        # execution.
        tel = self.ring.telemetry
        if tel.enabled:
            tel.count("pbft_certificates_total")
            tel.record("pbft", "certified", seq=seq, replica=self.index)
        with tel.span("pbft.certify", seq=seq, replica=self.index):
            self.ring._replica_certified(self, certificate)

    # -- checkpoints -------------------------------------------------------------------

    def _take_checkpoint(self, seq: int) -> None:
        """Sign and broadcast the digest of the executed prefix through
        ``seq``: the previous checkpoint's digest chained with the slot
        digests executed since."""
        first = seq - self.CHECKPOINT_INTERVAL + 1
        digest = sha256(
            b"pbft-checkpoint"
            + self._prefix_digest
            + b"".join(self.executed_by_seq[s] for s in range(first, seq + 1))
        )
        self._prefix_digest = digest
        signature = self.principal.sign(CheckpointMsg.signed_payload(seq, digest))
        own = CheckpointMsg(seq, digest, self.index, signature)
        self._broadcast(own, size=SMALL_MESSAGE_BYTES)
        self._checkpoint_votes.setdefault(seq, {})[self.index] = own
        self._maybe_stabilize(seq)

    def _on_checkpoint(self, msg: CheckpointMsg) -> None:
        if msg.seq <= self.low_watermark or not 0 <= msg.sender < self.ring.n:
            return
        key = self.ring.replicas[msg.sender].principal.public_key
        if not key.verify(
            CheckpointMsg.signed_payload(msg.seq, msg.digest), msg.signature
        ):
            return
        self._checkpoint_votes.setdefault(msg.seq, {})[msg.sender] = msg
        self._maybe_stabilize(msg.seq)

    def _maybe_stabilize(self, seq: int) -> None:
        """Make ``seq`` the stable checkpoint once 2m+1 replicas, this one
        among them, signed the prefix digest this replica computed there:
        a replica never drops state for slots it has not executed."""
        votes = self._checkpoint_votes[seq]
        own = votes.get(self.index)
        if own is None:
            return
        proof = tuple(
            vote for _, vote in sorted(votes.items()) if vote.digest == own.digest
        )
        if len(proof) < self.ring.quorum:
            return
        old = self.low_watermark
        self.stable_checkpoint = proof[: self.ring.quorum]
        self.low_watermark = seq
        for stale in [s for s in self._checkpoint_votes if s <= seq]:
            del self._checkpoint_votes[stale]
        self._collect_garbage(old, seq)

    def _collect_garbage(self, old: int, new: int) -> None:
        """Drop the agreement state of slots ``old + 1 .. new`` (Castro-
        Liskov section 4.3): instances with their early votes, no-op
        claims, deferred pre-prepares, and the compositions and bodies
        of executed slots that no instance above ``new`` still carries.

        Instances are popped by key, one per view so far (none is made
        for a later view), so the instance table is never walked."""
        dropped = set()
        for seq in range(old + 1, new + 1):
            for view in range(self.view + 1):
                instance = self.instances.pop((view, seq), None)
                if instance is not None and instance.digest is not None:
                    self._release_slot(instance.digest)
                    dropped.add(instance.digest)
            dropped.add(self.executed_by_seq[seq])
            self._noop_claims.pop(seq, None)
        deferred = self._deferred_pre_prepares
        for slot in [slot for slot, msg in deferred.items() if msg.seq <= new]:
            del deferred[slot]
        carried, known = self._carried, self.known_by_digest
        for slot in dropped:
            if slot in carried or slot in deferred:
                continue
            for member in self._members_of(slot):
                update = known.get(member)
                if (
                    update is not None
                    and member not in carried
                    and update.update_id in self.executed_updates
                ):
                    del known[member]
            self.slot_members.pop(slot, None)

    def _proven_low_watermark(self, new_view: int) -> int:
        """The highest stable checkpoint proven among ``new_view``'s
        votes, this replica's own included.

        A proof with fewer than 2m+1 distinct signers, a bad signature
        or disagreeing digests counts for nothing: trusting an unproven
        high claim would strand slots that may never have executed."""
        low = self.low_watermark
        for proof in self.view_change_proofs.get(new_view, {}).values():
            if proof and proof[0].seq > low and self._proves(proof):
                low = proof[0].seq
        return low

    def _proves(self, proof: tuple[CheckpointMsg, ...]) -> bool:
        seq, digest = proof[0].seq, proof[0].digest
        if len({vote.sender for vote in proof}) < self.ring.quorum:
            return False
        payload = CheckpointMsg.signed_payload(seq, digest)
        replicas = self.ring.replicas
        return all(
            vote.seq == seq
            and vote.digest == digest
            and 0 <= vote.sender < self.ring.n
            and replicas[vote.sender].principal.public_key.verify(
                payload, vote.signature
            )
            for vote in proof
        )

    # -- view change -------------------------------------------------------------------

    def _wait_for(self, item: bytes | int) -> None:
        """Wait to execute ``item``: an update id, or the number of a
        pre-prepare deferred for missing bodies.  The one progress timer
        runs while anything is waited on; a repeat leaves it alone."""
        if item not in self._waiting:
            self._waiting[item] = None
            self._progress_timer.start()

    def _done_waiting(self, item: bytes | int) -> None:
        """``item`` executed; if it was the oldest, restart the timer for
        the next oldest (the view-change timer of Castro and Liskov)."""
        if item in self._waiting:
            oldest = next(iter(self._waiting)) == item
            del self._waiting[item]
            if oldest:
                self._progress_timer.stop()
                if self._waiting:
                    self._progress_timer.start()

    def _on_progress_timeout(self) -> None:
        # A lone laggard cannot force a view change (the others are
        # satisfied), so first ask peers for state it may have missed --
        # PBFT's state transfer.  Then vote past any view already voted
        # for: re-voting a view whose NEW-VIEW was lost would stall this
        # replica.  The timer keeps running, since either message can be
        # lost, and waits twice as long each time until a slot executes
        # (Castro-Liskov), so a ring that cannot make progress does not
        # churn through views.
        self._progress_timer.interval *= 2
        self._broadcast(
            CatchUpRequest(self.index, self.last_executed_seq),
            size=SMALL_MESSAGE_BYTES,
        )
        voted = [
            v for v, votes in self.view_change_votes.items() if self.index in votes
        ]
        self._send_view_change(max([self.view, *voted]) + 1)

    def _prepared_reports(self) -> tuple[PreparedReport, ...]:
        """Every slot this replica has prepared above its stable
        checkpoint, *including executed ones*.

        Any slot that could have executed anywhere was committed at a
        quorum, hence prepared at a quorum, hence appears in at least one
        honest replica's report within any view-change quorum -- so the
        new leader preserving all reported slots preserves every
        possibly-executed slot (PBFT's cross-view safety argument).

        Locally-executed slots must stay in the report: the executors in
        the view-change quorum may be the *only* members that prepared a
        committed slot, and omitting it would let the new leader reuse
        its sequence number for a different update (divergent execution).
        Slots at or below the stable checkpoint are left out (their
        instances are gone): 2m+1 replicas executed them, and the vote
        carries the checkpoint's proof, so the new leader starts above a
        checkpoint at least as high (Castro-Liskov section 4.4).
        """
        reports = {}
        for (view, seq), instance in self.instances.items():
            if instance.digest is None:
                continue
            if instance.prepares.bit_count() >= self.ring.quorum:
                existing = reports.get(seq)
                if existing is None or view > existing[0]:
                    reports[seq] = (view, instance.digest)
        return tuple(
            PreparedReport(seq=seq, digest=digest)
            for seq, (_, digest) in sorted(reports.items())
        )

    def _send_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        votes = self.view_change_votes.setdefault(new_view, {})
        # A repeat vote retransmits the first one's reports (its
        # broadcast may have been lost on a faulty link); receivers
        # dedupe by sender.  The proof is the current one: a checkpoint
        # that rose since only covers reports the leader then skips.
        if self.index not in votes:
            votes[self.index] = self._prepared_reports()
            tel = self.ring.telemetry
            if tel.enabled:
                tel.count("pbft_view_changes_total", replica=self.index)
                tel.record(
                    "pbft", "view_change", new_view=new_view, replica=self.index
                )
        reports, proof = votes[self.index], self.stable_checkpoint
        # The proof is billed like the reports: 40 B per signed entry.
        self._broadcast(
            ViewChangeMsg(new_view, self.index, reports, proof),
            size=SMALL_MESSAGE_BYTES + 40 * (len(reports) + len(proof)),
        )
        self._maybe_enter_view(new_view)

    def _on_view_change(self, msg: ViewChangeMsg) -> None:
        if msg.new_view <= self.view:
            return
        votes = self.view_change_votes.setdefault(msg.new_view, {})
        votes[msg.sender] = msg.prepared
        proofs = self.view_change_proofs.setdefault(msg.new_view, {})
        proofs[msg.sender] = msg.checkpoint
        # Joining the view change once f+1 others demand it (standard
        # PBFT liveness rule) avoids waiting for our own timeout.
        if len(votes) > self.ring.m and self.index not in votes:
            self._send_view_change(msg.new_view)
        self._maybe_enter_view(msg.new_view)

    def _maybe_enter_view(self, new_view: int) -> None:
        votes = self.view_change_votes.get(new_view, {})
        if len(votes) < self.ring.quorum:
            return
        if self.ring.leader_index(new_view) != self.index:
            return
        if self.view >= new_view:
            return
        self.view = new_view
        self._reset_batch_queue()
        tel = self.ring.telemetry
        if tel.enabled:
            tel.record("pbft", "new_view", view=new_view, leader=self.index)
        for cb in self.ring._new_view_callbacks:
            cb(self.network_id)
        self._broadcast(NewViewMsg(new_view), size=SMALL_MESSAGE_BYTES)

        # 0. Start above the highest proven stable checkpoint h: every
        #    slot at or below it executed at 2m+1 replicas, and a
        #    replica that lags below it catches up by certificate replay.
        low = self._proven_low_watermark(new_view)
        start = max(low, self.last_executed_seq) + 1
        if low > self.last_executed_seq:
            self._wait_for(low)

        # 1. Preserve every prepared slot above h reported by the quorum,
        #    at its original sequence number.  Slots this leader already
        #    executed keep the digest it executed (committed at a quorum,
        #    so authoritative over any conflicting prepared report).
        preserved = {
            seq: self.executed_by_seq[seq]
            for seq in range(low + 1, self.last_executed_seq + 1)
        }
        for reports in votes.values():
            for report in reports:
                if report.seq <= low or report.seq in self.executed_by_seq:
                    continue
                # Prefer a digest whose update bodies we actually hold.
                if (
                    report.seq not in preserved
                    or self._updates_for_digest(preserved[report.seq]) is None
                ):
                    preserved[report.seq] = report.digest
        proposed_digests: set[bytes] = set()
        used_seqs: set[int] = set()
        self._awaiting_body.clear()
        for seq in sorted(preserved):
            if preserved[seq] == NOOP_DIGEST:
                self._propose_noop_at(seq)
                used_seqs.add(seq)
                continue
            updates = self._updates_for_digest(preserved[seq])
            if updates is None:
                # The digest is committed to this slot but a body (or the
                # composition) was lost en route here.  Reserve
                # the number (padding must NOT reuse it -- that
                # re-executes the slot divergently) and fetch from
                # peers; client retries also satisfy the reservation.
                self._awaiting_body[preserved[seq]] = seq
                used_seqs.add(seq)
                self._broadcast(
                    BodyFetchRequest(preserved[seq], self.index),
                    size=SMALL_MESSAGE_BYTES,
                )
                continue
            self._propose_slot_at(seq, updates)
            proposed_digests.update(update_digest(u) for u in updates)
            used_seqs.add(seq)
        # Members of reserved slots must not be re-proposed as fresh
        # slots below -- the reservation owns them (executing them twice
        # is safe but wasteful).
        for slot in self._awaiting_body:
            proposed_digests.update(self._members_of(slot))

        # 2. Fill remaining gaps with known-but-unexecuted requests not
        #    already covered by a preserved slot.
        pending = sorted(
            (
                u
                for digest, u in self.known_by_digest.items()
                if u.update_id not in self.executed_updates
                and digest not in proposed_digests
            ),
            key=lambda u: (u.timestamp, u.update_id),
        )
        seq = start
        for update in pending:
            while seq in used_seqs:
                seq += 1
            self._propose_slot_at(seq, (update,))
            used_seqs.add(seq)
            seq += 1

        # 3. Pad any remaining holes below the highest proposed slot with
        #    null requests so in-order execution cannot deadlock.
        if used_seqs:
            for gap in range(start, max(used_seqs)):
                if gap not in used_seqs:
                    self._propose_noop_at(gap)
                    used_seqs.add(gap)
        self.next_seq = max(used_seqs, default=start - 1) + 1

    def _on_new_view(self, msg: NewViewMsg) -> None:
        if msg.new_view > self.view:
            self.view = msg.new_view
            # Leadership (if this replica believed it held it) is gone;
            # queued-but-unproposed requests fall back to the new
            # leader's gap-fill step or client retries.
            self._reset_batch_queue()

    def _on_body_fetch(self, msg: BodyFetchRequest) -> None:
        if not 0 <= msg.sender < self.ring.n:
            return
        # Answer only with the full membership (a replica that prepared
        # the slot has it all).
        updates = self._updates_for_digest(msg.digest)
        if updates is None:
            return
        self.ring.network.send(
            self.network_id,
            self.ring.replicas[msg.sender].network_id,
            BodyFetchResponse(msg.digest, updates),
            size_bytes=sum(u.size_bytes() for u in updates) + SMALL_MESSAGE_BYTES,
            phase="body_fetch",
            subsystem="pbft",
        )

    def _on_body_fetch_response(self, msg: BodyFetchResponse) -> None:
        digests = tuple(update_digest(u) for u in msg.updates)
        if not digests or slot_digest(digests) != msg.digest:
            return  # bodies do not hash to the requested slot digest
        self._learn_members(msg.digest, digests)
        # Register each member through the request path: it dedupes,
        # verifies signatures, waits on each request, and (via the retry
        # hooks) completes any reservation or deferred pre-prepare that
        # was waiting on these bodies.
        for update in msg.updates:
            self._on_request(update)

    # -- state transfer (laggard catch-up) ---------------------------------------------

    def _on_catch_up_request(self, msg: CatchUpRequest) -> None:
        if not 0 <= msg.sender < self.ring.n or msg.sender == self.index:
            return
        # Every seq through last_executed_seq executed, as a certified
        # slot or a no-op, so only the requester's gap is walked; a
        # hostile horizon below -1 or past ours walks nothing extra.
        gap = range(max(msg.last_executed_seq, -1) + 1, self.last_executed_seq + 1)
        certificates = tuple(
            self.certificates[seq] for seq in gap if seq in self.certificates
        )
        noop_seqs = tuple(
            seq for seq in gap if self.executed_by_seq[seq] == NOOP_DIGEST
        )
        if not certificates and not noop_seqs:
            return
        size = SMALL_MESSAGE_BYTES + sum(
            sum(u.size_bytes() for u in cert.updates) + SMALL_MESSAGE_BYTES
            for cert in certificates
        )
        self.ring.network.send(
            self.network_id,
            self.ring.replicas[msg.sender].network_id,
            CatchUpResponse(certificates, noop_seqs, self.index),
            size_bytes=size,
            phase="catch_up",
            subsystem="pbft",
        )

    def _on_catch_up_response(self, msg: CatchUpResponse) -> None:
        progressed = False
        for cert in msg.certificates:
            if cert.seq <= self.last_executed_seq:
                continue
            if cert.digest == NOOP_DIGEST:
                continue  # no-ops never certify; reject the forgery
            if not cert.updates or slot_digest_for(cert.updates) != cert.digest:
                continue  # valid certificate paired with the wrong bodies
            if not cert.verify(self.ring):
                continue
            self._register_slot_bodies(cert.digest, cert.updates)
            self.execution_queue[cert.seq] = cert
            progressed = True
        for seq in msg.noop_seqs:
            if seq <= self.last_executed_seq or seq in self.execution_queue:
                continue
            claims = self._noop_claims.setdefault(seq, set())
            claims.add(msg.sender)
            # m+1 distinct claimants guarantee at least one honest
            # witness; fewer could be a coordinated Byzantine lie.
            if len(claims) > self.ring.m:
                self.execution_queue[seq] = None
                progressed = True
        if progressed:
            self._execute_ready()


#: payload type -> handler for :meth:`PBFTReplica.handle`, and (its keys)
#: the types a replica's mailbox subscribes with.  The payload classes
#: are flat (none subclasses another); ``Corrupted`` and any unknown type
#: are absent, so the network never delivers them to a replica.
_PBFT_DISPATCH: dict[type, Callable[[PBFTReplica, Any], None]] = {
    ClientRequest: lambda replica, p: replica._on_request(p.update),
    PrePrepare: PBFTReplica._on_pre_prepare,
    PrepareMsg: PBFTReplica._on_prepare,
    CommitMsg: PBFTReplica._on_commit,
    CheckpointMsg: PBFTReplica._on_checkpoint,
    ViewChangeMsg: PBFTReplica._on_view_change,
    NewViewMsg: PBFTReplica._on_new_view,
    BodyFetchRequest: PBFTReplica._on_body_fetch,
    BodyFetchResponse: PBFTReplica._on_body_fetch_response,
    CatchUpRequest: PBFTReplica._on_catch_up_request,
    CatchUpResponse: PBFTReplica._on_catch_up_response,
}


#: payload types whose ``sender`` names a ring index and counts as that
#: replica's vote (a no-op claim in a catch-up response is one too);
#: :meth:`PBFTReplica.handle` drops one not sent from that replica's node
_VOTES = frozenset(
    {PrepareMsg, CommitMsg, CheckpointMsg, ViewChangeMsg, CatchUpResponse}
)


# -- the ring ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BatchingConfig:
    """PBFT request batching and round pipelining (Castro-Liskov).

    The one declaration of these knobs: ``DeploymentConfig.batching``,
    ``ChaosConfig.batching`` and ``InnerRing(batching=)`` carry it whole.
    """

    #: updates per agreement round; 1 keeps the classic
    #: one-round-per-update protocol, wire-identical whatever ``delay_ms``
    #: is (every batch fills immediately)
    size: int = 1
    #: how long the leader holds a partial batch before sealing it (ms)
    delay_ms: float = 50.0
    #: max agreement rounds proposed but not yet executed (0 = unbounded,
    #: the classic behaviour)
    pipeline_depth: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigError(f"batching size must be >= 1: {self.size}")
        if self.delay_ms < 0:
            raise ConfigError(f"batching delay_ms must be >= 0: {self.delay_ms}")
        if self.pipeline_depth < 0:
            raise ConfigError(
                f"batching pipeline_depth must be >= 0: {self.pipeline_depth}"
            )


class InnerRing:
    """The primary tier: n = 3m + 1 replicas plus client-facing API.

    "The primary tier thus consists of a small number of replicas located
    in high-bandwidth, high-connectivity regions of the network."
    """

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        replica_nodes: list[NodeId],
        principals: list[Principal],
        m: int,
        telemetry=None,
        allow_unsafe_size: bool = False,
        batching: BatchingConfig = BatchingConfig(),
    ) -> None:
        if len(replica_nodes) != 3 * m + 1 and not allow_unsafe_size:
            raise ValueError(
                f"PBFT needs n = 3m+1 replicas: m={m} needs {3 * m + 1}, "
                f"got {len(replica_nodes)}"
            )
        if allow_unsafe_size and len(replica_nodes) < 2 * m + 1:
            raise ValueError(
                f"even an unsafe ring needs a quorum's worth of replicas: "
                f"m={m} needs >= {2 * m + 1}, got {len(replica_nodes)}"
            )
        if len(principals) != len(replica_nodes):
            raise ValueError("one principal per replica required")
        self.kernel = kernel
        self.network = network
        self.telemetry = coalesce(telemetry)
        self.m = m
        #: updates per agreement round (1 = classic PBFT, wire-identical)
        self.batch_size = batching.size
        #: how long the leader holds a partial batch before sealing it
        self.batch_delay_ms = batching.delay_ms
        #: max proposed-but-unexecuted rounds in flight (0 = unbounded)
        self.pipeline_depth = batching.pipeline_depth
        self.replicas = [
            PBFTReplica(i, node, principal, self)
            for i, (node, principal) in enumerate(zip(replica_nodes, principals))
        ]
        #: node -> replica index, to check the sender a vote names
        self.index_of = {r.network_id: r.index for r in self.replicas}
        for replica in self.replicas:
            # Subscribe, never register: a ring installed mid-run
            # (membership handoff) must not clobber handlers other
            # subsystems -- failure detector, dissemination tier -- already
            # hold on these nodes.
            network.subscribe(replica.network_id, replica.handle, _PBFT_DISPATCH)
        #: optional ACL check every honest replica runs on client requests
        self.authorizer: Callable[[Update], bool] | None = None
        self._execute_callbacks: list[Callable[[PBFTReplica, int, Update], None]] = []
        self._certificate_callbacks: list[Callable[[CommitCertificate], None]] = []
        self._new_view_callbacks: list[Callable[[NodeId], None]] = []
        self._certified_seqs: set[int] = set()
        self.committed_order: list[Update] = []
        self._order_recorded: set[bytes] = set()

    @property
    def n(self) -> int:
        return len(self.replicas)

    @property
    def quorum(self) -> int:
        """2m + 1: intersection quorum for n = 3m + 1."""
        return 2 * self.m + 1

    @property
    def batching_enabled(self) -> bool:
        """True when rounds can carry more than one update."""
        return self.batch_size > 1

    @property
    def max_tolerable_faults(self) -> int:
        """How many Byzantine replicas this ring size can actually absorb.

        (n-1)//3 -- equals ``m`` only when n = 3m+1.  An undersized ring
        (built with ``allow_unsafe_size``) reports fewer, which is how
        the chaos invariant checker detects a violated quorum condition.
        """
        return (self.n - 1) // 3

    def leader_index(self, view: int) -> int:
        return view % self.n

    @property
    def view(self) -> int:
        """The highest view any replica has installed."""
        return max(r.view for r in self.replicas)

    @property
    def leader_node(self) -> NodeId:
        """The node of :attr:`view`'s leader."""
        return self.replicas[self.leader_index(self.view)].network_id

    # -- client API ------------------------------------------------------------

    def submit(self, client_node: NodeId, update: Update) -> None:
        """Client sends the update directly to the primary tier
        (Figure 5a): every replica receives the full request."""
        tel = self.telemetry
        with tel.span("pbft.request", client=client_node):
            for replica in self.replicas:
                self.network.send(
                    client_node,
                    replica.network_id,
                    ClientRequest(update),
                    size_bytes=update.size_bytes() + SMALL_MESSAGE_BYTES,
                    phase="request",
                    subsystem="pbft",
                )

    # -- callbacks ------------------------------------------------------------------

    def on_execute(self, callback: Callable[[PBFTReplica, int, Update], None]) -> None:
        """Fires once per replica per executed slot."""
        self._execute_callbacks.append(callback)

    def on_certificate(self, callback: Callable[[CommitCertificate], None]) -> None:
        """Fires once per slot, when the first certificate assembles."""
        self._certificate_callbacks.append(callback)

    def on_new_view(self, callback: Callable[[NodeId], None]) -> None:
        """Fires with the new leader's node when it installs its view."""
        self._new_view_callbacks.append(callback)

    def _replica_executed(self, replica: PBFTReplica, seq: int, update: Update) -> None:
        if update.update_id not in self._order_recorded:
            self._order_recorded.add(update.update_id)
            self.committed_order.append(update)
        for cb in self._execute_callbacks:
            cb(replica, seq, update)

    def _replica_certified(
        self, replica: PBFTReplica, certificate: CommitCertificate
    ) -> None:
        if certificate.seq in self._certified_seqs:
            return
        self._certified_seqs.add(certificate.seq)
        for cb in self._certificate_callbacks:
            cb(certificate)

    # -- fault injection ------------------------------------------------------------

    def set_fault(
        self,
        replica_index: int,
        mode: FaultMode,
        strategy: ByzantineStrategy | None = None,
    ) -> None:
        """Make a replica misbehave: ``mode`` picks a stock strategy from
        :mod:`repro.consistency.byzantine`, or pass a custom one."""
        replica = self.replicas[replica_index]
        replica.fault_mode = mode
        replica.strategy = strategy if strategy is not None else strategy_for(mode)

    def faulty_count(self) -> int:
        return sum(1 for r in self.replicas if r.fault_mode is not FaultMode.HONEST)
