"""PBFT edge cases: partitions, concurrent clients, mixed faults,
certificate validation corner cases."""

import random
from dataclasses import replace

import networkx as nx
import pytest

from repro.consistency import BatchingConfig, FaultMode, InnerRing, update_digest
from repro.consistency.pbft import (
    NOOP_DIGEST,
    SMALL_MESSAGE_BYTES,
    CatchUpResponse,
    CommitCertificate,
    CommitMsg,
    PBFTReplica,
    PreparedReport,
    PrepareMsg,
    PrePrepare,
    ViewChangeMsg,
    slot_digest_for,
)
from repro.crypto import make_principal
from repro.data import AppendBlock, CompareVersion, TruePredicate, UpdateBranch, make_update
from repro.naming import object_guid
from repro.sim import Kernel, Network

import golden


def make_ring(m=1, clients=2, seed=0, latency=40.0, batch_size=1):
    n = 3 * m + 1
    kernel = Kernel()
    graph = nx.complete_graph(n + clients)
    nx.set_edge_attributes(graph, latency, "latency_ms")
    network = Network(kernel, graph)
    rng = random.Random(seed)
    principals = [make_principal(f"r{i}", rng, bits=256) for i in range(n)]
    ring = InnerRing(
        kernel,
        network,
        list(range(n)),
        principals,
        m=m,
        batching=BatchingConfig(size=batch_size),
    )
    return kernel, network, ring, list(range(n, n + clients))


@pytest.fixture(scope="module")
def author():
    return make_principal("edge-author", random.Random(70), bits=256)


def up(author, payload, ts=1.0, name="edge"):
    guid = object_guid(author.public_key, name)
    return make_update(
        author, guid, [UpdateBranch(TruePredicate(), (AppendBlock(payload),))], ts
    )


class TestPartitions:
    def test_partition_blocks_commit_then_heals(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        # Split the ring 2-2: no quorum on either side.
        network.add_partition({0, 1}, {2, 3})
        executed = []
        ring.on_execute(lambda rep, seq, u: executed.append(rep.index))
        ring.submit(clients[0], up(author, b"partitioned"))
        kernel.run(until=2_000.0)
        assert executed == []
        network.heal_partitions()
        # Resubmission after heal commits (the client's job on timeout).
        ring.submit(clients[0], up(author, b"partitioned"))
        kernel.run(until=60_000.0)
        assert set(executed) == {0, 1, 2, 3}

    def test_minority_partition_does_not_fork(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        # Isolate one replica; the other three keep committing.
        network.add_partition({3}, {0, 1, 2})
        orders: dict[int, list[bytes]] = {i: [] for i in range(4)}
        ring.on_execute(lambda rep, seq, u: orders[rep.index].append(u.update_id))
        for i in range(3):
            ring.submit(clients[0], up(author, bytes([i]), ts=float(i)))
        kernel.run(until=60_000.0)
        assert len(orders[0]) == 3
        assert orders[0] == orders[1] == orders[2]
        assert orders[3] == []  # isolated, but never divergent


class TestConcurrentClients:
    def test_two_clients_interleave_consistently(self, author):
        other = make_principal("other-author", random.Random(71), bits=256)
        kernel, network, ring, clients = make_ring(m=1)
        orders: dict[int, list[bytes]] = {i: [] for i in range(4)}
        ring.on_execute(lambda rep, seq, u: orders[rep.index].append(u.update_id))
        for i in range(4):
            ring.submit(clients[0], up(author, bytes([i]), ts=float(i), name="a"))
            ring.submit(clients[1], up(other, bytes([i]), ts=float(i) + 0.5, name="b"))
        kernel.run(until=120_000.0)
        assert len(orders[0]) == 8
        assert len({tuple(v) for v in orders.values()}) == 1

    def test_conflicting_guarded_updates_serialize(self, author):
        # Two version-guarded updates race: exactly one commits.
        kernel, network, ring, clients = make_ring(m=1)
        guid = object_guid(author.public_key, "race")
        outcomes = {}

        import repro.data as data_mod

        states = {i: data_mod.DataObjectState() for i in range(4)}

        def execute(rep, seq, update):
            outcome, states[rep.index] = data_mod.apply_update(states[rep.index], update)
            outcomes.setdefault(update.update_id, outcome.committed)

        ring.on_execute(execute)
        u1 = make_update(
            author, guid,
            [UpdateBranch(CompareVersion(0), (AppendBlock(b"first"),))], 1.0,
        )
        u2 = make_update(
            author, guid,
            [UpdateBranch(CompareVersion(0), (AppendBlock(b"second"),))], 2.0,
        )
        ring.submit(clients[0], u1)
        ring.submit(clients[1], u2)
        kernel.run(until=60_000.0)
        committed = [uid for uid, ok in outcomes.items() if ok]
        assert len(committed) == 1
        # All replicas agree on the surviving content.
        contents = {
            tuple(states[i].data.logical_ciphertext()) for i in range(4)
        }
        assert len(contents) == 1


class TestMixedFaults:
    def test_silent_plus_equivocating_at_m2(self, author):
        kernel, network, ring, clients = make_ring(m=2)  # n=7, tolerates 2
        ring.set_fault(1, FaultMode.SILENT)
        ring.set_fault(5, FaultMode.EQUIVOCATE)
        executed = []
        ring.on_execute(lambda rep, seq, u: executed.append(rep.index))
        ring.submit(clients[0], up(author, b"mixed"))
        kernel.run(until=60_000.0)
        honest = {0, 2, 3, 4, 6}
        assert honest.issubset(set(executed))

    def test_equivocating_leader_makes_no_progress_alone(self, author):
        # The leader pre-prepares honestly in our fault model only for
        # honest replicas; an EQUIVOCATE leader corrupts its prepares,
        # but its pre-prepare digest is checked against the known
        # request, so honest replicas still agree among themselves.
        kernel, network, ring, clients = make_ring(m=1)
        ring.set_fault(0, FaultMode.EQUIVOCATE)  # view-0 leader
        executed = []
        ring.on_execute(lambda rep, seq, u: executed.append(rep.index))
        ring.submit(clients[0], up(author, b"bad-leader"))
        kernel.run(until=60_000.0)
        # Either the honest majority committed in view 0 (equivocation
        # only damaged the leader's own votes) or a view change fired;
        # both are safe outcomes -- all honest executions agree.
        if executed:
            assert {1, 2, 3}.issuperset(set(executed) - {0}) or set(executed)


class TestCertificates:
    def make_certified(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        certs = []
        ring.on_certificate(certs.append)
        ring.submit(clients[0], up(author, b"certified"))
        kernel.run(until=60_000.0)
        assert certs
        return ring, certs[0]

    def test_quorum_signatures_required(self, author):
        ring, cert = self.make_certified(author)
        too_few = replace(cert, signatures=cert.signatures[: ring.quorum - 1])
        assert not too_few.verify(ring)

    def test_duplicate_signers_dont_count(self, author):
        ring, cert = self.make_certified(author)
        first = cert.signatures[0]
        padded = replace(cert, signatures=(first,) * len(cert.signatures))
        assert not padded.verify(ring)

    def test_wrong_digest_rejected(self, author):
        ring, cert = self.make_certified(author)
        tampered = replace(cert, digest=b"\x00" * 32)
        assert not tampered.verify(ring)

    def test_out_of_range_signer_rejected(self, author):
        ring, cert = self.make_certified(author)
        bogus = replace(
            cert, signatures=cert.signatures[:-1] + ((99, b"\x01" * 32),)
        )
        assert not bogus.verify(ring)

    def test_digest_matches_update(self, author):
        ring, cert = self.make_certified(author)
        (update,) = cert.updates
        assert cert.digest == update_digest(update)

    def test_signed_payload_stable(self):
        a = CommitCertificate.signed_payload(0, 3, b"d" * 32)
        b = CommitCertificate.signed_payload(0, 3, b"d" * 32)
        assert a == b
        assert CommitCertificate.signed_payload(0, 4, b"d" * 32) != a
        # The view is signed too: commits from two views never combine.
        assert CommitCertificate.signed_payload(1, 3, b"d" * 32) != a


class TestDeferredPrePrepare:
    def test_pre_prepare_before_request_is_held(self, author):
        """If the leader's proposal beats the client's request to a
        replica (possible under partition heal reordering), the replica
        holds it; when its progress timer fires, catch-up brings the
        executed slot, and a later client retry executes nothing twice."""
        kernel, network, ring, clients = make_ring(m=1)
        update = up(author, b"deferred")
        # Deliver the request everywhere except replica 3 by partitioning
        # it away from the client only.
        network.add_partition({3}, {clients[0]})
        executed = []
        ring.on_execute(lambda rep, seq, u: executed.append(rep.index))
        ring.submit(clients[0], update)
        kernel.run(until=2_000.0)
        assert {0, 1, 2}.issubset(set(executed))
        assert 3 not in executed  # has pre-prepare but no request body
        assert ring.replicas[3]._deferred_pre_prepares
        kernel.run(until=5_000.0)
        assert 3 in executed  # caught up without the client's copy
        network.heal_partitions()
        ring.submit(clients[0], update)  # client retry reaches replica 3
        kernel.run(until=60_000.0)
        assert sorted(executed) == [0, 1, 2, 3]


class TestEarlyVotes:
    """Prepares and commits that reach a backup before the pre-prepare
    (reordering): buffered per digest, counted once the digest is fixed."""

    def test_votes_before_the_pre_prepare_count_once_it_lands(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        update = up(author, b"early votes")
        digest = update_digest(update)
        # The leader's messages never reach replica 3; everyone else's do.
        network.add_asymmetric_partition({0}, {3})
        executed = []
        ring.on_execute(lambda rep, seq, u: executed.append(rep.index))
        ring.submit(clients[0], update)
        kernel.run(until=1_000.0)
        backup = ring.replicas[3]
        instance = backup.instances[(0, 0)]
        assert instance.digest is None
        assert instance.early_prepares == {digest: 0b0110}
        assert {d: set(v) for d, v in instance.early_commits.items()} == {
            digest: {1, 2}
        }
        assert sorted(executed) == [0, 1, 2]
        # Buffers exist only where a vote really came early.
        assert ring.replicas[0].instances[(0, 0)].early_prepares is None
        assert ring.replicas[1].instances[(0, 0)].early_commits is None

        network.heal_partitions()
        network.send(0, 3, PrePrepare(0, 0, digest), SMALL_MESSAGE_BYTES)
        kernel.run(until=1_500.0)
        assert instance.committed
        assert instance.prepares == 0b1111
        assert {1, 2, 3} <= set(instance.commits)
        assert not instance.early_prepares and not instance.early_commits
        assert sorted(executed) == [0, 1, 2, 3]
        # The buffered commits kept their signatures: they certify the slot.
        assert backup.certificates[0].verify(ring)
        assert backup._prepared_reports() == (PreparedReport(seq=0, digest=digest),)

        # The leader goes silent; view 1 must keep the executed slot.
        ring.set_fault(0, FaultMode.SILENT)
        second = up(author, b"after the crash", ts=2.0)
        ring.submit(clients[1], second)
        kernel.run(until=60_000.0)
        assert [r.view for r in ring.replicas[1:]] == [1, 1, 1]
        assert PreparedReport(seq=0, digest=digest) in backup.view_change_votes[1][3]
        assert [u.update_id for u in ring.committed_order] == [
            update.update_id,
            second.update_id,
        ]
        for replica in ring.replicas[1:]:
            assert replica.executed_by_seq[0] == digest
            assert replica.executed_by_seq[1] == update_digest(second)

    def test_early_votes_for_another_digest_or_from_outside_never_count(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        backup = ring.replicas[3]
        forged = b"f" * 32
        signature = ring.replicas[2].principal.sign(
            CommitCertificate.signed_payload(0, 0, forged)
        )
        backup._on_prepare(PrepareMsg(0, 0, forged, 1))
        backup._on_commit(CommitMsg(0, 0, forged, 2, signature))
        # A commit whose signature is not its sender's holds no vote.
        backup._on_commit(CommitMsg(0, 0, forged, 1, signature))
        # Senders outside the ring hold no vote at all.
        for sender in (-1, ring.n):
            backup._on_prepare(PrepareMsg(0, 0, forged, sender))
            backup._on_commit(CommitMsg(0, 0, forged, sender, signature))
        update = up(author, b"honest")
        ring.submit(clients[0], update)
        kernel.run(until=2_000.0)
        instance = backup.instances[(0, 0)]
        assert instance.digest == update_digest(update) and instance.committed
        assert instance.early_prepares == {forged: 0b0010}
        assert instance.early_commits == {forged: {2: signature}}


class TestForgedSenders:
    """A vote counts only from the replica whose node sent it."""

    def test_byzantine_leader_cannot_split_a_slot_with_forged_votes(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        # The view-0 leader is Byzantine: its replica runs no protocol,
        # and an adversary on its node speaks instead.
        ring.set_fault(0, FaultMode.SILENT)
        first, second = up(author, b"first"), up(author, b"second", ts=2.0)
        ring.submit(clients[0], first)
        ring.submit(clients[1], second)
        proposal = {1: update_digest(first), 2: update_digest(second)}
        index_of = {r.network_id: r.index for r in ring.replicas}

        def reflect(message):
            # Each victim's own vote comes back as replica 3's, and its
            # commit also as the leader's: enough, with the victim's own,
            # for a quorum of "three" replicas behind each proposal.
            victim = index_of[message.src]
            if victim not in proposal:
                return
            vote = message.payload
            forged = [replace(vote, sender=3)]
            if isinstance(vote, CommitMsg):
                forged.append(replace(vote, sender=0))
            for payload in forged:
                network.send(0, message.src, payload, SMALL_MESSAGE_BYTES)

        network.subscribe(0, reflect, (PrepareMsg, CommitMsg))

        def equivocate():
            for victim, digest in proposal.items():
                network.send(0, victim, PrePrepare(0, 0, digest), SMALL_MESSAGE_BYTES)

        kernel.call_at(200.0, equivocate)
        kernel.run(until=PBFTReplica.VIEW_TIMEOUT_MS - 1.0)
        honest = ring.replicas[1:]
        assert {r.index: r.executed_by_seq.get(0) for r in honest} == {
            1: None,
            2: None,
            3: None,
        }
        # Replica 3 never voted and the leader never committed: any such
        # vote in a victim's instance would be forged.
        for replica in ring.replicas[1:3]:
            for instance in replica.instances.values():
                assert not instance.prepares & 1 << 3
                assert not {0, 3} & set(instance.commits)

        # The stalled slot moves to view 1, where both updates commit once.
        kernel.run(until=60_000.0)
        assert sorted(u.update_id for u in ring.committed_order) == sorted(
            (first.update_id, second.update_id)
        )
        for seq in (0, 1):
            assert len({r.executed_by_seq[seq] for r in honest}) == 1


    def test_view_change_and_no_op_claims_count_only_from_their_sender(self):
        kernel, network, ring, clients = make_ring(m=1)
        replica = ring.replicas[3]
        # Replica 0's node votes for view 1 as itself and as replica 2,
        # and claims seq 0 executed as a no-op as itself and as 1 and 2.
        for sender in (0, 2):
            network.send(0, 3, ViewChangeMsg(1, sender), SMALL_MESSAGE_BYTES)
        for sender in (0, 1, 2):
            network.send(
                0, 3, CatchUpResponse((), (0,), sender), SMALL_MESSAGE_BYTES
            )
        kernel.run(until=1_000.0)
        assert set(replica.view_change_votes[1]) == {0}
        # One helper is not m+1: the no-op waits for a second witness.
        assert replica._noop_claims == {0: {0}}
        assert replica.last_executed_seq == -1


class TestProgressTimer:
    """One progress timer per replica, aimed at the oldest request or
    deferred slot it waits to execute (Castro-Liskov's view-change
    timer)."""

    def test_resubmission_does_not_reset_the_timer(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        ring.set_fault(0, FaultMode.SILENT)
        update = up(author, b"resubmitted")
        executed = []
        ring.on_execute(lambda rep, seq, u: executed.append(kernel.now))
        # The client resubmits the same update every 2 s for 20 s; the
        # silent leader's backups still time out 3 s after the first copy.
        for at in range(0, 20_001, 2_000):
            kernel.call_at(float(at), lambda: ring.submit(clients[0], update))
        kernel.run(until=60_000.0)
        assert executed
        assert min(executed) < PBFTReplica.VIEW_TIMEOUT_MS + 1_000

    def test_stalled_batch_moves_one_view(self, author):
        kernel, network, ring, clients = make_ring(m=1, batch_size=4)
        ring.set_fault(0, FaultMode.SILENT)
        updates = [up(author, b"s%d" % i, ts=float(i + 1)) for i in range(4)]
        for update in updates:
            ring.submit(clients[0], update)
        kernel.run(until=60_000.0)
        # Four waited requests, one timer: view 1, not one view per member.
        assert [r.view for r in ring.replicas[1:]] == [1, 1, 1]
        assert [u.update_id for u in ring.committed_order] == [
            u.update_id for u in updates
        ]

    def test_pre_prepare_alone_catches_up_without_a_retry(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        update = up(author, b"pre-prepare only")
        network.add_partition({3}, {clients[0]})
        executed = {}
        ring.on_execute(lambda rep, seq, u: executed.setdefault(rep.index, kernel.now))
        ring.submit(clients[0], update)
        kernel.run(until=60_000.0)
        # Replica 3 waits on the deferred slot's number; its timer asks
        # for catch-up one timeout after the pre-prepare arrived.
        assert set(executed) == {0, 1, 2, 3}
        assert executed[3] <= executed[0] + PBFTReplica.VIEW_TIMEOUT_MS
        assert [r.view for r in ring.replicas] == [0, 0, 0, 0]


def recovery(case, size):
    """Run a pinned slot-recovery case; check it against golden.json."""
    kernel, network, ring, submitted, sends = golden.recovery_run(case, size)
    assert golden.recovery_observables(kernel, network, ring) == (
        golden.load_golden()["pbft_recovery"][f"{case}/size{size}"]
    )
    assert [u.update_id for u in ring.committed_order] == [
        u.update_id for u in submitted
    ]
    return ring, submitted, sends


def first_index(sends, predicate):
    return next(i for i, send in enumerate(sends) if predicate(send))


@pytest.mark.parametrize("size", golden.RECOVERY_BATCH_SIZES)
class TestSlotRecovery:
    """The recovery paths of a slot, with one update per slot and four.

    Every case runs through the public ring API (``golden.recovery_run``
    describes the schedules); each test checks that its path ran, the
    commit order, and the pinned observables.
    """

    def test_pre_prepare_waits_for_its_bodies(self, size):
        ring, submitted, sends = recovery("deferred_pre_prepare", size)
        retry = first_index(
            sends, lambda s: s.time_ms > 0 and s.src == golden.RECOVERY_CLIENT
        )
        prepared = first_index(sends, lambda s: s.src == 3 and s.phase == "prepare")
        slots = {
            (s.payload.view, s.payload.seq)
            for s in sends
            if s.src == 3 and s.phase == "prepare"
        }
        # Replica 3 held both view-0 pre-prepares until the retry brought
        # the bodies, then prepared them where the leader put them.
        assert retry < prepared
        assert sorted(slots) == [(0, 0), (0, 1)]
        assert not any(s.phase == "view_change" for s in sends)
        assert len({tuple(r.executed_by_seq.items()) for r in ring.replicas}) == 1

    def test_new_leader_fetches_reserved_bodies(self, size):
        ring, submitted, sends = recovery("body_fetch", size)
        bodies = sum(u.size_bytes() for u in submitted) + SMALL_MESSAGE_BYTES
        reply = first_index(
            sends,
            lambda s: s.dst == 1 and s.phase == "body_fetch" and s.size_bytes == bodies,
        )
        proposal = first_index(sends, lambda s: s.src == 1 and s.phase == "pre_prepare")
        # One reply carries every member's body, and only then does the
        # new leader re-propose the slot at its reserved number.
        assert sends[reply].src in (2, 3)
        assert reply < proposal
        assert sends[proposal].payload.seq == 0
        assert not any(
            s.time_ms > 0 and s.src == golden.RECOVERY_CLIENT for s in sends
        )
        # One progress timer per replica: the stalled slot moves the
        # ring one view whatever its size.
        assert [r.view for r in ring.replicas[1:]] == [1] * 3

    def test_late_request_fills_reservation(self, size):
        ring, submitted, sends = recovery("reservation_filled_by_request", size)
        fetch = first_index(sends, lambda s: s.src == 1 and s.phase == "body_fetch")
        proposal = first_index(sends, lambda s: s.src == 1 and s.phase == "pre_prepare")
        reply = first_index(sends, lambda s: s.dst == 1 and s.phase == "body_fetch")
        # The new leader reserved the slot and asked for its bodies, but
        # the client's retry filled it before any peer answered.
        assert fetch < proposal < reply
        assert sends[proposal].payload.seq == 0

    def test_noop_pads_a_slot_nobody_prepared(self, size):
        ring, submitted, sends = recovery("noop_padding", size)
        *slot, lone = submitted
        padding = first_index(
            sends,
            lambda s: s.phase == "pre_prepare"
            and s.payload.view > 0
            and s.payload.digest == NOOP_DIGEST,
        )
        assert sends[padding].payload.seq == 0
        for replica in ring.replicas[1:]:
            assert replica.executed_by_seq == {
                0: NOOP_DIGEST,
                1: slot_digest_for(tuple(slot)),
                2: update_digest(lone),
            }
