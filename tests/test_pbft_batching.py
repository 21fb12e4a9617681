"""Differential equivalence: batching changes cost, never semantics.

Every test here runs the same workload through an unbatched ring
(``batch_size=1`` -- wire-identical to classic PBFT) and through batched,
pipelined rings, then asserts the *outcomes* are indistinguishable:

- the ring-level committed order (update ids, in order),
- each replica's own execution order,
- each replica's version-log state after applying what it executed
  (compared as serialized bytes),
- the per-update bodies that batch slots unpack into -- the same
  canonical digests a :class:`~repro.consistency.pbft.CommitCertificate`
  carries for those slots.

Batching may only change *when* updates share an agreement round, never
*what* gets committed or in what order.
"""

import dataclasses
import inspect
import random
from unittest import mock

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.consistency import BatchingConfig, FaultMode, InnerRing
from repro.consistency.costmodel import fit_cost_model
from repro.consistency.measure import measure_sweep
from repro.consistency.pbft import (
    NOOP_DIGEST,
    PBFTReplica,
    slot_digest_for,
    update_digest,
)
from repro.core import ChaosConfig, DeploymentConfig, OceanStoreSystem, make_client
from repro.core.system import serialize_state
from repro.crypto import make_principal
from repro.data import (
    AppendBlock,
    TruePredicate,
    UpdateBranch,
    VersionLog,
    make_update,
)
from repro.naming import object_guid
from repro.sim import Kernel, Network, TopologyParams
from repro.sim.faults import LinkFaultRule, NetworkFaultInjector

BATCH_SIZES = (2, 4, 8)


def run_workload(
    payloads,
    batch_size,
    seed,
    batch_delay_ms=150.0,
    pipeline_depth=2,
    m=1,
    after_step=None,
    silence_leader_at=None,
):
    """Drive ``payloads`` through a bare ring; return its observable outcome.

    With ``after_step``, the kernel runs one event at a time until its
    queue drains, calling ``after_step(ring)`` after each.  With
    ``silence_leader_at``, the view-0 leader falls silent at that time.
    """
    n = 3 * m + 1
    kernel = Kernel()
    graph = nx.complete_graph(n + 1)
    nx.set_edge_attributes(graph, 40.0, "latency_ms")
    network = Network(kernel, graph)
    rng = random.Random(seed)
    principals = [make_principal(f"replica-{i}", rng, bits=256) for i in range(n)]
    ring = InnerRing(
        kernel,
        network,
        list(range(n)),
        principals,
        m=m,
        batching=BatchingConfig(
            size=batch_size,
            delay_ms=batch_delay_ms,
            pipeline_depth=pipeline_depth,
        ),
    )
    executed = {i: [] for i in range(n)}
    ring.on_execute(lambda rep, seq, up: executed[rep.index].append(up))
    author = make_principal("author", random.Random(seed + 1), bits=256)
    guid = object_guid(author.public_key, "differential")
    for i, payload in enumerate(payloads):
        update = make_update(
            author,
            guid,
            [UpdateBranch(TruePredicate(), (AppendBlock(payload),))],
            float(i + 1),
        )
        ring.submit(n, update)
    if silence_leader_at is not None:
        kernel.call_at(silence_leader_at, lambda: ring.set_fault(0, FaultMode.SILENT))
    if after_step is None:
        kernel.run(until=60_000.0)
    else:
        # A silent leader's progress timers re-arm forever, so the
        # stepped run stops at the same horizon as the plain one.
        horizon = []
        kernel.call_at(60_000.0, lambda: horizon.append(True))
        while not horizon and kernel.step():
            after_step(ring)
    return ring, executed


def fingerprint(ring, executed):
    """Everything an application could observe, as comparable values."""
    committed = [u.update_id for u in ring.committed_order]
    per_replica_orders = {
        i: [u.update_id for u in ups] for i, ups in executed.items()
    }
    log_states = {}
    for i, ups in executed.items():
        log = VersionLog()
        for u in ups:
            log.apply(u)
        log_states[i] = serialize_state(log.head)
    # The ordered update bodies each replica's slots unpack into: the
    # same canonical per-update digests a certificate for those slots
    # attests.  Batch membership must never substitute or reorder
    # bodies relative to the unbatched slots.
    claim_bodies = {}
    for i, replica in enumerate(ring.replicas):
        digests = []
        for seq in sorted(replica.executed_by_seq):
            members = replica._updates_for_digest(replica.executed_by_seq[seq])
            if members is not None:
                digests.extend(update_digest(u) for u in members)
        claim_bodies[i] = digests
    return committed, per_replica_orders, log_states, claim_bodies


def scan_in_flight(replica, digest):
    """``_already_in_flight`` as a full scan over every instance."""
    return any(
        instance.digest == digest or digest in replica._members_of(instance.digest)
        for instance in replica.instances.values()
        if instance.digest is not None
    )


def check_slot_indexes(ring):
    """The in-flight index answers exactly what the full scan answers."""
    for replica in ring.replicas:
        digests = {NOOP_DIGEST, b"\x00" * 32, *replica.known_by_digest}
        for instance in replica.instances.values():
            if instance.digest is not None:
                # A slot's recorded composition names its bodies' digests.
                if instance.updates is not None:
                    assert replica._members_of(instance.digest) == tuple(
                        update_digest(u) for u in instance.updates
                    )
                digests.add(instance.digest)
                digests.update(replica._members_of(instance.digest))
        for digest in digests:
            assert replica._already_in_flight(digest) == scan_in_flight(
                replica, digest
            )


class CountingDict(dict):
    """A dict that counts every pass over its keys, values or items."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def keys(self):
        self.iterations += 1
        return super().keys()

    def values(self):
        self.iterations += 1
        return super().values()

    def items(self):
        self.iterations += 1
        return super().items()


payload_lists = st.lists(
    st.binary(min_size=1, max_size=64), min_size=1, max_size=8
)


class TestDifferentialEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000), payloads=payload_lists)
    @settings(max_examples=25, deadline=None)
    def test_batched_runs_match_unbatched(self, seed, payloads):
        baseline = fingerprint(*run_workload(payloads, batch_size=1, seed=seed))
        committed = baseline[0]
        assert len(committed) == len(payloads)
        for batch_size in BATCH_SIZES:
            outcome = fingerprint(
                *run_workload(
                    payloads,
                    batch_size=batch_size,
                    seed=seed,
                    after_step=check_slot_indexes,
                )
            )
            assert outcome == baseline, f"batch_size={batch_size} diverged"

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        payloads=payload_lists,
        batch_size=st.sampled_from((1, *BATCH_SIZES)),
        silence_at=st.floats(min_value=0.0, max_value=400.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_slot_indexes_hold_across_view_changes(
        self, seed, payloads, batch_size, silence_at
    ):
        ring, _ = run_workload(
            payloads,
            batch_size=batch_size,
            seed=seed,
            after_step=check_slot_indexes,
            silence_leader_at=silence_at,
        )
        assert len(ring.committed_order) == len(payloads)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_unbounded_pipeline_matches_bounded(self, seed):
        payloads = [f"u{i}".encode() for i in range(6)]
        bounded = fingerprint(
            *run_workload(payloads, batch_size=4, seed=seed, pipeline_depth=1)
        )
        unbounded = fingerprint(
            *run_workload(payloads, batch_size=4, seed=seed, pipeline_depth=0)
        )
        assert bounded == unbounded


def four_replica_ring():
    kernel = Kernel()
    graph = nx.complete_graph(5)
    nx.set_edge_attributes(graph, 40.0, "latency_ms")
    network = Network(kernel, graph)
    rng = random.Random(3)
    principals = [make_principal(f"replica-{i}", rng, bits=256) for i in range(4)]
    return kernel, InnerRing(kernel, network, list(range(4)), principals, m=1)


BYZANTINE_MODES = (
    FaultMode.SILENT,
    FaultMode.EQUIVOCATE,
    FaultMode.CORRUPT,
    FaultMode.DELAY,
)


@st.composite
def fault_plans(draw):
    """A ring size, up to m Byzantine replicas, a lossy window, and
    maybe a view-0 leader crash."""
    m = draw(st.sampled_from((1, 2)))
    n = 3 * m + 1
    byzantine = draw(
        st.dictionaries(
            st.integers(0, n - 1), st.sampled_from(BYZANTINE_MODES), max_size=m
        )
    )
    loss_start = draw(st.floats(0.0, 2_000.0))
    loss = LinkFaultRule(
        start_ms=loss_start,
        end_ms=loss_start + draw(st.floats(0.0, 3_000.0)),
        drop=draw(st.floats(0.0, 0.5)),
    )
    crash_at = draw(st.none() | st.floats(0.0, 1_500.0))
    return m, byzantine, loss, crash_at


def check_certificate_safety(plan, seed, batch_size, updates):
    """Run ``updates`` through a ring under ``plan``'s faults; check that
    every certificate verifies, one digest certifies each seq, correct
    replicas agree, and no instance outlives a stable checkpoint."""
    m, byzantine, loss, crash_at = plan
    n = 3 * m + 1
    kernel = Kernel()
    graph = nx.complete_graph(n + 1)
    nx.set_edge_attributes(graph, 40.0, "latency_ms")
    network = Network(kernel, graph)
    network.fault_injector = NetworkFaultInjector(random.Random(seed), [loss])
    rng = random.Random(seed)
    principals = [make_principal(f"replica-{i}", rng, bits=256) for i in range(n)]
    ring = InnerRing(
        kernel,
        network,
        list(range(n)),
        principals,
        m=m,
        batching=BatchingConfig(size=batch_size, delay_ms=50.0),
    )
    for index, mode in byzantine.items():
        ring.set_fault(index, mode)
    if crash_at is not None:
        kernel.call_at(crash_at, lambda: ring.set_fault(0, FaultMode.SILENT))
    delivered = []
    ring.on_certificate(delivered.append)
    author = make_principal("author", random.Random(seed + 1), bits=256)
    guid = object_guid(author.public_key, "certificate-safety")
    for i in range(updates):
        update = make_update(
            author,
            guid,
            [UpdateBranch(TruePredicate(), (AppendBlock(b"c%d" % i),))],
            float(i + 1),
        )
        kernel.call_at(300.0 * i, lambda u=update: ring.submit(n, u))
    kernel.run(until=20_000.0)

    certified = {}
    held = [c for r in ring.replicas for c in r.certificates.values()]
    for certificate in held + delivered:
        assert certificate.verify(ring)
        assert slot_digest_for(certificate.updates) == certificate.digest
        certified.setdefault(certificate.seq, set()).add(certificate.digest)
    assert all(len(digests) == 1 for digests in certified.values())
    correct = [r for r in ring.replicas if r.index not in byzantine]
    for replica in correct:
        for seq, digest in replica.executed_by_seq.items():
            assert {r.executed_by_seq.get(seq, digest) for r in correct} == {digest}
            # A correct replica executes a slot only holding its proof.
            if digest != NOOP_DIGEST:
                assert replica.certificates[seq].digest == digest
    for replica in ring.replicas:
        # A replica drops state only for slots it executed itself.
        assert replica.low_watermark <= replica.last_executed_seq
        assert all(seq > replica.low_watermark for _, seq in replica.instances)
    return ring


class TestCertificateSafety:
    """Signed commits certify slots: whatever the faults, a certificate
    verifies, one digest certifies each seq, and correct replicas (a
    crashed leader included) execute the same slot at every seq they
    share."""

    @given(
        plan=fault_plans(),
        seed=st.integers(min_value=0, max_value=10_000),
        batch_size=st.sampled_from((1, 4)),
    )
    @settings(max_examples=20, deadline=None)
    def test_certificates_verify_and_agree(self, plan, seed, batch_size):
        check_certificate_safety(plan, seed, batch_size, updates=4)

    @given(
        plan=fault_plans(),
        seed=st.integers(min_value=0, max_value=10_000),
        batch_size=st.sampled_from((1, 4)),
    )
    @settings(max_examples=20, deadline=None)
    def test_checkpoints_keep_certificates_safe(self, plan, seed, batch_size):
        """The same, with a checkpoint every four slots: stable
        checkpoints collect state and bound view changes mid-run."""
        with mock.patch.object(PBFTReplica, "CHECKPOINT_INTERVAL", 4):
            check_certificate_safety(plan, seed, batch_size, updates=12)


class TestSlotIndexWork:
    def test_reassigned_slot_releases_its_digests(self):
        """A slot given a new digest stops answering for the old one and
        its members; a digest two slots carry stays until both let go."""
        _, ring = four_replica_ring()
        replica = ring.replicas[1]
        a, b, c = (bytes([i]) * 32 for i in range(3))
        first = replica._instance(0, 0)
        second = replica._instance(1, 0)
        replica._learn_members(b"slot-ab", (a, b))
        replica._learn_members(b"slot-bc", (b, c))
        replica._assign_slot(first, b"slot-ab", None)
        replica._assign_slot(second, b"slot-bc", None)
        replica._assign_slot(first, b"slot-ab", None)
        replica._assign_slot(first, NOOP_DIGEST, None)
        for digest in (a, b, c, b"slot-ab", b"slot-bc", NOOP_DIGEST):
            assert replica._already_in_flight(digest) == scan_in_flight(
                replica, digest
            )
        assert not replica._already_in_flight(a)
        assert replica._already_in_flight(b)
        replica._assign_slot(second, NOOP_DIGEST, None)
        assert set(replica._carried) == {NOOP_DIGEST}
        assert replica._carried[NOOP_DIGEST] == 2

    def test_normal_case_never_iterates_instances(self):
        """300 slots of agreement, and no pass over the instance table:
        in-flight checks are index reads, and certificates form from the
        committing instance's own votes."""
        kernel, ring = four_replica_ring()
        for replica in ring.replicas:
            replica.instances = CountingDict()
        author = make_principal("author", random.Random(4), bits=256)
        guid = object_guid(author.public_key, "work-count")
        for i in range(300):
            update = make_update(
                author,
                guid,
                [UpdateBranch(TruePredicate(), (AppendBlock(b"w%d" % i),))],
                float(i + 1),
            )
            kernel.call_at(10.0 * i, lambda u=update: ring.submit(4, u))
        kernel.run()
        assert len(ring.committed_order) == 300
        for replica in ring.replicas:
            assert replica.last_executed_seq == 299
            assert len(replica.certificates) == 300
            assert replica.instances.iterations == 0
        # The counter is live: a view-change report walks the table.
        ring.replicas[0]._prepared_reports()
        assert ring.replicas[0].instances.iterations == 1


class TestFullSystemEquivalence:
    def _system(self, batch_size):
        config = DeploymentConfig(
            seed=11,
            topology=TopologyParams(
                transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
            ),
            secondaries_per_object=3,
            archival_k=4,
            archival_n=8,
            batching=BatchingConfig(
                size=batch_size, delay_ms=150.0, pipeline_depth=2
            ),
        )
        system = OceanStoreSystem(config)
        alice = make_client(system, "alice", seed=2)
        obj = alice.create_object("shared-log")
        builder_updates = [
            alice.update_builder(obj)
            .append(f"entry-{i};".encode())
            .build(alice.principal, obj.guid, float(i + 1))
            for i in range(5)
        ]
        # Submit the whole burst before settling so batched rings
        # actually pack multi-update rounds.
        for update in builder_updates:
            system.submit_update(alice.home_node, update)
        system.settle(60_000.0)
        return system, obj

    def test_batched_system_state_matches_unbatched(self):
        plain_system, plain_obj = self._system(batch_size=1)
        batched_system, batched_obj = self._system(batch_size=4)
        assert plain_obj.guid == batched_obj.guid
        plain_order = [u.update_id for u in plain_system.ring.committed_order]
        batched_order = [u.update_id for u in batched_system.ring.committed_order]
        assert plain_order == batched_order
        assert len(plain_order) == 5
        plain_primary = plain_system.servers[plain_system.ring_nodes[0]]
        batched_primary = batched_system.servers[batched_system.ring_nodes[0]]
        assert serialize_state(
            plain_primary.objects[plain_obj.guid].log.head
        ) == serialize_state(batched_primary.objects[batched_obj.guid].log.head)


class TestBatchingConfig:
    """One declaration, one validator, three carriers."""

    @pytest.mark.parametrize(
        "bad",
        ({"size": 0}, {"delay_ms": -1.0}, {"pipeline_depth": -1}),
        ids=("size", "delay_ms", "pipeline_depth"),
    )
    def test_bad_values_never_reach_a_carrier(self, bad):
        for carrier in (ChaosConfig, DeploymentConfig, InnerRing):
            with pytest.raises(ValueError, match=next(iter(bad))):
                carrier(batching=BatchingConfig(**bad))

    def test_carriers_hold_the_object_and_redeclare_nothing(self):
        batching = BatchingConfig(size=4, delay_ms=200.0, pipeline_depth=2)
        assert DeploymentConfig(batching=batching).batching is batching
        assert ChaosConfig(batching=batching).batching is batching
        retired = {"batch_size", "batch_delay_ms", "pipeline_depth"}
        for config in (ChaosConfig, DeploymentConfig):
            assert not retired & {f.name for f in dataclasses.fields(config)}
        assert not retired & set(inspect.signature(InnerRing).parameters)

    def test_ring_unpacks_what_the_leader_reads(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=1, nodes_per_stub=2
                ),
                batching=BatchingConfig(size=4, delay_ms=75.0, pipeline_depth=3),
            )
        )
        ring = system.ring
        assert (ring.batch_size, ring.batch_delay_ms, ring.pipeline_depth) == (
            4, 75.0, 3
        )


class TestAmortization:
    def test_batched_quadratic_term_amortizes(self):
        updates = 8
        unbatched = measure_sweep(
            ms=(2, 3, 4), update_size=1000, updates=updates, batch_size=1
        )
        batched = measure_sweep(
            ms=(2, 3, 4), update_size=1000, updates=updates, batch_size=updates
        )
        fit_1 = fit_cost_model(
            (t.n, t.update_bytes, t.per_update_bytes) for t in unbatched
        )
        fit_b = fit_cost_model(
            (t.n, t.update_bytes, t.per_update_bytes) for t in batched
        )
        assert fit_1.quadratic_ok and fit_b.quadratic_ok
        assert fit_b.c1 <= fit_1.c1 / 4
        # Exact, not banded.  Pre-prepare (n-1), prepare (n-1)^2 and
        # the signed commit (n(n-1)) are 2n^2 - 2n phase messages of
        # 100 B, and each of the n request copies adds 100 B to the
        # update's own bytes: b = 200n^2 + (u - 100)n.  A third round, a
        # dropped one, or a resized phase message moves c1 off 200.
        assert fit_1.c1 == pytest.approx(200.0)
        assert fit_1.c2 == pytest.approx(-100.0)
        assert fit_1.c3 == pytest.approx(0.0, abs=1e-6)
        # One shared round for all eight updates: exactly c1/u each.
        assert fit_b.c1 == pytest.approx(200.0 / updates)
