"""Multi-ring control plane: sharding, election, directory, provider,
handoff, and the ring_count=1 differential fingerprint.

The hypothesis property here is the ownership oracle in miniature: under
arbitrary crash/handoff interleavings, driven through the very same
``plan_membership`` / ``RingProvider`` / ``RingDirectory`` code the
handoff manager uses, every GUID must resolve to exactly one live ring.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.chaos import InvariantChecker
from repro.consistency import BatchingConfig, FaultMode
from repro.core import (
    DeploymentConfig,
    OceanStoreSystem,
    RecoveryConfig,
    make_client,
)
from repro.crypto import make_principal
from repro.data import AppendBlock, TruePredicate, UpdateBranch, make_update
from repro.naming import object_guid
from repro.rings import (
    GUID_SPACE,
    RingDescriptor,
    RingDirectory,
    RingProvider,
    RingShard,
    ShardRange,
    directory_guid,
    elect,
    election_score,
    plan_membership,
    shard_for,
    shard_ranges,
)
from repro.sim import Kernel, Network, TopologyParams
from repro.telemetry import TelemetryConfig
from repro.util import GUID, GUID_BITS

import golden

AUTHOR = make_principal("rings-test-author", random.Random(77), bits=256)


# ---------------------------------------------------------------------------
# Range sharding
# ---------------------------------------------------------------------------


class TestSharding:
    def test_ranges_partition_the_space_exactly(self):
        for ring_count in (1, 2, 3, 4, 8):
            ranges = shard_ranges(ring_count)
            assert ranges[0].low == 0
            assert ranges[-1].high == GUID_SPACE
            for left, right in zip(ranges, ranges[1:]):
                assert left.high == right.low
            widths = [r.high - r.low for r in ranges]
            assert max(widths) - min(widths) <= 1

    def test_ring_count_must_be_positive(self):
        with pytest.raises(ValueError):
            shard_ranges(0)

    def test_boundary_guids(self):
        ranges = shard_ranges(4)
        assert shard_for(GUID(0), ranges) == 0
        assert shard_for(GUID(GUID_SPACE - 1), ranges) == 3
        for r in ranges:
            assert shard_for(GUID(r.low), ranges) == r.shard_id
            assert shard_for(GUID(r.high - 1), ranges) == r.shard_id

    def test_describe_is_hex_halfopen(self):
        r = shard_ranges(2)[1]
        text = r.describe()
        assert text.startswith("[8")
        assert text.endswith(")")

    @given(
        value=st.integers(min_value=0, max_value=GUID_SPACE - 1),
        ring_count=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_guid_in_exactly_one_range(self, value, ring_count):
        ranges = shard_ranges(ring_count)
        guid = GUID(value)
        owners = [r.shard_id for r in ranges if guid in r]
        assert owners == [shard_for(guid, ranges)]


# ---------------------------------------------------------------------------
# Deterministic election
# ---------------------------------------------------------------------------


class TestElection:
    def test_election_is_deterministic(self):
        candidates = list(range(20, 30))
        first = elect(42, 1, 3, candidates, 2)
        second = elect(42, 1, 3, list(reversed(candidates)), 2)
        assert first == second

    def test_epochs_reshuffle_scores(self):
        scores = {
            epoch: election_score(7, 0, epoch, 12) for epoch in range(4)
        }
        assert len(set(scores.values())) == 4

    def test_short_pool_raises(self):
        with pytest.raises(ValueError):
            elect(0, 0, 1, [5], 2)
        with pytest.raises(ValueError):
            elect(0, 0, 1, [5], -1)

    def test_plan_membership_keeps_survivor_slots(self):
        members = [1, 2, 3, 4]
        planned = plan_membership(
            seed=9, shard_id=0, epoch=1, members=members,
            dead=(2,), candidates=[10, 11, 12],
        )
        assert planned[0] == 1
        assert planned[2] == 3
        assert planned[3] == 4
        assert planned[1] in {10, 11, 12}

    def test_plan_membership_fills_every_dead_seat(self):
        planned = plan_membership(
            seed=9, shard_id=2, epoch=5, members=[1, 2, 3, 4],
            dead=(1, 4), candidates=[20, 21, 22],
        )
        assert len(planned) == 4
        assert not {1, 4} & set(planned)
        assert planned[1] == 2 and planned[2] == 3


# ---------------------------------------------------------------------------
# Ring directory
# ---------------------------------------------------------------------------


def _sharded_system(seed=0, ring_count=2, **overrides):
    overrides.setdefault("archive_every_commit", False)
    overrides.setdefault(
        "topology",
        TopologyParams(transit_nodes=8, stubs_per_transit=1, nodes_per_stub=2),
    )
    return OceanStoreSystem(
        DeploymentConfig(seed=seed, ring_count=ring_count, **overrides)
    )


class TestRingDirectory:
    def test_single_ring_skips_the_mesh(self):
        system = _sharded_system(ring_count=1)
        assert system.ring_directory.mesh is None
        assert len(system.ring_directory.entries()) == 1

    def test_entries_match_shards(self):
        system = _sharded_system(ring_count=2)
        for shard in system.rings.shards:
            entry = system.ring_directory.entry(shard.shard_id)
            assert entry.epoch == shard.epoch
            assert list(entry.members) == list(shard.members)
            assert entry.contact == shard.members[0]

    def test_resolve_through_mesh_hits(self):
        system = _sharded_system(ring_count=2)
        directory = system.ring_directory
        client = max(system.network.nodes())
        directory.resolve(0, client=client)
        assert directory.stats_resolves == 1
        assert directory.stats_mesh_hits == 1
        assert directory.stats_fallbacks == 0

    def test_resolve_falls_back_when_pointers_vanish(self):
        system = _sharded_system(ring_count=2)
        directory = system.ring_directory
        target = directory_guid(0)
        for nid in sorted(system.mesh.nodes):
            system.mesh.nodes[nid].pointers.pop(target, None)
        client = max(system.network.nodes())
        entry = directory.resolve(0, client=client)
        assert entry == directory.entry(0)
        assert directory.stats_fallbacks == 1

    def test_announce_is_tagged_for_phase_accounting(self):
        system = _sharded_system(ring_count=2)
        shard = system.rings.shards[1]
        descriptor = RingDescriptor(
            shard_id=1,
            range=shard.range,
            epoch=shard.epoch,
            members=tuple(shard.members),
        )
        system.ring_directory.announce(descriptor, origin=shard.members[0])
        system.settle(2_000.0)
        stats = system.network.phase_stats[("rings", "directory")]
        assert stats.messages == len(shard.members) - 1
        assert stats.bytes > 0


# ---------------------------------------------------------------------------
# Ring provider
# ---------------------------------------------------------------------------


class _FakeRing:
    """Just enough InnerRing surface for provider bookkeeping."""

    committed_order = ()
    replicas = ()


def _model_provider(ring_count, members_per_shard=4):
    kernel = Kernel()
    import networkx as nx

    graph = nx.path_graph(2)
    nx.set_edge_attributes(graph, 1.0, "latency_ms")
    directory = RingDirectory(Network(kernel, graph), mesh=None)
    shards = []
    for shard_id, rng in enumerate(shard_ranges(ring_count)):
        members = list(
            range(shard_id * members_per_shard, (shard_id + 1) * members_per_shard)
        )
        shards.append(
            RingShard(
                shard_id=shard_id,
                range=rng,
                epoch=0,
                ring=_FakeRing(),
                members=members,
            )
        )
        directory.install(
            RingDescriptor(
                shard_id=shard_id,
                range=rng,
                epoch=0,
                members=tuple(members),
            )
        )
    return RingProvider(shards, directory)


class TestRingProvider:
    def test_install_ring_must_advance_epoch(self):
        provider = _model_provider(2)
        with pytest.raises(ValueError):
            provider.install_ring(0, 0, _FakeRing(), [100, 101, 102, 103])

    def test_install_ring_retires_the_old_epoch(self):
        provider = _model_provider(2)
        old_ring = provider.shards[1].ring
        provider.shards[1].transitioning = True
        provider.install_ring(1, 2, _FakeRing(), [100, 101, 102, 103])
        shard = provider.shards[1]
        assert shard.epoch == 2
        assert shard.members == [100, 101, 102, 103]
        assert shard.transitioning is False
        assert shard.retired == [(0, old_ring)]
        assert old_ring in provider.all_rings_ever()

    def test_fence_check_counts_stale_commits(self):
        provider = _model_provider(2)
        provider.install_ring(0, 1, _FakeRing(), [50, 51, 52, 53])
        assert provider.fence_check(0, 1) is True
        assert provider.fence_check(0, 0) is False
        assert provider.stats_fenced_commits == 1

    def test_replica_lookup_and_stats(self):
        provider = _model_provider(2)
        assert provider.replica_on(999) is None
        rows = provider.commit_stats()
        assert [row["shard"] for row in rows] == [0, 1]
        assert all(row["committed"] == 0 for row in rows)


# ---------------------------------------------------------------------------
# Failure-detector subscription API
# ---------------------------------------------------------------------------


def _recovery_overrides():
    return dict(
        recovery=RecoveryConfig(
            enabled=True,
            heartbeat_interval_ms=1_000.0,
            heartbeat_timeout_ms=600.0,
            suspicion_threshold=2,
            refresh_interval_ms=10_000.0,
        ),
    )


class TestDetectorSubscription:
    def test_subscribe_requires_a_callback(self):
        system = _sharded_system(ring_count=1, **_recovery_overrides())
        with pytest.raises(ValueError):
            system.recovery.detector.subscribe()

    def test_subscribe_and_cancel(self):
        system = _sharded_system(ring_count=1, **_recovery_overrides())
        detector = system.recovery.detector
        seen: list[int] = []
        subscription = detector.subscribe(on_suspect=seen.append)
        victim = sorted(system.network.nodes())[-1]
        system.injector.crash(victim)
        system.settle(10_000.0)
        assert victim in seen
        subscription.cancel()
        subscription.cancel()  # idempotent
        second = sorted(system.network.nodes())[-2]
        system.injector.crash(second)
        system.settle(10_000.0)
        assert second not in seen


# ---------------------------------------------------------------------------
# Handoff end to end
# ---------------------------------------------------------------------------


def _handoff_system(seed=0):
    return _sharded_system(
        seed=seed,
        ring_count=2,
        topology=TopologyParams(
            transit_nodes=12, stubs_per_transit=1, nodes_per_stub=2
        ),
        **_recovery_overrides(),
    )


def _guid_in_shard(system, shard_id, base="handoff-object"):
    for i in range(64):
        guid = object_guid(AUTHOR.public_key, f"{base}-{i}")
        if system.rings.shard_of(guid).shard_id == shard_id:
            return guid
    raise AssertionError("no name landed in the shard")


def _submit(system, guid, payload, ts):
    update = make_update(
        AUTHOR, guid, [UpdateBranch(TruePredicate(), (AppendBlock(payload),))], ts
    )
    client = sorted(
        n for n, d in system.graph.nodes(data=True) if d["kind"] == "stub"
    )[0]
    system.submit_update(client, update)
    return update


class TestHandoff:
    def test_member_crash_triggers_epoch_handoff(self):
        system = _handoff_system(seed=3)
        guid = _guid_in_shard(system, 1)
        system.create_object(guid)
        system.settle()
        before = _submit(system, guid, b"pre-handoff", 1.0)
        system.settle(20_000.0)

        shard = system.rings.shards[1]
        old_members = list(shard.members)
        victim = shard.members[-1]
        system.injector.crash(victim)
        system.settle(60_000.0)

        assert shard.epoch >= 1
        assert victim not in shard.members
        # Survivors keep their slots: only the dead seat changed.
        assert [
            m for m in shard.members if m in old_members
        ] == [m for m in old_members if m != victim]
        assert shard.retired and shard.retired[0][0] == 0
        assert system.handoff.stats_handoffs >= 1
        # Directory reflects the new epoch.
        entry = system.ring_directory.entry(1)
        assert entry.epoch == shard.epoch
        assert list(entry.members) == list(shard.members)
        # The new ring carries the object's history and keeps committing.
        after = _submit(system, guid, b"post-handoff", 2.0)
        system.settle(30_000.0)
        honest = [r for r in shard.ring.replicas]
        assert any(after.update_id in r.executed_updates for r in honest)
        # Election, handoff, and directory traffic all landed in the
        # per-phase ledger (satellite: message tagging).
        for phase in ("election", "handoff", "directory"):
            stats = system.network.phase_stats[("rings", phase)]
            assert stats.messages > 0
        report = InvariantChecker(system).check_all(
            rng=random.Random(0),
            expected_update_ids=[before.update_id, after.update_id],
            skip=("routing-reconvergence",),
        )
        assert "ring-epoch-ownership" in report.checked
        assert not report.violations


class TestHandoffEdgePaths:
    def test_queue_update_without_active_handoff_is_a_noop(self):
        system = _handoff_system(seed=1)
        update = make_update(
            AUTHOR,
            _guid_in_shard(system, 0, base="queued"),
            [UpdateBranch(TruePredicate(), (AppendBlock(b"x"),))],
            1.0,
        )
        system.handoff.queue_update(0, 0, update)
        assert system.handoff.active_handoffs() == []
        assert not system.handoff.is_active(0)

    def test_exhausted_attempts_leave_shard_degraded(self):
        system = _handoff_system(seed=1)
        manager = system.handoff
        shard = system.rings.shards[1]
        system.injector.crash(shard.members[-1])
        manager._begin(1, attempt=manager.max_attempts, carry_queue=[])
        assert manager.stats_abandoned == 1
        assert not manager.is_active(1)
        assert shard.transitioning is False
        assert shard.epoch == 0

    def test_no_spares_leaves_shard_degraded(self):
        # Exactly ring_size * ring_count transit nodes: no spare pool.
        system = _sharded_system(
            seed=1,
            ring_count=2,
            topology=TopologyParams(
                transit_nodes=8, stubs_per_transit=1, nodes_per_stub=2
            ),
            **_recovery_overrides(),
        )
        shard = system.rings.shards[1]
        victims = list(shard.members[-2:])
        for victim in victims:
            system.injector.crash(victim)
        system.settle(30_000.0)
        assert system.handoff.stats_abandoned >= 1
        assert system.handoff.stats_handoffs == 0
        assert shard.epoch == 0
        # Still degraded, still the owner of its range.
        assert all(victim in shard.members for victim in victims)
        report = InvariantChecker(system).check_all(
            rng=random.Random(0),
            skip=("liveness", "routing-reconvergence"),
        )
        assert any(
            "orphaned" in v.detail or "quorum" in v.detail
            for v in report.violations
        )

    def test_total_shard_loss_is_abandoned_not_crashed(self):
        system = _handoff_system(seed=1)
        manager = system.handoff
        shard = system.rings.shards[1]
        for member in list(shard.members):
            system.network.set_down(member, True)
        manager.on_suspect(shard.members[0])
        assert manager.stats_abandoned == 1
        assert not manager.is_active(1)
        assert shard.transitioning is False


# ---------------------------------------------------------------------------
# Hypothesis: ownership under arbitrary crash/handoff interleavings
# ---------------------------------------------------------------------------


@given(data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_guid_owned_by_exactly_one_live_ring(data):
    ring_count = data.draw(st.sampled_from([1, 2, 4]), label="ring_count")
    provider = _model_provider(ring_count)
    directory = provider.directory
    spares = list(range(100, 124))
    dead_nodes: set[int] = set()
    events = data.draw(st.integers(min_value=0, max_value=6), label="events")
    for _ in range(events):
        shard = provider.shards[
            data.draw(
                st.integers(min_value=0, max_value=ring_count - 1),
                label="shard",
            )
        ]
        kill_count = data.draw(st.integers(min_value=1, max_value=2))
        victims = tuple(shard.members[-kill_count:])
        dead_nodes.update(victims)
        epoch = shard.epoch + 1
        candidates = [n for n in spares if n not in dead_nodes]
        planned = plan_membership(
            seed=13,
            shard_id=shard.shard_id,
            epoch=epoch,
            members=shard.members,
            dead=victims,
            candidates=candidates,
        )
        spares = [n for n in spares if n not in planned]
        provider.install_ring(shard.shard_id, epoch, _FakeRing(), planned)
        directory.install(
            RingDescriptor(
                shard_id=shard.shard_id,
                range=shard.range,
                epoch=epoch,
                members=tuple(planned),
            )
        )
        # Epoch fencing: the epoch that just retired can no longer commit.
        assert provider.fence_check(shard.shard_id, epoch - 1) is False
        assert provider.fence_check(shard.shard_id, epoch) is True

    # Ranges still partition the space and every sampled GUID resolves
    # to exactly one live ring whose membership excludes the dead.
    ranges = tuple(shard.range for shard in provider.shards)
    assert ranges[0].low == 0 and ranges[-1].high == GUID_SPACE
    for left, right in zip(ranges, ranges[1:]):
        assert left.high == right.low
    memberships = [set(shard.members) for shard in provider.shards]
    for i, left in enumerate(memberships):
        assert not left & dead_nodes
        for right in memberships[i + 1:]:
            assert not left & right
    for _ in range(8):
        guid = GUID(
            data.draw(st.integers(min_value=0, max_value=GUID_SPACE - 1))
        )
        owners = [s for s in provider.shards if guid in s.range]
        assert len(owners) == 1
        shard = provider.shard_of(guid)
        assert owners == [shard]
        entry = directory.entry(shard.shard_id)
        assert entry.epoch == shard.epoch
        assert list(entry.members) == list(shard.members)


# ---------------------------------------------------------------------------
# Differential: ring_count=1 is byte-identical to the pre-sharding HEAD
# ---------------------------------------------------------------------------



# ---------------------------------------------------------------------------
# Section 4.4.3: small independent rings scale the control plane
# ---------------------------------------------------------------------------


def _drain_one_object_per_shard(ring_count, updates_per_shard=12):
    """Submit a burst to one object per shard; ``(committed, sim-ms)``.

    Everything but the ring count is held fixed: 32 transit nodes (room
    for eight 4-replica rings), one SILENT non-leader per ring (tolerated
    at m=1 with no view change), and one agreement round in flight per
    ring, so a ring drains its queue serially and the aggregate rate is
    bounded by how many rings work in parallel.
    """
    system = _sharded_system(
        ring_count=ring_count,
        topology=TopologyParams(
            transit_nodes=32, stubs_per_transit=1, nodes_per_stub=2
        ),
        secondaries_per_object=2,
        batching=BatchingConfig(pipeline_depth=1),
    )
    for shard in system.rings.shards:
        shard.ring.set_fault(shard.ring.n - 1, FaultMode.SILENT)
    author = make_principal("bench-ring-author", random.Random(101), bits=256)
    guid_by_shard = {}
    name_index = 0
    while len(guid_by_shard) < ring_count:
        guid = object_guid(author.public_key, f"bench-ring-{name_index}")
        name_index += 1
        shard_id = system.rings.shard_of(guid).shard_id
        if shard_id not in guid_by_shard:
            guid_by_shard[shard_id] = guid
            system.create_object(guid)
    system.settle()
    stubs = sorted(
        n for n, d in system.graph.nodes(data=True) if d["kind"] == "stub"
    )
    pending = {}
    start_ms = system.kernel.now
    # The whole burst goes in up front, each shard's from its own stub,
    # so the rings drain concurrently in simulated time.
    for shard_id, guid in sorted(guid_by_shard.items()):
        for i in range(updates_per_shard):
            payload = f"shard-{shard_id}-u{i}".encode() * 8
            update = make_update(
                author,
                guid,
                [UpdateBranch(TruePredicate(), (AppendBlock(payload),))],
                float(i),
            )
            system.submit_update(stubs[shard_id % len(stubs)], update)
            pending[update.update_id] = guid

    def executed(update_id, guid):
        return any(
            update_id in replica.executed_updates
            for replica in system.rings.ring_for(guid).replicas
            if replica.fault_mode is FaultMode.HONEST
        )

    for _ in range(600):
        system.settle(100.0)
        if all(executed(uid, guid) for uid, guid in pending.items()):
            break
    committed = sum(executed(uid, guid) for uid, guid in pending.items())
    return committed, system.kernel.now - start_ms


class TestRingScaling:
    def test_one_and_four_ring_drain_times_are_exact(self):
        """Exact on the simulated clock (polled every 100 ms): one ring
        commits its 12 updates in 2 200 ms; four rings commit 48 in
        2 500 ms, 3.52x the aggregate rate."""
        assert _drain_one_object_per_shard(1) == (12, 2_200.0)
        assert _drain_one_object_per_shard(4) == (48, 2_500.0)


class TestSingleRingDifferential:
    def test_core_fingerprint_matches_head(self):
        current = golden.core_observables(telemetry=True, ring_count=1)
        assert current == golden.load_golden()["core_telemetry_on"]
