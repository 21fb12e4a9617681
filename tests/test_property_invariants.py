"""Cross-cutting property-based tests on core system invariants."""

import random

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.archival import ReedSolomonCode, encode_archival, reconstruct_archival
from repro.chaos import InvariantChecker
from repro.consistency import normalized_cost, update_cost_bytes
from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.core.system import deserialize_state, serialize_state
from repro.data import (
    AppendBlock,
    DataObjectState,
    DeleteBlock,
    InsertBlock,
    ReplaceBlock,
    TruePredicate,
    UpdateBranch,
    apply_update,
    make_update,
)
from repro.crypto import make_principal
from repro.naming import object_guid
from repro.routing import PlaxtonMesh
from repro.sim import Kernel, Network, TopologyParams
from repro.util import GUID, GUID_BITS

AUTHOR = make_principal("prop-author", random.Random(1000), bits=256)
GUID_FOR = object_guid(AUTHOR.public_key, "prop")


# ---------------------------------------------------------------------------
# Plaxton root uniqueness, across random meshes
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_plaxton_root_unique_for_every_start(seed):
    rng = random.Random(seed)
    kernel = Kernel()
    n = rng.randrange(12, 40)
    graph = nx.connected_watts_strogatz_graph(n, 4, 0.3, seed=seed)
    nx.set_edge_attributes(graph, 10.0, "latency_ms")
    network = Network(kernel, graph)
    mesh = PlaxtonMesh(network, rng)
    mesh.populate(sorted(network.nodes()))
    for i in range(5):
        target = GUID(rng.getrandbits(GUID_BITS))
        roots = {
            mesh.route_to_root(start, target).path[-1]
            for start in sorted(mesh.nodes)
        }
        assert len(roots) == 1


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_plaxton_publish_locate_from_anywhere(seed):
    rng = random.Random(seed)
    kernel = Kernel()
    graph = nx.connected_watts_strogatz_graph(20, 4, 0.2, seed=seed)
    nx.set_edge_attributes(graph, 10.0, "latency_ms")
    network = Network(kernel, graph)
    mesh = PlaxtonMesh(network, rng)
    mesh.populate(sorted(network.nodes()))
    guid = GUID(rng.getrandbits(GUID_BITS))
    replica = rng.choice(sorted(mesh.nodes))
    mesh.publish(replica, guid)
    for start in sorted(mesh.nodes):
        result = mesh.locate(start, guid)
        assert result.found and result.replica_node == replica


# ---------------------------------------------------------------------------
# Archival round-trip under arbitrary erasures
# ---------------------------------------------------------------------------


@given(
    data=st.binary(min_size=0, max_size=2000),
    k=st.integers(min_value=2, max_value=8),
    extra=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_archival_survives_any_erasure_to_k(data, k, extra, seed):
    code = ReedSolomonCode(k=k, n=k + extra)
    archival = encode_archival(data, code)
    rng = random.Random(seed)
    survivors = rng.sample(list(archival.fragments), k)
    recovered = reconstruct_archival(
        survivors, code, archival.fragments[0].merkle_root
    )
    assert recovered == data


@given(
    data=st.binary(min_size=1, max_size=500),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=20, deadline=None)
def test_archival_guid_is_content_address(data, seed):
    code = ReedSolomonCode(k=3, n=6)
    a = encode_archival(data, code)
    b = encode_archival(data, code)
    assert a.archival_guid == b.archival_guid
    c = encode_archival(data + b"!", code)
    assert c.archival_guid != a.archival_guid


# ---------------------------------------------------------------------------
# Update application: determinism and atomicity
# ---------------------------------------------------------------------------


@st.composite
def update_actions(draw):
    n_actions = draw(st.integers(min_value=1, max_value=6))
    actions = []
    length = 0
    for i in range(n_actions):
        choices = ["append"]
        if length > 0:
            choices += ["replace", "insert", "delete"]
        kind = draw(st.sampled_from(choices))
        payload = draw(st.binary(min_size=1, max_size=16))
        if kind == "append":
            actions.append(AppendBlock(payload))
            length += 1
        elif kind == "replace":
            actions.append(ReplaceBlock(draw(st.integers(0, length - 1)), payload))
        elif kind == "insert":
            actions.append(InsertBlock(draw(st.integers(0, length - 1)), payload))
        elif kind == "delete":
            actions.append(DeleteBlock(draw(st.integers(0, length - 1))))
    return actions


@given(actions=update_actions(), ts=st.floats(min_value=0, max_value=1e6))
@settings(max_examples=40, deadline=None)
def test_update_application_deterministic(actions, ts):
    update = make_update(
        AUTHOR, GUID_FOR, [UpdateBranch(TruePredicate(), tuple(actions))], ts
    )
    s1, s2 = DataObjectState(), DataObjectState()
    o1, s1 = apply_update(s1, update)
    o2, s2 = apply_update(s2, update)
    assert o1 == o2
    assert s1.data.logical_ciphertext() == s2.data.logical_ciphertext()
    assert s1.version == s2.version


@given(actions=update_actions())
@settings(max_examples=40, deadline=None)
def test_failing_update_leaves_state_untouched(actions):
    # Append a guaranteed-failing action: the whole branch must roll back.
    bad = tuple(actions) + (DeleteBlock(slot=10_000),)
    update = make_update(
        AUTHOR, GUID_FOR, [UpdateBranch(TruePredicate(), bad)], 1.0
    )
    state = DataObjectState()
    state.data.append(b"pre-existing")
    before = state.data.logical_ciphertext()
    outcome, after = apply_update(state, update)
    assert not outcome.committed
    assert after is state
    assert state.data.logical_ciphertext() == before
    assert state.version == 0


# ---------------------------------------------------------------------------
# State serialization round trip
# ---------------------------------------------------------------------------


@given(actions=update_actions(), words=st.lists(st.text(max_size=8), max_size=4))
@settings(max_examples=30, deadline=None)
def test_state_serialization_round_trip(actions, words):
    state = DataObjectState()
    update = make_update(
        AUTHOR, GUID_FOR, [UpdateBranch(TruePredicate(), tuple(actions))], 1.0
    )
    _, state = apply_update(state, update)
    state.search_cells = [w.encode().ljust(24, b"\0")[:24] for w in words]
    restored = deserialize_state(serialize_state(state))
    assert restored.version == state.version
    assert restored.data.logical_ciphertext() == state.data.logical_ciphertext()
    assert restored.data.slots == state.data.slots
    assert restored.data.next_block_id == state.data.next_block_id
    assert restored.search_cells == state.search_cells


# ---------------------------------------------------------------------------
# Cost model algebra
# ---------------------------------------------------------------------------


@given(
    u=st.floats(min_value=1.0, max_value=1e8),
    m=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50)
def test_cost_model_bounds(u, m):
    n = 3 * m + 1
    b = update_cost_bytes(u, n)
    assert b > u * n  # protocol always costs more than the floor
    assert normalized_cost(u, n) > 1.0


@given(
    u1=st.floats(min_value=1.0, max_value=1e6),
    factor=st.floats(min_value=1.1, max_value=100.0),
    m=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50)
def test_cost_model_monotone_in_size(u1, factor, m):
    n = 3 * m + 1
    assert normalized_cost(u1 * factor, n) < normalized_cost(u1, n)


# ---------------------------------------------------------------------------
# Fault interleavings: crash/revive/partition/heal in any order
# ---------------------------------------------------------------------------

FAULT_OPS = ("crash", "revive", "partition", "heal")


def _small_system(seed):
    config = DeploymentConfig(
        seed=seed,
        topology=TopologyParams(
            transit_nodes=4, stubs_per_transit=1, nodes_per_stub=2
        ),
        secondaries_per_object=2,
        archival_k=2,
        archival_n=4,
    )
    return OceanStoreSystem(config)


def _apply_fault(system, rng, op, candidates):
    if op == "crash":
        system.injector.crash(rng.choice(candidates))
    elif op == "revive":
        system.injector.revive(rng.choice(candidates))
    elif op == "partition":
        half = len(candidates) // 2
        side_a, side_b = set(candidates[:half]), set(candidates[half:])
        if rng.random() < 0.5:
            system.network.add_partition(side_a, side_b)
        else:
            system.network.add_asymmetric_partition(side_a, side_b)
    elif op == "heal":
        system.network.heal_partitions()


@given(
    seed=st.integers(min_value=0, max_value=1_000),
    ops=st.lists(st.sampled_from(FAULT_OPS), min_size=1, max_size=10),
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fault_interleavings_never_break_version_logs_or_location(seed, ops):
    """Any crash/revive/partition/heal schedule leaves committed history
    monotone, and healing restores every published GUID's locatability
    (the paper's self-repairing location mesh, Section 4.3.3)."""
    system = _small_system(seed)
    client = make_client(system, "prop-client", seed=seed + 1)
    handles = [client.create_object(f"prop-obj-{i}") for i in range(2)]
    for i, handle in enumerate(handles):
        assert client.write(handle, b"committed before the storm %d" % i).committed
    system.settle()

    rng = random.Random(seed)
    candidates = sorted(set(system.servers) - set(system.ring_nodes))
    for op in ops:
        _apply_fault(system, rng, op, candidates)
        system.settle(5_000.0)

    # Heal everything and let soft state reconverge.
    system.network.heal_partitions()
    for node in candidates:
        system.injector.revive(node)
    system.settle()
    system.probabilistic.converge()

    checker = InvariantChecker(system)
    assert checker.check_version_monotonicity() == []
    assert checker.check_routing_reconvergence() == []


@given(
    seed=st.integers(min_value=0, max_value=1_000),
    ops=st.lists(st.sampled_from(("crash", "revive")), min_size=0, max_size=8),
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_degraded_read_survives_any_crash_schedule(seed, ops):
    """Under any crash/revive schedule that leaves the quorum live (ring
    nodes are never touched, so at least one replica always survives), a
    deadline-budgeted degraded read must succeed within its budget and
    must never return a version older than the session floor."""
    from repro.core import RecoveryConfig, RetryPolicy

    config = DeploymentConfig(
        seed=seed,
        topology=TopologyParams(
            transit_nodes=4, stubs_per_transit=1, nodes_per_stub=2
        ),
        secondaries_per_object=2,
        archival_k=2,
        archival_n=4,
        recovery=RecoveryConfig(
            enabled=True,
            heartbeat_interval_ms=1_000.0,
            heartbeat_timeout_ms=600.0,
            suspicion_threshold=2,
            refresh_interval_ms=10_000.0,
        ),
    )
    system = OceanStoreSystem(config)
    client = make_client(system, "prop-client", seed=seed + 1)
    handle = client.create_object("prop-degraded")
    floor = 0
    for i in range(2):
        result = client.write(handle, b"survivable %d" % i)
        assert result.committed
        floor = result.new_version
    system.settle()

    rng = random.Random(seed)
    candidates = sorted(set(system.servers) - set(system.ring_nodes))
    for op in ops:
        _apply_fault(system, rng, op, candidates)
        system.settle(3_000.0)

    reader = next(
        n
        for n in sorted(system.network.nodes())
        if not system.network.is_down(n)
    )
    policy = RetryPolicy(
        deadline_ms=60_000.0, max_attempts=4, backoff_base_ms=2_000.0,
        seed=seed,
    )
    start = system.kernel.now
    state = system.read_degraded(
        handle.guid,
        allow_tentative=True,
        min_version=floor,
        client_node=reader,
        retry=policy,
    )
    assert state.version >= floor
    assert system.kernel.now - start <= policy.deadline_ms


@given(
    seed=st.integers(min_value=0, max_value=1_000),
    ops=st.lists(st.sampled_from(("crash", "revive")), min_size=2, max_size=12),
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_churn_never_rewrites_committed_history(seed, ops):
    """Crash/revive churn may delay progress but can never change what
    was already committed: every surviving replica log stays a prefix-
    consistent, strictly-increasing version sequence."""
    system = _small_system(seed)
    client = make_client(system, "prop-client", seed=seed + 1)
    handle = client.create_object("prop-durable")
    assert client.write(handle, b"v1").committed
    system.settle()
    before = {
        node: [
            (u.update_id, u.resulting_version)
            for u in replica.committed_log.history()
        ]
        for tier in system.tiers.values()
        for node, replica in tier.replicas.items()
    }

    rng = random.Random(seed)
    candidates = sorted(set(system.servers) - set(system.ring_nodes))
    for op in ops:
        _apply_fault(system, rng, op, candidates)
        system.settle(2_000.0)
    for node in candidates:
        system.injector.revive(node)
    system.settle()

    checker = InvariantChecker(system)
    assert checker.check_version_monotonicity() == []
    after = {
        node: [
            (u.update_id, u.resulting_version)
            for u in replica.committed_log.history()
        ]
        for tier in system.tiers.values()
        for node, replica in tier.replicas.items()
    }
    for node, history in before.items():
        assert after[node][: len(history)] == history
