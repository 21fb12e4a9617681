"""Tests for dissemination trees, the epidemic secondary tier, and
optimistic timestamps."""

import random

import networkx as nx
import pytest

from repro.consistency import (
    CommitNotice,
    DisseminationTree,
    OptimisticTimestamp,
    SecondaryTier,
    TreeError,
    order_agreement,
    tentative_order,
)
from repro.consistency.secondary import (
    _SECONDARY_DISPATCH,
    PullRequest,
    PullResponse,
    TierMailboxes,
)
from repro.crypto import make_principal
from repro.data import AppendBlock, TruePredicate, UpdateBranch, make_update
from repro.naming import object_guid
from repro.sim import Kernel, Network


@pytest.fixture(scope="module")
def author():
    return make_principal("author", random.Random(88), bits=256)


def make_net(n=12, latency=20.0):
    kernel = Kernel()
    graph = nx.complete_graph(n)
    nx.set_edge_attributes(graph, latency, "latency_ms")
    return kernel, Network(kernel, graph)


def log_sends(network):
    """Record every send as ``(src, dst, payload)``."""
    sent = []
    send = network.send

    def logged(src, dst, payload, size_bytes, phase=None, subsystem=None):
        sent.append((src, dst, payload))
        send(src, dst, payload, size_bytes, phase=phase, subsystem=subsystem)

    network.send = logged
    return sent


def obj_guid(author, name="shared"):
    return object_guid(author.public_key, name)


def make_up(author, payload, ts, name="shared"):
    return make_update(
        author,
        obj_guid(author, name),
        [UpdateBranch(TruePredicate(), (AppendBlock(payload),))],
        ts,
    )


class TestTimestamps:
    def test_total_order(self, author):
        ups = [make_up(author, b"a", 3.0), make_up(author, b"b", 1.0), make_up(author, b"c", 2.0)]
        ordered = tentative_order(ups)
        assert [u.timestamp for u in ordered] == [1.0, 2.0, 3.0]

    def test_tie_broken_deterministically(self, author):
        ups = [make_up(author, b"a", 1.0), make_up(author, b"b", 1.0)]
        assert tentative_order(ups) == tentative_order(reversed(ups))

    def test_timestamp_ordering(self):
        a = OptimisticTimestamp(1.0, b"a")
        b = OptimisticTimestamp(1.0, b"b")
        c = OptimisticTimestamp(2.0, b"a")
        assert a < b < c

    def test_order_agreement_perfect(self, author):
        ups = [make_up(author, bytes([i]), float(i)) for i in range(4)]
        assert order_agreement(ups, ups) == 1.0

    def test_order_agreement_reversed(self, author):
        ups = [make_up(author, bytes([i]), float(i)) for i in range(4)]
        assert order_agreement(ups, list(reversed(ups))) == 0.0

    def test_order_agreement_partial(self, author):
        ups = [make_up(author, bytes([i]), float(i)) for i in range(3)]
        swapped = [ups[1], ups[0], ups[2]]
        assert order_agreement(ups, swapped) == pytest.approx(2 / 3)

    def test_order_agreement_trivial(self, author):
        assert order_agreement([], []) == 1.0


class TestDisseminationTree:
    def test_members_attach_to_closest(self):
        kernel = Kernel()
        graph = nx.Graph()
        # root(0) -- 10ms -- 1 -- 10ms -- 2 ; 0 -- 100ms -- 3
        graph.add_edge(0, 1, latency_ms=10.0)
        graph.add_edge(1, 2, latency_ms=10.0)
        graph.add_edge(0, 3, latency_ms=100.0)
        network = Network(kernel, graph)
        tree = DisseminationTree(network, root=0, max_fanout=2)
        assert tree.add_member(1) == 0
        assert tree.add_member(2) == 1  # closer to 1 than to 0
        assert tree.add_member(3) == 0

    def test_fanout_respected(self):
        kernel, network = make_net(6)
        tree = DisseminationTree(network, root=0, max_fanout=2)
        for node in range(1, 6):
            tree.add_member(node)
        assert all(len(tree.children(m)) <= 2 for m in tree.members)

    def test_duplicate_member_rejected(self):
        kernel, network = make_net(3)
        tree = DisseminationTree(network, root=0)
        tree.add_member(1)
        with pytest.raises(TreeError):
            tree.add_member(1)

    def test_depth(self):
        kernel, network = make_net(8)
        tree = DisseminationTree(network, root=0, max_fanout=1)
        for node in range(1, 5):
            tree.add_member(node)
        depths = sorted(tree.depth(m) for m in tree.members)
        assert depths == [0, 1, 2, 3, 4]  # a chain under fanout 1

    def test_remove_reattaches_orphans(self):
        kernel, network = make_net(8)
        tree = DisseminationTree(network, root=0, max_fanout=2)
        for node in range(1, 7):
            tree.add_member(node)
        victim = tree.children(0)[0]
        orphans = tree.children(victim)
        tree.remove_member(victim)
        assert victim not in tree.members
        for orphan in orphans:
            assert orphan in tree.members
            assert tree.parent(orphan) is not None

    def test_cannot_remove_root(self):
        kernel, network = make_net(3)
        tree = DisseminationTree(network, root=0)
        with pytest.raises(TreeError):
            tree.remove_member(0)

    def test_invalid_fanout(self):
        kernel, network = make_net(3)
        with pytest.raises(TreeError):
            DisseminationTree(network, root=0, max_fanout=0)


class TestSecondaryTier:
    def make_tier(self, author, n_replicas=6, seed=0):
        kernel, network = make_net(n_replicas + 2)
        rng = random.Random(seed)
        tier = SecondaryTier(network, obj_guid(author), root_contact=0, rng=rng)
        for node in range(1, n_replicas + 1):
            tier.add_replica(node)
        client = n_replicas + 1
        return kernel, network, tier, client

    def test_committed_push_reaches_all(self, author):
        kernel, network, tier, client = self.make_tier(author)
        update = make_up(author, b"v1", 1.0)
        tier.push_committed(0, update)
        kernel.run(until=10_000.0)
        assert tier.consistent_fraction() == 1.0
        for replica in tier.replicas.values():
            assert replica.committed_through == 0
            assert replica.committed_state.version == 1

    def test_out_of_order_commits_buffer(self, author):
        kernel, network, tier, client = self.make_tier(author)
        u0, u1 = make_up(author, b"a", 1.0), make_up(author, b"b", 2.0)
        replica = next(iter(tier.replicas.values()))
        replica.apply_committed(1, u1)
        assert replica.committed_through == -1  # waiting for seq 0
        replica.apply_committed(0, u0)
        assert replica.committed_through == 1
        assert replica.committed_state.data.logical_ciphertext() == [b"a", b"b"]

    def test_tentative_epidemic_spread(self, author):
        kernel, network, tier, client = self.make_tier(author)
        update = make_up(author, b"tentative", 5.0)
        tier.submit_tentative(client, update, fanout=1)
        kernel.run(until=200.0)
        infected = sum(
            1 for r in tier.replicas.values() if update.update_id in r.tentative
        )
        assert infected >= 1
        for _ in range(4):
            tier.epidemic_round()
            kernel.run(until=kernel.now + 500.0)
        assert tier.tentative_agreement() == 1.0
        assert all(update.update_id in r.tentative for r in tier.replicas.values())

    def test_tentative_state_applies_timestamp_order(self, author):
        kernel, network, tier, client = self.make_tier(author)
        late = make_up(author, b"late", 10.0)
        early = make_up(author, b"early", 1.0)
        replica = next(iter(tier.replicas.values()))
        replica.add_tentative(late)
        replica.add_tentative(early)
        state = replica.tentative_state()
        assert state.data.logical_ciphertext() == [b"early", b"late"]

    def test_commit_retires_tentative(self, author):
        kernel, network, tier, client = self.make_tier(author)
        update = make_up(author, b"x", 1.0)
        replica = next(iter(tier.replicas.values()))
        replica.add_tentative(update)
        replica.apply_committed(0, update)
        assert update.update_id not in replica.tentative
        assert replica.committed_through == 0

    def test_forged_tentative_rejected(self, author):
        from dataclasses import replace

        kernel, network, tier, client = self.make_tier(author)
        genuine = make_up(author, b"x", 1.0)
        forged = replace(genuine, signature=b"\x01" * 32)
        replica = next(iter(tier.replicas.values()))
        replica.add_tentative(forged)
        assert forged.update_id not in replica.tentative

    def test_holder_gets_one_notice_and_no_body(self, author):
        kernel, network, tier, client = self.make_tier(author)
        sent = log_sends(network)
        update = make_up(author, b"big-payload" * 100, 1.0)
        holder = max(tier.replicas, key=tier.tree.depth)
        tier.replicas[holder].add_tentative(update)
        tier.push_committed(0, update)
        kernel.run(until=10_000.0)
        assert [type(p) for _, dst, p in sent if dst == holder] == [CommitNotice]
        assert tier.replicas[holder].committed_through == 0
        assert tier.consistent_fraction() == 1.0

    def test_non_holder_pulls_each_seq_once(self, author):
        kernel, network, tier, client = self.make_tier(author)
        sent = log_sends(network)
        for seq in range(3):
            tier.push_committed(seq, make_up(author, b"u%d" % seq, float(seq)))
        kernel.run(until=10_000.0)
        for node, replica in tier.replicas.items():
            pulls = [p.seq for src, _, p in sent if src == node and isinstance(p, PullRequest)]
            assert sorted(pulls) == [0, 1, 2]
            assert replica.committed_through == 2
        # each body crosses each tree edge once, in a pull response
        bodies = [p for _, _, p in sent if isinstance(p, PullResponse)]
        assert len(bodies) == 3 * len(tier.replicas)

    def test_one_replica_handler_per_delivered_tier_message(self, author, monkeypatch):
        kernel, network = make_net(8)
        mailboxes = TierMailboxes(network)
        tiers = [
            SecondaryTier(
                network, obj_guid(author, f"obj-{i}"), root_contact=0,
                rng=random.Random(i), mailboxes=mailboxes,
            )
            for i in range(3)
        ]
        for tier in tiers:
            for node in range(1, 7):
                tier.add_replica(node)
        calls = []
        for payload_type, handler in list(_SECONDARY_DISPATCH.items()):
            def counted(replica, payload, handler=handler):
                calls.append((replica.network_id, replica.tier.object_guid))
                handler(replica, payload)
            monkeypatch.setitem(_SECONDARY_DISPATCH, payload_type, counted)
        sent = log_sends(network)
        for i, tier in enumerate(tiers):
            update = make_up(author, b"x", 1.0, name=f"obj-{i}")
            tier.submit_tentative(7, update)
            tier.push_committed(0, update)
        kernel.run(until=10_000.0)
        for tier in tiers:
            tier.epidemic_round()
        kernel.run(until=20_000.0)
        to_replicas = [
            (dst, p.object_guid) for _, dst, p in sent if dst in range(1, 7)
        ]
        assert sorted(calls) == sorted(to_replicas)
        assert all(len(network._subscriptions[node]) == 1 for node in range(1, 7))
        assert all(tier.consistent_fraction() == 1.0 for tier in tiers)

    def test_anti_entropy_catches_up_committed(self, author):
        kernel, network, tier, client = self.make_tier(author)
        update = make_up(author, b"x", 1.0)
        ids = sorted(tier.replicas)
        # Only one replica has the committed update.
        tier.replicas[ids[0]].apply_committed(0, update)
        # A behind replica anti-entropies with it.
        tier.replicas[ids[1]].start_anti_entropy(ids[0])
        kernel.run(until=1_000.0)
        assert tier.replicas[ids[1]].committed_through == 0

    def test_remove_replica(self, author):
        kernel, network, tier, client = self.make_tier(author)
        victim = sorted(tier.replicas)[2]
        tier.remove_replica(victim)
        assert victim not in tier.replicas
        update = make_up(author, b"x", 1.0)
        tier.push_committed(0, update)
        kernel.run(until=10_000.0)
        assert tier.consistent_fraction() == 1.0

    def test_root_at_a_secondary_retires_its_secondary_role(self, author):
        """Re-rooting at one of the tier's own secondaries (a handoff
        electing a node that served the tree) drops that replica first;
        the rest of the tree hangs off the new root and still gets every
        commit."""
        kernel, network, tier, client = self.make_tier(author)
        new_root = sorted(tier.replicas)[0]
        tier.root_at(new_root)
        assert tier.tree.root == new_root
        assert new_root not in tier.replicas
        assert new_root not in tier.mailboxes.replicas.hosted
        assert 0 not in tier.mailboxes.roots.hosted
        assert tier.mailboxes.roots.hosted[new_root][tier.object_guid] is tier
        assert sorted(tier.tree.members) == sorted([new_root, *tier.replicas])
        tier.push_committed(0, make_up(author, b"x", 1.0))
        kernel.run(until=10_000.0)
        assert {r.committed_through for r in tier.replicas.values()} == {0}


def quickstart_system():
    """examples/quickstart.py's deployment, with no recovery manager."""
    from repro import DeploymentConfig, OceanStoreSystem
    from repro.sim import TopologyParams

    system = OceanStoreSystem(
        DeploymentConfig(
            seed=2026,
            topology=TopologyParams(
                transit_nodes=4, stubs_per_transit=3, nodes_per_stub=5
            ),
            secondaries_per_object=4,
        )
    )
    assert system.recovery is None
    return system


def ring_view(system):
    return max(r.view for r in system.ring.replicas)


class TestMissedNotice:
    def test_secondary_that_missed_a_notice_catches_up_on_the_next(self):
        """A secondary down for one commit pulls the seq it missed when
        the next notice arrives, instead of buffering behind the gap."""
        from repro import make_client

        system = quickstart_system()
        alice = make_client(system, "alice", seed=1)
        obj = alice.create_object("meeting-notes")
        alice.write(obj, b"v0")
        system.settle()
        tier = system.tiers[obj.guid]
        victim = sorted(tier.replicas)[0]
        system.injector.crash(victim)
        alice.write(obj, b"v1")
        system.settle()
        system.injector.revive(victim)
        for i in range(2, 5):
            alice.write(obj, b"v%d" % i)
        system.settle(120_000.0)
        ring_version = (
            system.servers[system.ring_nodes[0]].objects[obj.guid].active.version
        )
        assert tier.replicas[victim].committed_through == 4
        read = system.read_state(
            obj.guid, allow_tentative=False, min_version=0, client_node=victim
        )
        assert read.version == ring_version == 5


class TestLeaderRootedTree:
    """The dissemination tree follows the view: a view change re-roots
    the tiers its ring owns at the new leader."""

    def crash_leader_and_commit(self, system, writes=3):
        from repro import make_client

        alice = make_client(system, "alice", seed=1)
        obj = alice.create_object("meeting-notes")
        alice.write(obj, b"v0")
        system.settle()
        leader = system.ring_nodes[system.ring.leader_index(0)]
        assert system.tiers[obj.guid].tree.root == leader
        system.injector.crash(leader)
        for i in range(1, writes + 1):
            assert alice.write(obj, b"v%d" % i).committed
        system.settle(120_000.0)
        return alice, obj, leader

    def test_secondaries_hear_of_commits_after_the_root_leader_crashes(self):
        """Commits the ring makes after its view-0 leader (the tree's root)
        crashes still reach every secondary."""
        system = quickstart_system()
        _, obj, leader = self.crash_leader_and_commit(system)
        tier = system.tiers[obj.guid]
        survivors = [n for n in system.ring_nodes if n != leader]
        assert {
            system.servers[n].objects[obj.guid].active.version for n in survivors
        } == {4}
        assert len(tier.replicas) == 4
        assert {r.committed_through for r in tier.replicas.values()} == {3}
        assert tier.tree.root == system.ring_nodes[
            system.ring.leader_index(ring_view(system))
        ]

    def test_a_write_built_on_a_secondary_read_commits(self):
        """A committed read at each secondary's node returns the ring's
        newest version, so an overwrite built on it does not abort."""
        from repro.api.callbacks import ApiEvent

        system = quickstart_system()
        alice, obj, _ = self.crash_leader_and_commit(system)
        tier = system.tiers[obj.guid]
        for node in sorted(tier.replicas):
            read = system.read_state(obj.guid, False, 0, client_node=node)
            assert read.version == 4
        aborted = []
        system.callbacks().register(ApiEvent.UPDATE_ABORTED, aborted.append)
        alice.home_node = min(tier.replicas)  # read at a secondary's node
        result = alice.write(obj, b"v4")
        assert result.committed and result.new_version == 5
        assert aborted == []

    def test_a_view_change_moves_the_root_off_a_live_old_leader(self):
        """A silent leader stays up, but the view moves on and so does
        the root: the old node holds no root mailbox, and every secondary
        applies each seq exactly once."""
        from repro import make_client
        from repro.consistency import FaultMode

        system = quickstart_system()
        alice = make_client(system, "alice", seed=1)
        obj = alice.create_object("meeting-notes")
        tier = system.tiers[obj.guid]
        applied = []
        notify = tier.notify_children

        def recording(node, seq, update_id):
            applied.append((node, seq))
            notify(node, seq, update_id)

        tier.notify_children = recording
        alice.write(obj, b"v0")
        system.settle()
        old_root = tier.tree.root
        system.ring.set_fault(system.ring.leader_index(0), FaultMode.SILENT)
        for i in range(1, 4):
            assert alice.write(obj, b"v%d" % i).committed
        system.settle(120_000.0)
        view = ring_view(system)
        assert view >= 1
        assert tier.tree.root == system.ring_nodes[system.ring.leader_index(view)]
        assert tier.tree.root != old_root
        assert obj.guid not in tier.mailboxes.roots.hosted.get(old_root, {})
        assert tier.mailboxes.roots.hosted[tier.tree.root][obj.guid] is tier
        assert {r.committed_through for r in tier.replicas.values()} == {3}
        for node in tier.replicas:
            assert [seq for n, seq in applied if n == node] == [0, 1, 2, 3]

    def test_a_retired_ring_moves_no_root(self):
        """Once membership handoff retires a ring, a view change in it
        leaves the tiers it no longer owns where they are."""
        from test_rings import _guid_in_shard, _handoff_system, _submit

        system = _handoff_system(seed=3)
        guid = _guid_in_shard(system, 1)
        system.create_object(guid)
        _submit(system, guid, b"pre-handoff", 1.0)
        system.settle(20_000.0)
        shard = system.rings.shards[1]
        old_ring = shard.ring
        system.injector.crash(shard.members[-1])
        system.settle(60_000.0)
        assert shard.ring is not old_ring
        root = system.tiers[guid].tree.root
        view = next(
            v
            for v in range(1, 2 * old_ring.n)
            if old_ring.replicas[old_ring.leader_index(v)].network_id != root
        )
        leader = old_ring.replicas[old_ring.leader_index(view)]
        leader.view_change_votes[view] = {i: () for i in range(old_ring.quorum)}
        leader._maybe_enter_view(view)
        assert leader.view == view
        assert system.tiers[guid].tree.root == root

    def test_health_reports_the_view_and_who_feeds_the_trees(self):
        system = quickstart_system()
        self.crash_leader_and_commit(system)
        (shard,) = system.health_snapshot()["shards"]
        assert shard["view"] == ring_view(system) >= 1
        assert shard["tree_roots"] == [
            system.ring_nodes[system.ring.leader_index(shard["view"])]
        ]
