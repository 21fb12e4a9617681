"""Tests for log-structured shared directories over the live update path,
and timer-driven epidemic replication."""

import random

import pytest

from reference_backend import LocalBackend
from repro.api import OceanStoreHandle, SharedDirectory
from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.crypto import KeyRing, make_principal
from repro.sim import TopologyParams
from repro.util import GUID


def local_store(name="dir-user", seed=110):
    principal = make_principal(name, random.Random(seed), bits=256)
    backend = LocalBackend()
    return OceanStoreHandle(backend, principal, KeyRing(principal, random.Random(seed + 1)))


def g(label):
    return GUID.hash_of(label.encode())


class TestSharedDirectoryLocal:
    def test_bind_lookup(self):
        store = local_store()
        shared = SharedDirectory.create(store, "dir")
        assert shared.bind("readme", g("readme"))
        assert shared.lookup("readme") == g("readme")
        assert "readme" in shared
        assert shared.list() == ["readme"]

    def test_unbind(self):
        store = local_store()
        shared = SharedDirectory.create(store, "dir")
        shared.bind("temp", g("t"))
        shared.unbind("temp")
        assert "temp" not in shared

    def test_rebind_wins(self):
        store = local_store()
        shared = SharedDirectory.create(store, "dir")
        shared.bind("n", g("old"))
        shared.bind("n", g("new"))
        assert shared.lookup("n") == g("new")

    def test_compact_preserves_view(self):
        store = local_store()
        shared = SharedDirectory.create(store, "dir")
        for i in range(5):
            shared.bind(f"f{i}", g(f"f{i}"))
        shared.unbind("f0")
        shared.bind("f1", g("f1-new"))
        before = {e.name: e.target for e in shared.snapshot().list()}
        assert shared.log_length() == 7
        assert shared.compact()
        assert shared.log_length() == 4
        after = {e.name: e.target for e in shared.snapshot().list()}
        assert after == before

    def test_shared_between_clients(self):
        owner = local_store("owner", seed=120)
        shared = SharedDirectory.create(owner, "team-dir")
        shared.bind("spec", g("spec"))
        other = make_principal("member", random.Random(121), bits=256)
        other_ring = KeyRing(other, random.Random(122))
        owner.grant_read(shared.guid, other_ring)
        member = OceanStoreHandle(owner.backend, other, other_ring)
        member_view = SharedDirectory.open(member, shared.guid)
        assert member_view.lookup("spec") == g("spec")
        # The member binds too (public-write default in LocalBackend).
        assert member_view.bind("notes", g("notes"))
        assert "notes" in shared


class TestSharedDirectoryDistributed:
    @pytest.fixture()
    def deployment(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=123,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
                secondaries_per_object=2,
                archival_k=4,
                archival_n=8,
            )
        )
        return system

    def test_concurrent_binds_merge(self, deployment):
        """The Coda property over the real Byzantine update path: two
        clients bind different names against the same base state; both
        commit; everyone sees the union."""
        system = deployment
        alice = make_client(system, "alice", seed=1)
        shared = SharedDirectory.create(alice, "project")
        bob = make_client(system, "bob", seed=2)
        alice.grant_read(shared.guid, bob.keyring)
        bob_view = SharedDirectory.open(bob, shared.guid)

        # Both build their updates against the SAME (empty) state, then
        # submit: appends without guards, so both serialize and commit.
        alice_builder = alice.update_builder(shared.handle)
        from repro.naming.logdir import bind_record

        alice_builder.append(bind_record("from-alice", g("a")).encode())
        bob_builder = bob.update_builder(bob_view.handle)
        bob_builder.append(bind_record("from-bob", g("b")).encode())
        r1 = alice.submit(shared.handle, alice_builder)
        r2 = bob.submit(bob_view.handle, bob_builder)
        assert r1.committed and r2.committed

        merged = shared.snapshot()
        assert "from-alice" in merged.entries
        assert "from-bob" in merged.entries
        assert bob_view.list() == ["from-alice", "from-bob"]

    def test_blob_directories_conflict_where_logs_merge(self, deployment):
        """Contrast: whole-blob directory writes with version guards make
        one of two concurrent writers abort."""
        system = deployment
        alice = make_client(system, "alice2", seed=3)
        obj = alice.create_object("blob-dir")
        alice.write(obj, b"{}")
        stale_a = alice.update_builder(obj).guard_version().append(b"A")
        stale_b = alice.update_builder(obj).guard_version().append(b"B")
        ra = alice.submit(obj, stale_a)
        rb = alice.submit(obj, stale_b)
        assert ra.committed != rb.committed or not (ra.committed and rb.committed)
        assert sum(1 for r in (ra, rb) if r.committed) == 1


class TestEpidemicTimer:
    def test_timer_spreads_tentative_updates(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=130,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
                secondaries_per_object=4,
            )
        )
        alice = make_client(system, "alice", seed=4)
        obj = alice.create_object("gossiped")
        tier = system.tiers[obj.guid]
        tier.start_epidemic_timer(system.kernel, interval_ms=2_000.0)
        update = (
            alice.update_builder(obj)
            .append(b"tentative-payload")
            .build(alice.principal, obj.guid, 1.0)
        )
        # Seed a single replica with the tentative update; the timer
        # spreads it without further intervention.
        tier.submit_tentative(alice.home_node, update, fanout=1)
        system.settle(30_000.0)
        tier.stop_epidemic_timer()
        infected = sum(
            1 for r in tier.replicas.values() if update.update_id in r.tentative
        )
        assert infected == len(tier.replicas)

    def test_timer_start_stop_idempotent(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=131,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
            )
        )
        alice = make_client(system, "alice", seed=5)
        obj = alice.create_object("timed")
        tier = system.tiers[obj.guid]
        tier.start_epidemic_timer(system.kernel)
        tier.start_epidemic_timer(system.kernel)  # no-op
        tier.stop_epidemic_timer()
        tier.stop_epidemic_timer()  # no-op
