"""Integration tests: the full deployment behind the client API."""

import os
import subprocess
import sys

import pytest

from repro.access import ACL, ACLCertificate, Privilege
from repro.api import ApiEvent, SessionGuarantee, UnknownObject
from repro.api.facades import FileSystemFacade, TransactionalFacade
from repro.consistency import FaultMode
from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.sim import TopologyParams
from repro.util import ConfigError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

def small_config(**overrides):
    defaults = dict(
        seed=7,
        topology=TopologyParams(
            transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
        ),
        secondaries_per_object=3,
        archival_k=4,
        archival_n=8,
    )
    defaults.update(overrides)
    return DeploymentConfig(**defaults)


#: (dial overrides, the dial the ConfigError names); each is rejected by
#: ``DeploymentConfig`` itself, before any deployment is built
BAD_DEPLOYMENT_DIALS = (
    ({"secondaries_per_object": -1}, "secondaries_per_object"),
    ({"archival_k": 8, "archival_n": 8}, "archival_k"),
    ({"dissemination_fanout": 0}, "dissemination_fanout"),
    ({"replica_window_ms": 0.0}, "replica_window_ms"),
    ({"replica_window_ms": float("nan")}, "replica_window_ms"),
    ({"replica_window_ms": float("inf")}, "replica_window_ms"),
    ({"replica_overload_requests": 1}, "replica_overload_requests"),
)


@pytest.mark.parametrize(
    "overrides, named",
    BAD_DEPLOYMENT_DIALS,
    ids=[
        "secondaries-negative", "archival-k-equals-n",
        "fanout-0", "window-0", "window-nan", "window-inf", "overload-1",
    ],
)
def test_deployment_config_rejects_bad_dial(overrides, named):
    with pytest.raises(ConfigError, match=named):
        small_config(**overrides)


@pytest.fixture()
def deployment():
    system = OceanStoreSystem(small_config())
    alice = make_client(system, "alice", seed=1)
    return system, alice


class TestEndToEnd:
    def test_write_read_round_trip(self, deployment):
        system, alice = deployment
        obj = alice.create_object("doc")
        result = alice.write(obj, b"persistent data")
        assert result.committed and result.new_version == 1
        assert alice.read(obj) == b"persistent data"

    def test_multiple_updates_version_chain(self, deployment):
        system, alice = deployment
        obj = alice.create_object("log")
        for i in range(3):
            assert alice.append(obj, f"line{i};".encode()).committed
        assert alice.read(obj) == b"line0;line1;line2;"
        primary = system.servers[system.ring_nodes[0]].objects[obj.guid]
        assert primary.version == 3
        assert primary.log.versions() == [1, 2, 3]

    def test_commit_reaches_secondary_replicas(self, deployment):
        system, alice = deployment
        obj = alice.create_object("spread")
        alice.write(obj, b"replicated")
        system.settle()
        tier = system.tiers[obj.guid]
        assert tier.consistent_fraction() == 1.0
        for replica in tier.replicas.values():
            assert replica.committed_through == 0

    def test_callbacks_fire(self, deployment):
        system, alice = deployment
        obj = alice.create_object("watched")
        events = []
        alice.on_event(ApiEvent.NEW_VERSION, events.append, obj.guid)
        alice.write(obj, b"x")
        assert len(events) == 1

    def test_aborted_update_reported(self, deployment):
        system, alice = deployment
        obj = alice.create_object("guarded")
        alice.write(obj, b"base")
        stale = alice.update_builder(obj).guard_version().append(b"stale")
        alice.append(obj, b"-concurrent")  # bumps the version first
        result = alice.submit(obj, stale)
        assert not result.committed

    def test_unknown_object(self, deployment):
        system, alice = deployment
        from repro.util import GUID

        alice.keyring.create_object_key(GUID.hash_of(b"ghost"))
        with pytest.raises(UnknownObject):
            alice.read(alice.open_object(GUID.hash_of(b"ghost")))

    def test_two_clients_share_object(self, deployment):
        system, alice = deployment
        bob = make_client(system, "bob", seed=2)
        obj = alice.create_object("shared")
        alice.write(obj, b"from alice")
        alice.grant_read(obj.guid, bob.keyring)
        bob_obj = bob.open_object(obj.guid)
        assert bob.read(bob_obj) == b"from alice"

    def test_acid_session_read_your_writes(self, deployment):
        system, alice = deployment
        obj = alice.create_object("acid")
        session = alice.open_session(SessionGuarantee.ACID)
        alice.write(obj, b"v1", session)
        assert alice.read(obj, session) == b"v1"


class TestFaultTolerance:
    def test_survives_one_byzantine_replica(self):
        system = OceanStoreSystem(small_config())
        alice = make_client(system, "alice", seed=3)
        obj = alice.create_object("resilient")
        system.ring.set_fault(2, FaultMode.SILENT)
        result = alice.write(obj, b"still works")
        assert result.committed
        assert alice.read(obj) == b"still works"

    def test_survives_leader_failure(self):
        system = OceanStoreSystem(small_config())
        alice = make_client(system, "alice", seed=4)
        obj = alice.create_object("leaderless")
        system.ring.set_fault(0, FaultMode.SILENT)
        update_builder = alice.update_builder(obj).append(b"post-failover")
        update = update_builder.build(alice.principal, obj.guid, 1.0)
        system.submit_update(alice.home_node, update)
        system.settle(120_000.0)  # view change needs the timeout to fire
        primary = system.servers[system.ring_nodes[1]].objects[obj.guid]
        assert primary.version == 1

    def test_archive_restore_after_primary_loss(self):
        system = OceanStoreSystem(small_config())
        alice = make_client(system, "alice", seed=5)
        obj = alice.create_object("durable")
        alice.write(obj, b"deep archival storage")
        state = system.restore_from_archive(obj.guid, 1)
        assert obj.codec.read_document(state.data) == b"deep archival storage"

    def test_repair_sweep_restores_redundancy(self):
        system = OceanStoreSystem(small_config())
        alice = make_client(system, "alice", seed=6)
        obj = alice.create_object("swept")
        alice.write(obj, b"fragile fragments")
        # Kill a third of the servers, then sweep.
        victims = sorted(system.servers)[::3]
        for victim in victims:
            if victim not in system.ring_nodes:
                system.network.set_down(victim)
        reports = system.sweeper.sweep()
        assert any(r.repaired for r in reports) or all(
            not r.lost for r in reports
        )
        # The object remains restorable either way.
        state = system.restore_from_archive(obj.guid, 1)
        assert state.version == 1


class TestAccessControlIntegration:
    def test_unauthorized_writer_rejected(self):
        system = OceanStoreSystem(small_config())
        alice = make_client(system, "alice", seed=8)
        mallory = make_client(system, "mallory", seed=9)
        obj = alice.create_object("protected")
        from repro.access.policy import DEFAULT_OWNER_ONLY

        system.access.install_default(
            obj.guid, alice.principal.public_key, DEFAULT_OWNER_ONLY
        )
        assert alice.write(obj, b"mine").committed
        alice.grant_read(obj.guid, mallory.keyring)
        mallory_obj = mallory.open_object(obj.guid)
        result = mallory.append(mallory_obj, b"tampered")
        assert not result.committed
        assert alice.read(obj) == b"mine"

    def test_acl_granted_writer_accepted(self):
        system = OceanStoreSystem(small_config())
        alice = make_client(system, "alice", seed=10)
        bob = make_client(system, "bob", seed=11)
        obj = alice.create_object("group-doc")
        acl = ACL()
        acl.grant(bob.principal.public_key, Privilege.WRITE)
        cert = ACLCertificate.issue(alice.principal, obj.guid, acl)
        assert system.access.install_acl(obj.guid, acl, cert)
        alice.grant_read(obj.guid, bob.keyring)
        bob_obj = bob.open_object(obj.guid)
        assert bob.append(bob_obj, b"from bob").committed


class TestIntrospectionIntegration:
    def test_overload_creates_replica(self):
        system = OceanStoreSystem(
            small_config(replica_overload_requests=5, replica_window_ms=1e9)
        )
        alice = make_client(system, "alice", seed=12)
        obj = alice.create_object("hot")
        alice.write(obj, b"popular content")
        for _ in range(10):
            alice.read(obj)
        decisions = system.run_replica_management()
        from repro.introspect import DecisionKind

        creates = [d for d in decisions if d.kind is DecisionKind.CREATE]
        assert creates
        # Idle siblings may simultaneously be eliminated (disuse), but the
        # object stays served and the system remains functional.
        assert system.tiers[obj.guid].replicas
        assert alice.read(obj) == b"popular content"

    def test_facades_run_on_full_system(self):
        system = OceanStoreSystem(small_config())
        alice = make_client(system, "alice", seed=13)
        fs = FileSystemFacade(alice)
        fs.mkdir("projects")
        fs.write_file("projects/paper.txt", b"ASPLOS 2000")
        assert fs.read_file("projects/paper.txt") == b"ASPLOS 2000"
        obj = alice.create_object("account")
        alice.write(obj, b"10")
        txn = TransactionalFacade(alice).begin(obj)
        value = int(txn.read())
        txn.replace(0, str(value + 5).encode())
        assert txn.commit()
        assert alice.read(obj) == b"15"


class TestDomainAwarePlacement:
    def test_fragments_spread_across_domains(self):
        system = OceanStoreSystem(small_config())
        alice = make_client(system, "alice", seed=30)
        obj = alice.create_object("dispersed")
        alice.write(obj, b"spread me widely")
        ref = system._archival_refs[(obj.guid, 1)]
        # Count fragments per administrative domain.
        plan_holders = [
            node
            for node, server in system.servers.items()
            if server.fragments.get(ref.archival_guid.to_bytes())
        ]
        per_domain = {}
        for holder in plan_holders:
            domain = system.placer.domain_of(holder)
            assert domain is not None
            per_domain[domain.name] = per_domain.get(domain.name, 0) + 1
        # No domain holds more than half the fragments (the default cap).
        assert max(per_domain.values()) <= system.config.archival_n // 2
        assert len(per_domain) >= 2

    def test_whole_domain_failure_still_restores(self):
        system = OceanStoreSystem(small_config())
        alice = make_client(system, "alice", seed=31)
        obj = alice.create_object("domain-proof")
        alice.write(obj, b"survives a site loss")
        # Kill the single most-loaded stub domain entirely.
        ref = system._archival_refs[(obj.guid, 1)]
        holders = [
            node
            for node, server in system.servers.items()
            if server.fragments.get(ref.archival_guid.to_bytes())
        ]
        domains = {}
        for holder in holders:
            d = system.placer.domain_of(holder)
            domains.setdefault(d.name, []).append(holder)
        worst_name = max(domains, key=lambda k: len(domains[k]))
        worst = next(d for d in system.placer.domains if d.name == worst_name)
        for node in worst.servers:
            if node not in system.ring_nodes:
                system.network.set_down(node)
        state = system.restore_from_archive(obj.guid, 1)
        assert obj.codec.read_document(state.data) == b"survives a site loss"


def test_default_client_identity_is_stable_across_processes():
    # Without seed=, make_client must not depend on the per-process
    # str-hash salt: two interpreters with different PYTHONHASHSEED
    # values mint the same key at the same home node.
    script = (
        "from repro import DeploymentConfig, OceanStoreSystem, make_client\n"
        "from repro.sim import TopologyParams\n"
        "system = OceanStoreSystem(DeploymentConfig(seed=42, topology=TopologyParams("
        "transit_nodes=4, stubs_per_transit=1, nodes_per_stub=4)))\n"
        "alice = make_client(system, 'alice')\n"
        "print(alice.home_node, alice.principal.public_key.n)\n"
    )
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1
