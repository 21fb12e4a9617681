"""A version is a value: one state copy per update, none per read.

:func:`~repro.data.update.apply_update` edits one working copy and never
its input, so the version log records states by reference and every read
path hands out the recorded state itself.  Every log starts from one
shared empty state and an update remembers its last result, so replicas
that apply the same updates in order hold the very same states.  These
tests count :meth:`DataObjectState.copy` calls and check identities to
pin that.
"""

import dataclasses
import random

import pytest

import repro.consistency.secondary as secondary_mod
import repro.data.version_log as version_log_mod
from repro.api import LocalBackend
from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.crypto import make_principal
from repro.data import (
    AppendBlock,
    CompareVersion,
    DataObjectState,
    DeleteBlock,
    TruePredicate,
    UpdateBranch,
    UpdateOutcome,
    VersionLog,
    make_update,
)
from repro.naming import RetentionPolicy, VersionPolicy, object_guid
from repro.sim import TopologyParams


@pytest.fixture(scope="module")
def author():
    return make_principal("value-author", random.Random(260), bits=256)


@pytest.fixture()
def copies(monkeypatch):
    """Counts every ``DataObjectState.copy`` call made during the test."""
    counter = {"n": 0}
    original = DataObjectState.copy

    def counting_copy(self):
        counter["n"] += 1
        return original(self)

    monkeypatch.setattr(DataObjectState, "copy", counting_copy)
    return counter


def _update(author, guid, predicate, actions, ts):
    return make_update(author, guid, [UpdateBranch(predicate, tuple(actions))], ts)


class TestVersionLogCopies:
    def test_one_copy_per_applied_update(self, author, copies):
        guid = object_guid(author.public_key, "values")
        log = VersionLog()
        for i in range(3):
            log.apply(_update(author, guid, TruePredicate(), [AppendBlock(b"v%d" % i)], i))
        assert copies["n"] == 3
        # No true predicate: nothing is applied, nothing is copied.
        log.apply(_update(author, guid, CompareVersion(99), [AppendBlock(b"x")], 4.0))
        assert copies["n"] == 3
        # A failing action: the one working copy is made, then discarded.
        log.apply(_update(author, guid, TruePredicate(), [DeleteBlock(slot=50)], 5.0))
        assert copies["n"] == 4
        assert log.current_version == 3

    def test_records_and_snapshot_share_states(self, author, copies):
        guid = object_guid(author.public_key, "values")
        log = VersionLog()
        for i in range(3):
            log.apply(_update(author, guid, TruePredicate(), [AppendBlock(b"v%d" % i)], i))
        before = copies["n"]
        assert log.version(3).state is log.head
        clone = log.snapshot()
        assert clone.head is log.head
        assert all(clone.version(v) is log.version(v) for v in log.versions())
        assert copies["n"] == before
        # The containers are independent: retiring on one leaves the other.
        clone.retire(VersionPolicy(RetentionPolicy.KEEP_LAST_N, keep_last=1))
        assert clone.versions() == [3]
        assert log.versions() == [1, 2, 3]

    def test_published_version_never_changes(self, author):
        guid = object_guid(author.public_key, "values")
        log = VersionLog()
        log.apply(_update(author, guid, TruePredicate(), [AppendBlock(b"first")], 1.0))
        v1 = log.version(1).state
        log.apply(_update(author, guid, TruePredicate(), [AppendBlock(b"second")], 2.0))
        assert v1.version == 1
        assert v1.data.logical_ciphertext() == [b"first"]
        assert log.head.data.logical_ciphertext() == [b"first", b"second"]


class TestReadPathsCopyNothing:
    def test_local_backend(self, author, copies):
        guid = object_guid(author.public_key, "local")
        backend = LocalBackend()
        backend.create_object(guid)
        backend.submit_update(
            0, _update(author, guid, TruePredicate(), [AppendBlock(b"x")], 1.0)
        )
        assert copies["n"] == 1
        head = backend.read_state(guid, allow_tentative=False, min_version=1)
        assert backend.read_version(guid, 1) is head
        assert copies["n"] == 1

    def test_deployment_reads(self, copies, monkeypatch):
        applied = {"n": 0}
        applied_updates = set()
        for module in (version_log_mod, secondary_mod):
            original = module.apply_update

            def counting_apply(state, update, _original=original):
                outcome, after = _original(state, update)
                if outcome.branch_index is not None:
                    applied["n"] += 1
                    applied_updates.add(update.update_id)
                return outcome, after

            monkeypatch.setattr(module, "apply_update", counting_apply)
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=261,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=1, nodes_per_stub=4
                ),
            )
        )
        client = make_client(system, "value-reader", seed=262)
        handle = client.create_object("read-paths")
        for i in range(2):
            assert client.write(handle, b"payload %d" % i).committed
        system.settle()
        # Every ring member and secondary applies each update, and all of
        # them share one copy per update across the whole deployment.
        assert len(applied_updates) == 2
        assert applied["n"] > len(applied_updates)
        assert copies["n"] == len(applied_updates)
        # The per-update outcome table lives as long as the deployment, so
        # it must hold no state: a replaced version would never be freed.
        assert system._outcomes
        assert [f.name for f in dataclasses.fields(UpdateOutcome)] == [
            "committed",
            "branch_index",
            "new_version",
        ]

        head = system.servers[system.ring_nodes[0]].objects[handle.guid].active
        before = copies["n"]
        for allow_tentative in (False, True):
            state = system.read_state(
                handle.guid, allow_tentative=allow_tentative, min_version=head.version
            )
            assert state.version == head.version
            state = system.read_degraded(
                handle.guid, allow_tentative=allow_tentative, min_version=head.version
            )
            assert state.version == head.version
        assert system.read_version(handle.guid, head.version) is head
        for replica in system.tiers[handle.guid].replicas.values():
            assert replica.tentative_state() is replica.committed_state
        assert copies["n"] == before


class TestOneVersionPerCommit:
    def test_replicas_hold_one_state_per_version(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=263,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=1, nodes_per_stub=4
                ),
            )
        )
        client = make_client(system, "one-version", seed=264)
        handle = client.create_object("one-version")
        payloads = [b"first", b"second", b"third"]
        for version, payload in enumerate(payloads, start=1):
            if version == 2:
                assert client.append(handle, payload).committed
            else:
                assert client.write(handle, payload).committed
            system.settle()
            members = [
                node
                for node in system.rings.members_for(handle.guid)
                if not system.network.is_down(node)
            ]
            heads = [system.servers[node].objects[handle.guid].active for node in members]
            heads += [
                replica.committed_state
                for replica in system.tiers[handle.guid].replicas.values()
            ]
            assert len(members) > 1 and len(heads) > len(members)
            assert heads[0].version == version
            assert all(head is heads[0] for head in heads)

    def test_every_log_starts_from_one_empty_state(self, author):
        guid = object_guid(author.public_key, "empty")
        backend = LocalBackend()
        backend.create_object(guid)
        empty = version_log_mod.EMPTY_STATE
        assert empty == DataObjectState()
        assert VersionLog().head is empty
        assert backend.read_state(guid, allow_tentative=False, min_version=0) is empty
