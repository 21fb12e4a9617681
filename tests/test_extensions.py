"""Tests for the paper's extension features: branching version streams,
log-structured (Coda-merge) directories, the web gateway, revocation
re-encryption, and confidence estimation."""

import random

import pytest

from reference_backend import LocalBackend
from repro.api import OceanStoreHandle
from repro.api.facades import FileSystemFacade, WebGateway
from repro.crypto import KeyRing, make_principal
from repro.data import (
    AppendBlock,
    BranchError,
    BranchingVersionLog,
    CompareVersion,
    TruePredicate,
    UpdateBranch,
    make_update,
)
from repro.introspect import ConfidenceEstimator
from repro.naming import (
    DirectoryRecordError,
    VersionedName,
    bind_record,
    compact_records,
    fold_records,
    object_guid,
    unbind_record,
)
from repro.util import GUID


@pytest.fixture(scope="module")
def author():
    return make_principal("author", random.Random(60), bits=256)


def guarded_append(author, payload, version, ts):
    guid = object_guid(author.public_key, "branching")
    return make_update(
        author,
        guid,
        [UpdateBranch(CompareVersion(version), (AppendBlock(payload),))],
        ts,
    )


def plain_append(author, payload, ts):
    guid = object_guid(author.public_key, "branching")
    return make_update(
        author, guid, [UpdateBranch(TruePredicate(), (AppendBlock(payload),))], ts
    )


class TestBranchingVersionLog:
    def test_conflict_diverts_to_branch(self, author):
        log = BranchingVersionLog()
        log.apply(plain_append(author, b"base", 1.0))  # main at v1
        stale = guarded_append(author, b"offline-work", version=1, ts=2.0)
        log.apply(plain_append(author, b"concurrent", 3.0))  # main at v2
        outcome = log.apply(stale)
        assert not outcome.committed
        branch_name, branch_outcome = log.divert(stale, built_against_version=1)
        assert branch_outcome.committed
        branch = log.branch(branch_name)
        assert branch.forked_from_version == 1
        assert branch.log.head.data.logical_ciphertext() == [b"base", b"offline-work"]
        # Main is untouched.
        assert log.head.data.logical_ciphertext() == [b"base", b"concurrent"]

    def test_same_fork_point_extends_branch(self, author):
        log = BranchingVersionLog()
        log.apply(plain_append(author, b"base", 1.0))
        log.apply(plain_append(author, b"main2", 2.0))
        u1 = guarded_append(author, b"b1", version=1, ts=3.0)
        u2 = plain_append(author, b"b2", 4.0)
        name1, _ = log.divert(u1, built_against_version=1)
        name2, _ = log.divert(u2, built_against_version=1)
        assert name1 == name2
        assert len(log.branch(name1).updates) == 2

    def test_merge_by_replay(self, author):
        log = BranchingVersionLog()
        log.apply(plain_append(author, b"base", 1.0))
        log.apply(plain_append(author, b"main2", 2.0))
        diverted = plain_append(author, b"branch-work", 3.0)
        name, _ = log.divert(diverted, built_against_version=1)
        outcomes = log.merge_by_replay(name)
        assert all(o.committed for o in outcomes)
        assert name not in log.branch_names()
        assert log.head.data.logical_ciphertext() == [b"base", b"main2", b"branch-work"]

    def test_unmergeable_branch_persists(self, author):
        log = BranchingVersionLog()
        log.apply(plain_append(author, b"base", 1.0))
        log.apply(plain_append(author, b"main2", 2.0))
        stubborn = guarded_append(author, b"stuck", version=1, ts=3.0)
        name, _ = log.divert(stubborn, built_against_version=1)
        outcomes = log.merge_by_replay(name)
        assert not outcomes[0].committed
        assert name in log.branch_names()  # still visible for resolution

    def test_resolve_with_reconciliation(self, author):
        log = BranchingVersionLog()
        log.apply(plain_append(author, b"base", 1.0))
        log.apply(plain_append(author, b"main2", 2.0))
        name, _ = log.divert(
            guarded_append(author, b"stuck", version=1, ts=3.0),
            built_against_version=1,
        )
        reconciliation = plain_append(author, b"merged-by-hand", 4.0)
        outcome = log.resolve(name, reconciliation)
        assert outcome.committed
        assert name not in log.branch_names()

    def test_drop_branch(self, author):
        log = BranchingVersionLog()
        log.apply(plain_append(author, b"base", 1.0))
        name, _ = log.divert(plain_append(author, b"junk", 2.0), 1)
        log.drop(name)
        with pytest.raises(BranchError):
            log.branch(name)
        with pytest.raises(BranchError):
            log.drop(name)


class TestLogStructuredDirectories:
    def g(self, i):
        return GUID.hash_of(f"t-{i}".encode())

    def test_fold_binds(self):
        records = [bind_record("a", self.g(1)), bind_record("b", self.g(2), True)]
        directory = fold_records(records)
        assert directory.lookup("a").target == self.g(1)
        assert directory.lookup("b").is_directory

    def test_unbind_removes(self):
        records = [bind_record("a", self.g(1)), unbind_record("a")]
        assert "a" not in fold_records(records)

    def test_unbind_absent_is_noop(self):
        assert fold_records([unbind_record("ghost")]).entries == {}

    def test_concurrent_binds_merge(self):
        # The Coda property: two clients bind different names against the
        # same base; both appends commit; the fold contains both.
        base = [bind_record("shared", self.g(0))]
        from_alice = bind_record("alice-file", self.g(1))
        from_bob = bind_record("bob-file", self.g(2))
        merged = fold_records(base + [from_alice, from_bob])
        assert {"shared", "alice-file", "bob-file"} <= set(merged.entries)

    def test_same_name_race_last_wins(self):
        records = [bind_record("n", self.g(1)), bind_record("n", self.g(2))]
        assert fold_records(records).lookup("n").target == self.g(2)

    def test_record_round_trip(self):
        for record in (bind_record("x", self.g(1), True), unbind_record("y")):
            assert type(record).decode(record.encode()) == record

    def test_malformed_record_rejected(self):
        with pytest.raises(DirectoryRecordError):
            bind_record("a/b", self.g(1))
        with pytest.raises(DirectoryRecordError):
            unbind_record("")
        from repro.naming.logdir import DirectoryRecord

        with pytest.raises(DirectoryRecordError):
            DirectoryRecord.decode(b"garbage")

    def test_compaction_preserves_fold(self):
        records = [
            bind_record("a", self.g(1)),
            bind_record("b", self.g(2)),
            unbind_record("a"),
            bind_record("c", self.g(3), True),
            bind_record("b", self.g(4)),
        ]
        compacted = compact_records(records)
        assert len(compacted) == 2
        assert fold_records(compacted).entries == fold_records(records).entries


@pytest.fixture()
def store_env():
    principal = make_principal("webuser", random.Random(61), bits=256)
    keyring = KeyRing(principal, random.Random(62))
    backend = LocalBackend()
    store = OceanStoreHandle(backend, principal, keyring)
    return store


class TestWebGateway:
    def test_get_latest_object(self, store_env):
        store = store_env
        obj = store.create_object("page")
        store.write(obj, b"<html>hello</html>")
        gateway = WebGateway(store)
        response = gateway.get(f"oceanstore://{obj.guid.hex()}")
        assert response.ok and response.body == b"<html>hello</html>"

    def test_bad_scheme(self, store_env):
        gateway = WebGateway(store_env)
        assert gateway.get("http://example.com").status == 400

    def test_malformed_guid(self, store_env):
        gateway = WebGateway(store_env)
        assert gateway.get("oceanstore://nothex!").status == 400

    def test_no_read_key_forbidden(self, store_env):
        gateway = WebGateway(store_env)
        unknown = GUID.hash_of(b"locked")
        assert gateway.get(f"oceanstore://{unknown.hex()}").status == 403

    def test_versioned_link_requires_archive(self, store_env):
        store = store_env
        obj = store.create_object("pinned")
        store.write(obj, b"v1")
        gateway = WebGateway(store)  # no archive reader
        link = VersionedName(obj.guid, 1).format()
        assert gateway.get(f"oceanstore://{link}").status == 501

    def test_versioned_link_served_from_archive(self, store_env):
        store = store_env
        obj = store.create_object("pinned2")
        store.write(obj, b"version one")
        snapshot = store.backend.object(obj.guid).log.version(1).state

        def archive_reader(guid, version):
            assert guid == obj.guid and version == 1
            return snapshot

        gateway = WebGateway(store, archive_reader=archive_reader)
        store.write(obj, b"version two")  # latest moves on
        link = VersionedName(obj.guid, 1).format()
        response = gateway.get(f"oceanstore://{link}")
        assert response.ok and response.body == b"version one"

    def test_fs_paths(self, store_env):
        store = store_env
        fs = FileSystemFacade(store)
        fs.mkdir("site")
        fs.write_file("site/index.html", b"<h1>hi</h1>")
        gateway = WebGateway(store, filesystem=fs)
        assert gateway.get("oceanstore://fs/site/index.html").body == b"<h1>hi</h1>"
        listing = gateway.get("oceanstore://fs/site/")
        assert listing.ok and b"index.html" in listing.body
        assert gateway.get("oceanstore://fs/missing.txt").status == 404

    def test_fs_not_mounted(self, store_env):
        gateway = WebGateway(store_env)
        assert gateway.get("oceanstore://fs/anything").status == 501


class TestRevocationReencryption:
    def test_revoked_reader_cannot_read_new_versions(self, store_env):
        owner = store_env
        obj = owner.create_object("secret-doc")
        owner.write(obj, b"generation zero")

        eve = make_principal("eve", random.Random(63), bits=256)
        eve_ring = KeyRing(eve, random.Random(64))
        owner.grant_read(obj.guid, eve_ring)
        eve_handle = OceanStoreHandle(owner.backend, eve, eve_ring)
        eve_obj = eve_handle.open_object(obj.guid)
        assert eve_handle.read(eve_obj) == b"generation zero"

        new_handle = owner.revoke_readers(obj)
        owner.append(new_handle, b" + new content")
        # Owner reads fine under the new generation.
        assert owner.read(new_handle) == b"generation zero + new content"
        # Eve's old key garbles the re-encrypted blocks.
        garbled = eve_handle.read(eve_obj)
        assert garbled != b"generation zero + new content"

    def test_regranting_new_generation_restores_access(self, store_env):
        owner = store_env
        obj = owner.create_object("rotating")
        owner.write(obj, b"round one")
        owner.revoke_readers(obj)
        bob = make_principal("bob2", random.Random(65), bits=256)
        bob_ring = KeyRing(bob, random.Random(66))
        owner.grant_read(obj.guid, bob_ring)  # grants the *new* generation
        bob_handle = OceanStoreHandle(owner.backend, bob, bob_ring)
        assert bob_handle.read(bob_handle.open_object(obj.guid)) == b"round one"

    def test_generation_increments(self, store_env):
        owner = store_env
        obj = owner.create_object("gen-check")
        owner.write(obj, b"x")
        assert owner.keyring.key_for(obj.guid).generation == 0
        owner.revoke_readers(obj)
        assert owner.keyring.key_for(obj.guid).generation == 1


class TestConfidenceEstimator:
    def test_improvement_raises_confidence(self):
        est = ConfidenceEstimator(alpha=0.5)
        start = est.confidence("replicate")
        action = est.begin_action("replicate", metric_before=100.0)
        assert est.complete_action(action, metric_after=50.0)
        assert est.confidence("replicate") > start

    def test_harm_lowers_confidence_and_throttles(self):
        est = ConfidenceEstimator(alpha=0.5, act_threshold=0.4)
        for _ in range(4):
            action = est.begin_action("migrate", metric_before=100.0)
            assert not est.complete_action(action, metric_after=150.0)
        assert not est.should_act("migrate")

    def test_recovery_after_good_outcomes(self):
        est = ConfidenceEstimator(alpha=0.5, act_threshold=0.4)
        for _ in range(4):
            a = est.begin_action("prefetch", 100.0)
            est.complete_action(a, 150.0)
        assert not est.should_act("prefetch")
        for _ in range(3):
            a = est.begin_action("prefetch", 100.0)
            est.complete_action(a, 10.0)
        assert est.should_act("prefetch")

    def test_kinds_independent(self):
        est = ConfidenceEstimator(alpha=0.5)
        a = est.begin_action("bad-kind", 1.0)
        est.complete_action(a, 2.0)
        assert est.confidence("other-kind") == pytest.approx(0.7)

    def test_min_improvement_margin(self):
        est = ConfidenceEstimator(alpha=0.5, min_improvement=0.2)
        a = est.begin_action("replicate", 100.0)
        # 5% better is not enough against a 20% margin.
        assert not est.complete_action(a, 95.0)

    def test_unknown_action_rejected(self):
        est = ConfidenceEstimator()
        with pytest.raises(KeyError):
            est.complete_action(999, 1.0)

    def test_abandon(self):
        est = ConfidenceEstimator()
        a = est.begin_action("x", 1.0)
        est.abandon_action(a)
        with pytest.raises(KeyError):
            est.complete_action(a, 1.0)

    def test_report(self):
        est = ConfidenceEstimator(alpha=0.5)
        a = est.begin_action("k", 10.0)
        est.complete_action(a, 5.0)
        report = est.report()
        assert report["k"]["actions"] == 1
        assert report["k"]["improvements"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            ConfidenceEstimator(act_threshold=1.0)
