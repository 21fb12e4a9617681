"""Tests for sessions, callbacks, the client API, and facades."""

import random

import pytest

from reference_backend import LocalBackend
from repro.api import (
    ApiEvent,
    CallbackRegistry,
    GuaranteeViolation,
    Notification,
    OceanStoreHandle,
    Session,
    SessionGuarantee,
    UnknownObject,
)
from repro.api.facades import (
    FileNotFound,
    FileSystemError,
    FileSystemFacade,
    TransactionError,
    TransactionState,
    TransactionalFacade,
)
from repro.api.facades.fs import NotADirectoryError_
from repro.crypto import KeyRing, make_principal
from repro.data import DataObjectState
from repro.util import GUID


@pytest.fixture()
def handle_env():
    principal = make_principal("alice", random.Random(50), bits=256)
    keyring = KeyRing(principal, random.Random(51))
    backend = LocalBackend()
    return OceanStoreHandle(backend, principal, keyring), backend


class TestSessionGuarantees:
    def g(self):
        return GUID.hash_of(b"obj")

    def state(self, version):
        s = DataObjectState()
        s.version = version
        return s

    def test_no_guarantees_accepts_anything(self):
        session = Session()
        session.check_read(self.g(), self.state(5))
        session.check_read(self.g(), self.state(1))  # regression is fine

    def test_monotonic_reads(self):
        session = Session(SessionGuarantee.MONOTONIC_READS)
        session.check_read(self.g(), self.state(5))
        with pytest.raises(GuaranteeViolation):
            session.check_read(self.g(), self.state(3))
        session.check_read(self.g(), self.state(5))

    def test_read_your_writes(self):
        session = Session(SessionGuarantee.READ_YOUR_WRITES)
        session.record_write(self.g(), 7)
        with pytest.raises(GuaranteeViolation):
            session.check_read(self.g(), self.state(6))
        session.check_read(self.g(), self.state(7))

    def test_writes_follow_reads(self):
        session = Session(SessionGuarantee.WRITES_FOLLOW_READS)
        session.check_read(self.g(), self.state(4))
        assert session.write_depends_on_version(self.g()) == 4

    def test_monotonic_writes(self):
        session = Session(SessionGuarantee.MONOTONIC_WRITES)
        session.record_write(self.g(), 3)
        assert session.write_depends_on_version(self.g()) == 3

    def test_acid_requires_committed(self):
        assert Session(SessionGuarantee.ACID).requires_committed_data
        assert not Session(SessionGuarantee.MONOTONIC_READS).requires_committed_data

    def test_floors_per_object(self):
        session = Session(SessionGuarantee.MONOTONIC_READS)
        session.check_read(self.g(), self.state(5))
        other = GUID.hash_of(b"other")
        session.check_read(other, self.state(1))  # independent floor


class TestCallbacks:
    def test_global_and_per_object(self):
        registry = CallbackRegistry()
        guid = GUID.hash_of(b"obj")
        seen = []
        registry.register(ApiEvent.UPDATE_COMMITTED, lambda n: seen.append("global"))
        registry.register(
            ApiEvent.UPDATE_COMMITTED, lambda n: seen.append("object"), guid
        )
        registry.notify(Notification(ApiEvent.UPDATE_COMMITTED, guid))
        assert seen == ["global", "object"]
        registry.notify(
            Notification(ApiEvent.UPDATE_COMMITTED, GUID.hash_of(b"other"))
        )
        assert seen == ["global", "object", "global"]

    def test_unregister(self):
        registry = CallbackRegistry()
        guid = GUID.hash_of(b"obj")
        seen = []
        handler = seen.append
        registry.register(ApiEvent.NEW_VERSION, handler)
        registry.unregister(ApiEvent.NEW_VERSION, handler)
        registry.notify(Notification(ApiEvent.NEW_VERSION, guid))
        assert seen == []


class TestOceanStoreHandle:
    def test_create_write_read(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("notes")
        result = store.write(obj, b"hello ocean")
        assert result.committed
        assert store.read(obj) == b"hello ocean"

    def test_append(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("log")
        store.append(obj, b"line1\n")
        store.append(obj, b"line2\n")
        assert store.read(obj) == b"line1\nline2\n"

    def test_overwrite_replaces_content(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("doc")
        store.write(obj, b"first")
        store.write(obj, b"second")
        assert store.read(obj) == b"second"

    def test_open_named(self, handle_env):
        store, _ = handle_env
        store.create_object("named")
        obj = store.open_named("named")
        assert store.read(obj) == b""

    def test_unknown_object_read_fails(self, handle_env):
        store, _ = handle_env
        store.keyring.create_object_key(GUID.hash_of(b"ghost"))
        ghost = store.open_object(GUID.hash_of(b"ghost"))
        with pytest.raises(UnknownObject):
            store.read(ghost)

    def test_grant_read_shares_key(self, handle_env):
        store, backend = handle_env
        obj = store.create_object("shared")
        store.write(obj, b"secret content")
        bob = make_principal("bob", random.Random(52), bits=256)
        bob_ring = KeyRing(bob, random.Random(53))
        store.grant_read(obj.guid, bob_ring)
        bob_handle = OceanStoreHandle(backend, bob, bob_ring)
        bob_obj = bob_handle.open_object(obj.guid)
        assert bob_handle.read(bob_obj) == b"secret content"

    def test_session_read_your_writes(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("sessioned")
        session = store.open_session(SessionGuarantee.ACID)
        store.write(obj, b"v1", session)
        assert store.read(obj, session) == b"v1"

    def test_callbacks_fire_on_commit(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("watched")
        events = []
        store.on_event(ApiEvent.NEW_VERSION, events.append, obj.guid)
        store.write(obj, b"content")
        assert len(events) == 1
        assert events[0].version == 1

    def test_conflicting_guarded_writes(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("contested")
        store.write(obj, b"base")
        stale_builder = store.update_builder(obj).guard_version().append(b" mine")
        # A concurrent writer commits first.
        store.append(obj, b" theirs")
        result = store.submit(obj, stale_builder)
        assert not result.committed

    @pytest.mark.parametrize("op", ["append", "write"])
    def test_write_below_the_session_floor_fails(self, handle_env, op):
        store, _ = handle_env
        obj = store.create_object("floored")
        store.write(obj, b"v1")
        session = store.open_session(SessionGuarantee.WRITES_FOLLOW_READS)
        floor = DataObjectState()
        floor.version = 99
        session.check_read(obj.guid, floor)  # this session has seen version 99
        with pytest.raises(GuaranteeViolation):
            getattr(store, op)(obj, b"v2", session)
        assert store.update_builder(obj).expected.version == 1
        assert store.read(obj) == b"v1"


class TestFileSystemFacade:
    def test_write_read_file(self, handle_env):
        store, _ = handle_env
        fs = FileSystemFacade(store)
        fs.write_file("readme.txt", b"docs")
        assert fs.read_file("readme.txt") == b"docs"

    def test_nested_directories(self, handle_env):
        store, _ = handle_env
        fs = FileSystemFacade(store)
        fs.mkdir("home")
        fs.mkdir("home/alice")
        fs.write_file("home/alice/notes.txt", b"deep")
        assert fs.read_file("home/alice/notes.txt") == b"deep"
        assert fs.listdir("home") == ["alice"]
        assert fs.listdir("home/alice") == ["notes.txt"]

    def test_append_file(self, handle_env):
        store, _ = handle_env
        fs = FileSystemFacade(store)
        fs.write_file("log", b"a")
        fs.append_file("log", b"b")
        assert fs.read_file("log") == b"ab"

    def test_missing_file(self, handle_env):
        store, _ = handle_env
        fs = FileSystemFacade(store)
        with pytest.raises(FileNotFound):
            fs.read_file("nope")

    def test_mkdir_conflict(self, handle_env):
        store, _ = handle_env
        fs = FileSystemFacade(store)
        fs.mkdir("dir")
        with pytest.raises(FileSystemError):
            fs.mkdir("dir")

    def test_overwrite_file(self, handle_env):
        store, _ = handle_env
        fs = FileSystemFacade(store)
        fs.write_file("f", b"one")
        fs.write_file("f", b"two")
        assert fs.read_file("f") == b"two"

    def test_remove(self, handle_env):
        store, _ = handle_env
        fs = FileSystemFacade(store)
        fs.write_file("gone", b"x")
        fs.remove("gone")
        assert not fs.exists("gone")
        with pytest.raises(FileNotFound):
            fs.remove("gone")

    def test_exists(self, handle_env):
        store, _ = handle_env
        fs = FileSystemFacade(store)
        assert not fs.exists("thing")
        fs.write_file("thing", b"x")
        assert fs.exists("thing")

    def test_read_directory_as_file_fails(self, handle_env):
        store, _ = handle_env
        fs = FileSystemFacade(store)
        fs.mkdir("d")
        with pytest.raises(FileSystemError):
            fs.read_file("d")

    def test_paths_through_a_file_or_a_missing_directory(self, handle_env):
        """The last directory component must be a directory too: a file
        there is ``NotADirectoryError_``, a missing name ``FileNotFound``."""
        store, _ = handle_env
        fs = FileSystemFacade(store)
        fs.mkdir("home")
        fs.write_file("home/notes", b"x")
        with pytest.raises(NotADirectoryError_, match="home/notes"):
            fs.write_file("home/notes/inner", b"y")
        with pytest.raises(NotADirectoryError_):
            fs.listdir("home/notes")
        with pytest.raises(FileNotFound, match="home/missing"):
            fs.read_file("home/missing/file")
        assert not fs.exists("home/notes/inner")
        assert fs.listdir("/") == ["home"]

    def test_guid_of(self, handle_env):
        store, _ = handle_env
        fs = FileSystemFacade(store)
        fs.write_file("addressed", b"x")
        guid = fs.guid_of("addressed")
        assert store.read(store.open_object(guid)) == b"x"


class TestTransactionalFacade:
    def test_commit_applies_writes(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("account")
        store.write(obj, b"100")
        txn = TransactionalFacade(store).begin(obj)
        balance = txn.read()
        txn.replace(0, str(int(balance) - 30).encode())
        assert txn.commit()
        assert store.read(obj) == b"70"

    def test_conflict_aborts(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("contested")
        store.write(obj, b"base")
        facade = TransactionalFacade(store)
        txn = facade.begin(obj)
        txn.read()
        txn.append(b" txn-write")
        store.append(obj, b" interloper")  # concurrent commit
        assert not txn.commit()
        assert txn.state is TransactionState.ABORTED
        assert b"txn-write" not in store.read(obj)

    def test_block_level_read_set(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("blocks")
        builder = store.update_builder(obj).append(b"a").append(b"b")
        store.submit(obj, builder)
        facade = TransactionalFacade(store)
        txn = facade.begin(obj)
        assert txn.read_block(0) == b"a"
        txn.replace(1, b"B")
        # Concurrent change to block 1 (not in the read set) is invisible
        # to the guard... but it bumps nothing we guarded on: commit wins.
        assert txn.commit()
        assert store.read(obj) == b"aB"

    def test_block_read_set_conflict(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("blocks2")
        builder = store.update_builder(obj).append(b"a").append(b"b")
        store.submit(obj, builder)
        facade = TransactionalFacade(store)
        txn = facade.begin(obj)
        txn.read_block(0)
        txn.append(b"c")
        # Interloper rewrites block 0: the guard must fail.
        interloper = store.update_builder(obj).replace(0, b"A")
        store.submit(obj, interloper)
        assert not txn.commit()

    def test_operations_after_commit_rejected(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("done")
        txn = TransactionalFacade(store).begin(obj)
        txn.append(b"x")
        txn.commit()
        with pytest.raises(TransactionError):
            txn.append(b"y")
        with pytest.raises(TransactionError):
            txn.commit()

    def test_explicit_abort(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("aborted")
        txn = TransactionalFacade(store).begin(obj)
        txn.append(b"x")
        txn.abort()
        assert txn.state is TransactionState.ABORTED
        assert store.read(obj) == b""

    def test_run_with_retry(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("retry")
        store.write(obj, b"0")
        facade = TransactionalFacade(store)
        sneak = {"done": False}

        def body(txn):
            value = int(txn.read())
            if not sneak["done"]:
                # First attempt: an interloper bumps the object.
                sneak["done"] = True
                store.append(obj, b"")  # commits a no-op version bump
            txn.replace(0, str(value + 1).encode())

        assert facade.run(obj, body)
        assert store.read(obj) == b"1"

    def test_run_validation(self, handle_env):
        store, _ = handle_env
        obj = store.create_object("v")
        with pytest.raises(TransactionError):
            TransactionalFacade(store).run(obj, lambda t: None, max_retries=0)
