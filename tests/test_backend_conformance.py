"""Backend conformance: the client API behaves identically against the
in-process LocalBackend and the full simulated deployment.

The same behavioural suite runs against both, so the distributed
machinery (Byzantine commit, dissemination, location) is observationally
equivalent to a single trusted replica for the API's contract.
"""

import random

import pytest

from reference_backend import LocalBackend
from repro.api import (
    ApiEvent,
    OceanStoreHandle,
    SessionGuarantee,
    UnknownObject,
)
from repro.api.facades import FileSystemFacade, TransactionalFacade, WebGateway
from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.crypto import KeyRing, make_principal
from repro.sim import TopologyParams
from repro.util import GUID


def local_handle():
    principal = make_principal("conform-local", random.Random(80), bits=256)
    keyring = KeyRing(principal, random.Random(81))
    return OceanStoreHandle(LocalBackend(), principal, keyring)


def system_handle():
    system = OceanStoreSystem(
        DeploymentConfig(
            seed=80,
            topology=TopologyParams(
                transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
            ),
            secondaries_per_object=2,
            archival_k=4,
            archival_n=8,
        )
    )
    return make_client(system, "conform-sys", seed=82)


@pytest.fixture(params=["local", "system"])
def store(request):
    return local_handle() if request.param == "local" else system_handle()


class TestConformance:
    def test_write_then_read(self, store):
        obj = store.create_object("doc")
        result = store.write(obj, b"same everywhere")
        assert result.committed and result.new_version == 1
        assert store.read(obj) == b"same everywhere"

    def test_append_accumulates(self, store):
        obj = store.create_object("log")
        for i in range(3):
            assert store.append(obj, f"{i};".encode()).committed
        assert store.read(obj) == b"0;1;2;"

    def test_version_guard_conflict(self, store):
        obj = store.create_object("guarded")
        store.write(obj, b"base")
        stale = store.update_builder(obj).guard_version().append(b"stale")
        store.append(obj, b"-bump")
        assert not store.submit(obj, stale).committed

    def test_callbacks(self, store):
        obj = store.create_object("watched")
        events = []
        store.on_event(ApiEvent.NEW_VERSION, events.append, obj.guid)
        store.write(obj, b"x")
        assert len(events) == 1 and events[0].version == 1

    def test_unknown_object(self, store):
        store.keyring.create_object_key(GUID.hash_of(b"ghost"))
        with pytest.raises(UnknownObject):
            store.read(store.open_object(GUID.hash_of(b"ghost")))

    def test_acid_session(self, store):
        obj = store.create_object("acid")
        session = store.open_session(SessionGuarantee.ACID)
        store.write(obj, b"v1", session)
        assert store.read(obj, session) == b"v1"
        store.write(obj, b"v2", session)
        assert store.read(obj, session) == b"v2"

    def test_transactions(self, store):
        obj = store.create_object("txn")
        store.write(obj, b"10")
        facade = TransactionalFacade(store)

        def body(txn):
            value = int(txn.read())
            txn.replace(0, str(value * 2).encode())

        assert facade.run(obj, body)
        assert store.read(obj) == b"20"

    def test_filesystem(self, store):
        fs = FileSystemFacade(store)
        fs.mkdir("dir")
        fs.write_file("dir/file", b"nested")
        assert fs.read_file("dir/file") == b"nested"
        assert fs.listdir("/") == ["dir"]

    def test_web_gateway_latest(self, store):
        obj = store.create_object("page")
        store.write(obj, b"<html/>")
        gateway = WebGateway(store)
        assert gateway.get(f"oceanstore://{obj.guid.hex()}").body == b"<html/>"

    def test_idempotent_create(self, store):
        a = store.create_object("idem")
        store.write(a, b"content")
        b = store.create_object("idem")  # same name, same GUID
        assert a.guid == b.guid
        assert store.read(b) == b"content"

    def test_revocation(self, store):
        obj = store.create_object("revocable")
        store.write(obj, b"gen0")
        new_handle = store.revoke_readers(obj)
        assert store.read(new_handle) == b"gen0"
        assert store.keyring.key_for(obj.guid).generation == 1
