"""Body hashing on demand: a digest is computed only when a consumer asks.

The network used to sha256 every message body at send time so the
flight recorder could attach digests.  PR 9 made the digest demand-
driven (computed when an observer asks, memoized on the message) and
kept the eager mode as a reference; with the reference retired, the
contract is pinned directly:

* a run nobody observes computes zero digests, and a run with
  ``record_body_digests`` computes one per message, not one per record;
* the digests themselves, and the flight-recorder dumps with and
  without ``body=`` stamps, equal the values both modes produced.
"""

import hashlib
import dataclasses

import networkx as nx
import pytest

from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.sim import network as network_module
from repro.sim.kernel import Kernel
from repro.sim.network import Message, Network
from repro.sim import TopologyParams
from repro.telemetry import TelemetryConfig


@dataclasses.dataclass(frozen=True)
class _Payload:
    kind: str
    body: bytes


def _small_graph() -> nx.Graph:
    graph = nx.Graph()
    for i in range(3):
        graph.add_node(i)
    graph.add_edge(0, 1, latency_ms=5.0)
    graph.add_edge(1, 2, latency_ms=5.0)
    return graph


def _drive(record_digests: bool):
    kernel = Kernel()
    network = Network(kernel, _small_graph())
    seen: list[str] = []
    network.register(2, lambda m: seen.append(m.body_digest() if record_digests else ""))
    network.register(1, lambda m: None)
    for i in range(10):
        network.send(0, 2, _Payload("put", f"block-{i}".encode()), 128, "push", "dissemination")
        network.send(0, 1, _Payload("ping", b""), 64, "heartbeat", "recovery")
    kernel.run()
    return seen


#: what ``_drive(record_digests=True)`` saw under either retired mode
_PINNED_MESSAGE_DIGESTS = (
    "b9ba33afe5b629ad177aa59e60d24024b116c3f1e19a010a6962fe10d9a5cf5a",
    "c291d1d26f884fc786e96ed47f8eeb33712ab9271142e9ce965652eabb8e5325",
    "a2f4a810c971b5643022ac03fd1222c6e5e7c7aa45464972c184438c27d57c67",
)


@pytest.fixture
def sha256_calls(monkeypatch):
    """Every sha256 the network module evaluates while the test runs.

    Swaps the module's ``hashlib`` binding for a counting stand-in, so
    production carries no counter and nothing outlives the test."""
    calls: list[bytes] = []

    class _CountingHashlib:
        @staticmethod
        def sha256(data: bytes):
            calls.append(data)
            return hashlib.sha256(data)

    monkeypatch.setattr(network_module, "hashlib", _CountingHashlib)
    return calls


class TestDigestOnDemand:
    def test_digests_match_pinned_values(self):
        seen = _drive(record_digests=True)
        assert len(seen) == 10
        assert tuple(seen[:3]) == _PINNED_MESSAGE_DIGESTS

    def test_message_digest_is_memoized(self, sha256_calls):
        message = Message(0, 1, _Payload("put", b"abc"), 64)
        first = message.body_digest()
        again = message.body_digest()
        assert first == again
        assert len(sha256_calls) == 1

    def test_nothing_is_hashed_unless_a_consumer_asks(self, sha256_calls):
        _drive(record_digests=False)
        assert len(sha256_calls) == 0

        _drive(record_digests=True)
        assert len(sha256_calls) == 10  # only the observed node's

    def test_send_and_deliver_records_share_one_digest(self, sha256_calls):
        class _Recorder:
            enabled = True

            def count(self, *args, **labels):
                pass

            observe = count

            def __init__(self):
                self.bodies = []

            def record(self, _layer, kind, **fields):
                if "body" in fields:
                    self.bodies.append((kind, fields["body"]))

        recorder = _Recorder()
        kernel = Kernel()
        network = Network(kernel, _small_graph(), telemetry=recorder)
        network.record_body_digests = True
        network.register(2, lambda m: None)
        network.send(0, 2, _Payload("put", b"block-0"), 128)
        kernel.run()
        assert recorder.bodies == [
            ("send", _PINNED_MESSAGE_DIGESTS[0]),
            ("deliver", _PINNED_MESSAGE_DIGESTS[0]),
        ]
        assert len(sha256_calls) == 1

    def test_the_mode_knob_is_gone(self):
        assert "hash_bodies" not in {f.name for f in dataclasses.fields(DeploymentConfig)}
        try:
            Network(Kernel(), _small_graph(), hash_bodies="eager")
        except TypeError:
            pass
        else:
            raise AssertionError("Network still accepts hash_bodies")


def _flight_dump(net_body_digests: bool) -> str:
    system = OceanStoreSystem(
        DeploymentConfig(
            seed=3,
            topology=TopologyParams(
                transit_nodes=4, stubs_per_transit=1, nodes_per_stub=2
            ),
            archive_every_commit=False,
            telemetry=TelemetryConfig(
                enabled=True, net_body_digests=net_body_digests
            ),
        )
    )
    client = make_client(system, "lazy-hash-test", seed=4)
    obj = client.create_object("hash-parity-object")
    client.write(obj, b"parity-payload" * 8)
    client.read(obj)
    system.settle(5_000.0)
    assert system.telemetry.flight is not None
    return system.telemetry.flight.render()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestFlightDumpsArePinned:
    """sha256 of the rendered dumps, as both retired modes produced them."""

    def test_dump_without_body_digests(self):
        dump = _flight_dump(False)
        assert "body=" not in dump
        assert _sha256(dump) == (
            "01297d7e8c88f8d3bb2656134f65c00f88a1fbe93fb83b4d6bdfda66b18a6eb0"
        )

    def test_dump_with_body_digests(self):
        dump = _flight_dump(True)
        assert "body=" in dump
        assert _sha256(dump) == (
            "dd7cc57e8db37e27d5be93f5c5714f40f791cfe225d8914d072e12a74f1c5176"
        )
