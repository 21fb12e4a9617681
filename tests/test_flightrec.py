"""Flight recorder: ring semantics, determinism, and the failure path.

The contract under test: (1) the ring buffer evicts oldest-first at
capacity while the totals stay truthful; (2) two runs from the same
master seed produce byte-identical dumps -- the property the chaos
harness leans on for replayable failure forensics; (3) a chaos invariant
failure automatically captures the timeline into the report; and (4)
the per-phase accounting in ``Network.send`` matches actual call counts.
"""

from __future__ import annotations

import hashlib

import networkx as nx
import pytest

import golden
from repro.chaos import SCENARIOS, FaultSchedule, run_scenario
from repro.chaos.scenarios import settle
from repro.cli import main
from repro.consistency import measure_update_traffic
from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.sim import Kernel, Network, TopologyParams
from repro.telemetry import FlightRecorder, Telemetry, TelemetryConfig


class TestRingBuffer:
    def test_records_in_order_with_details_rendered(self):
        rec = FlightRecorder(capacity=8)
        rec.record("net", "send", src=1, dst=2, bytes=100)
        rec.record("pbft", "prepared", seq=0)
        events = rec.events()
        assert [e.kind for e in events] == ["send", "prepared"]
        assert events[0].detail == (("bytes", "100"), ("dst", "2"), ("src", "1"))
        assert events[0].seq == 0 and events[1].seq == 1

    def test_eviction_keeps_newest_and_counts_evicted(self):
        rec = FlightRecorder(capacity=3)
        for i in range(10):
            rec.record("cat", "kind", i=i)
        assert rec.total_recorded == 10
        assert rec.evicted == 7
        assert [dict(e.detail)["i"] for e in rec.events()] == ["7", "8", "9"]
        # Sequence numbers survive eviction: they index the full history.
        assert [e.seq for e in rec.events()] == [7, 8, 9]

    def test_render_header_states_truncation(self):
        rec = FlightRecorder(capacity=16)
        for i in range(6):
            rec.record("cat", "kind", i=i)
        dump = rec.render(limit=2)
        assert "2 of 6 matching events" in dump
        assert "4 earlier matching event(s) omitted" in dump

    def test_render_limit_zero_prints_the_header_only(self):
        rec = FlightRecorder(capacity=16)
        for i in range(6):
            rec.record("cat", "kind", i=i)
        assert rec.render(limit=0).splitlines() == [
            "flight recorder: 0 of 6 matching events (6 recorded, 0 evicted)",
            "... 6 earlier matching event(s) omitted",
        ]

    def test_render_rejects_a_negative_limit(self):
        rec = FlightRecorder(capacity=16)
        for i in range(6):
            rec.record("cat", "kind", i=i)
        with pytest.raises(ValueError, match="limit"):
            rec.render(limit=-2)

    def test_cli_limit_zero_and_negative(self, capsys):
        assert main(["flightrec", "--limit", "0"]) == 0
        (header, omitted) = capsys.readouterr().out.splitlines()
        assert header.startswith("flight recorder: 0 of ")
        assert omitted.endswith("earlier matching event(s) omitted")
        with pytest.raises(SystemExit) as exit_info:
            main(["flightrec", "--limit", "-2"])
        assert exit_info.value.code == 2
        assert "--limit: must be >= 0" in capsys.readouterr().err

    def test_category_filter(self):
        rec = FlightRecorder(capacity=16)
        rec.record("net", "send")
        rec.record("pbft", "prepared")
        rec.record("net", "deliver")
        assert [e.kind for e in rec.events(categories=["net"])] == [
            "send",
            "deliver",
        ]
        assert rec.categories() == {"net": 2, "pbft": 1}

    def test_bytes_render_as_hex_prefix_not_repr(self):
        rec = FlightRecorder(capacity=4)
        rec.record("pbft", "certified", digest=b"\xde\xad\xbe\xef" * 8)
        (event,) = rec.events()
        assert dict(event.detail)["digest"] == "deadbeefdead"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            TelemetryConfig(flight_capacity=0)

    def test_reset_clears_totals(self):
        rec = FlightRecorder(capacity=2)
        rec.record("a", "b")
        rec.reset()
        assert rec.total_recorded == 0 and rec.events() == []


class TestTelemetryIntegration:
    def test_export_includes_flight_on_request(self):
        tel = Telemetry(TelemetryConfig(enabled=True))
        tel.record("net", "send", src=0, dst=1)
        export = tel.export(flight=True)
        assert export["flight"]["total_recorded"] == 1
        assert export["flight"]["events"][0]["category"] == "net"
        assert "flight" not in tel.export()

    def test_clock_stamps_virtual_time(self):
        kernel = Kernel()
        tel = Telemetry(
            TelemetryConfig(enabled=True), clock=lambda: kernel.now
        )
        kernel.call_at(250.0, lambda: tel.record("cat", "tick"))
        kernel.run()
        (event,) = tel.flight.events()
        assert event.time_ms == 250.0


class TestDeterminism:
    @staticmethod
    def _run_update(seed: int) -> tuple[str, str]:
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=seed,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
                telemetry=TelemetryConfig(enabled=True),
            )
        )
        client = make_client(system, "author", seed=seed + 1)
        obj = client.create_object("determinism-object")
        client.write(obj, b"determinism payload")
        system.settle()
        recorder = system.telemetry.flight
        return recorder.render(), recorder.digest()

    def test_same_seed_runs_are_byte_identical(self):
        dump_a, digest_a = self._run_update(7)
        dump_b, digest_b = self._run_update(7)
        assert dump_a == dump_b
        assert digest_a == digest_b
        assert len(dump_a.splitlines()) > 10

    def test_different_seeds_differ(self):
        _, digest_a = self._run_update(7)
        _, digest_b = self._run_update(8)
        assert digest_a != digest_b

    def test_kernel_hook_labels_are_address_free(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=3,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
                telemetry=TelemetryConfig(enabled=True, flight_kernel=True),
            )
        )
        client = make_client(system, "author", seed=4)
        obj = client.create_object("kernel-hook-object")
        client.write(obj, b"kernel hook payload")
        system.settle()
        kernel_events = system.telemetry.flight.events(categories=["kernel"])
        assert kernel_events, "flight_kernel must record schedule/fire events"
        for event in kernel_events:
            assert "0x" not in dict(event.detail)["callback"]


class TestFlightDumpsArePinned:
    """sha256 of a rendered dump, pinned in ``tests/data/golden.json``
    (body digests, now retired, were never stamped into a default dump)."""

    def test_dump_without_body_digests(self):
        dump = golden.flight_dump()
        assert "body=" not in dump
        assert hashlib.sha256(dump.encode()).hexdigest() == (
            golden.load_golden()["flight_dumps"]["write_and_read_seed3"]
        )


class TestChaosFailureDump:
    def test_invariant_failure_dumps_flight_timeline(self):
        # A scenario that *claims* a violation that never happens fails
        # its expectation check deterministically and quickly.
        SCENARIOS["test-doomed"] = FaultSchedule(
            doc="Claims a violation that never happens.",
            steps=((settle, 1_000.0),),
            expect_violations=frozenset({"no-such-violation"}),
        )
        try:
            report_a = run_scenario("test-doomed", seed=5)
            report_b = run_scenario("test-doomed", seed=5)
        finally:
            del SCENARIOS["test-doomed"]
        assert not report_a.passed
        assert report_a.flight_dump, "failure must auto-capture the timeline"
        assert "flight recorder:" in report_a.flight_dump
        assert report_a.flight_dump == report_b.flight_dump
        assert "flight recorder:" in report_a.render()
        assert report_a.to_dict()["flight_dump"] == report_a.flight_dump

    def test_passing_run_captures_only_on_request(self):
        report = run_scenario("pbft-silent", seed=0)
        assert report.passed
        assert report.flight_dump == ""
        captured = run_scenario("pbft-silent", seed=0, capture_flight=True)
        assert captured.flight_dump


class TestPhaseAccounting:
    def test_untagged_sends_land_in_other(self):
        kernel = Kernel()
        graph = nx.complete_graph(3)
        nx.set_edge_attributes(graph, 10.0, "latency_ms")
        network = Network(kernel, graph)
        network.send(0, 1, "hello", 64)
        network.send(0, 2, "hello", 64, phase="push", subsystem="dissemination")
        report = network.phase_report()
        assert report["other"]["other"] == {"messages": 1, "bytes": 64}
        assert report["dissemination"]["push"] == {"messages": 1, "bytes": 64}
        assert network.phase_totals("dissemination") == (1, 64)

    def test_phase_totals_match_send_call_counts(self):
        """Every Network.send call lands in exactly one phase bucket."""
        t = measure_update_traffic(m=2, update_size=1_000, seed=0)
        phase_messages = sum(
            v["messages"]
            for phases in t.phase_report.values()
            for v in phases.values()
        )
        phase_bytes = sum(
            v["bytes"]
            for phases in t.phase_report.values()
            for v in phases.values()
        )
        assert phase_messages == t.total_messages
        assert phase_bytes == t.total_bytes
        # A bare ring exercises exactly the paper's PBFT phases: nothing
        # may fall through to the untagged bucket.
        assert "other" not in t.phase_report
        pbft = t.phase_report["pbft"]
        n = t.n
        assert pbft["request"]["messages"] == n
        assert pbft["pre_prepare"]["messages"] == n - 1
        assert pbft["prepare"]["messages"] == (n - 1) * (n - 1)
        assert pbft["commit"]["messages"] == n * (n - 1)
        # Signed commits certify the slot: no sign-share round.
        assert "sign_share" not in pbft

    def test_full_system_tags_every_subsystem_send(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=11,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
            )
        )
        client = make_client(system, "author", seed=12)
        obj = client.create_object("tagged-object")
        client.write(obj, b"tagged payload")
        system.settle()
        report = system.network.phase_report()
        assert "pbft" in report and "dissemination" in report
        total = sum(
            v["messages"]
            for phases in report.values()
            for v in phases.values()
        )
        assert total == system.network.stats_total_messages
