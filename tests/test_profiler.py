"""Kernel profiler: classification, accumulation, and the opt-in seam.

The contracts under test: (1) every label vocabulary the codebase
schedules with -- tagged network deliveries, explicit lowercase labels,
qualnames of protocol classes -- classifies into a named (subsystem,
phase) bucket; (2) on_fire accumulates counts, wall time, and heap-depth
gauges faithfully; (3) on a standard chaos scenario at least 95% of
measured callback wall time lands in named buckets (the observatory's
acceptance bar); (4) the profiler is strictly opt-in, and with telemetry
disabled the kernel's default path is untouched -- callback identity
preserved, behavioural digest byte-identical to the committed baseline.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import golden  # noqa: E402

from repro.chaos import run_scenario  # noqa: E402
from repro.core import (  # noqa: E402
    ChaosConfig,
    DeploymentConfig,
    OceanStoreSystem,
)
from repro.sim import Kernel, TopologyParams  # noqa: E402
from repro.telemetry import KernelProfiler, Telemetry, TelemetryConfig  # noqa: E402
from repro.telemetry.profiler import classify, render_snapshot  # noqa: E402


class TestClassify:
    def test_tagged_network_delivery_uses_message_phase(self):
        assert classify("net.deliver:pbft/prepare") == ("pbft", "prepare")
        assert classify("net.deliver:dissemination/push") == (
            "dissemination",
            "push",
        )
        # Untagged traffic keeps the phase ledger's other/other bucket.
        assert classify("net.deliver:other/other") == ("other", "other")

    def test_explicit_lowercase_labels_strip_replica_index(self):
        assert classify("pbft.delayed_send[3]") == ("pbft", "delayed_send")
        assert classify("pbft.batch_flush[0]") == ("pbft", "batch_flush")
        assert classify("recovery.heartbeat") == ("recovery", "heartbeat")
        assert classify("recovery.heartbeat-timeout") == (
            "recovery",
            "heartbeat-timeout",
        )
        assert classify("rings.handoff-drain") == ("rings", "handoff-drain")

    def test_qualnames_map_class_to_subsystem(self):
        assert classify("HandoffManager._watchdog") == ("rings", "watchdog")
        assert classify("FailureDetector._on_timeout") == (
            "recovery",
            "on_timeout",
        )
        assert classify("InnerRing.submit.<locals>.deliver") == (
            "pbft",
            "submit",
        )
        # Bare repeating timers are kernel plumbing, one bucket.
        assert classify("Timer._fire") == ("sim", "timer")

    def test_unknown_and_missing_labels_stay_unattributed(self):
        assert classify(None) == ("other", "unlabeled")
        assert classify("") == ("other", "unlabeled")
        assert classify("SomethingNovel.run") == ("other", "other")
        assert classify("justaword") == ("other", "other")


class TestAccumulation:
    def test_on_fire_accumulates_buckets_and_gauges(self):
        profiler = KernelProfiler()
        profiler.on_fire("pbft.delayed_send[0]", 0.002, 100.0, 5)
        profiler.on_fire("pbft.delayed_send[1]", 0.003, 150.0, 9)
        profiler.on_fire("recovery.heartbeat", 0.001, 300.0, 3)
        assert profiler.events_total == 3
        assert profiler.buckets[("pbft", "delayed_send")].calls == 2
        assert profiler.buckets[("pbft", "delayed_send")].wall_s == pytest.approx(
            0.005
        )
        assert profiler.max_pending == 9
        assert profiler.mean_pending == pytest.approx(17 / 3)
        assert profiler.sim_span_ms == pytest.approx(200.0)
        assert profiler.events_per_sim_ms == pytest.approx(3 / 200.0)
        assert profiler.attributed_wall_fraction() == pytest.approx(1.0)

    def test_unattributed_wall_time_lowers_the_fraction(self):
        profiler = KernelProfiler()
        profiler.on_fire("pbft.commit", 0.003, 0.0, 0)
        profiler.on_fire(None, 0.001, 10.0, 0)
        assert profiler.attributed_wall_fraction() == pytest.approx(0.75)

    def test_snapshot_separates_deterministic_from_wall(self):
        profiler = KernelProfiler()
        profiler.on_fire("recovery.heartbeat", 0.004, 50.0, 2)
        snap = profiler.snapshot()
        assert snap["deterministic"]["events_total"] == 1
        assert snap["deterministic"]["buckets"]["recovery/heartbeat"] == {
            "calls": 1
        }
        assert "wall_s" not in str(snap["deterministic"])
        assert snap["wall"]["buckets"]["recovery/heartbeat"]["wall_s"] > 0

    def test_kernel_measures_only_when_profiler_installed(self):
        kernel = Kernel()
        fired = []
        kernel.call_at(5.0, lambda: fired.append(1))
        kernel.run()
        assert fired == [1]
        profiler = KernelProfiler()
        kernel.profiler = profiler
        kernel.call_at(10.0, lambda: fired.append(2), label="pbft.commit")
        kernel.run()
        assert fired == [1, 2]
        assert profiler.events_total == 1
        assert profiler.buckets[("pbft", "commit")].calls == 1

    def test_publish_exports_gauges(self):
        telemetry = Telemetry.from_config(TelemetryConfig(enabled=True))
        profiler = KernelProfiler()
        profiler.on_fire("pbft.commit", 0.001, 10.0, 4)
        profiler.publish(telemetry)
        gauges = telemetry.export()["gauges"]
        assert gauges["kernel_pending_max"] == 4.0
        assert gauges["kernel_events_total"] == 1.0

    def test_render_snapshot_reports_hot_buckets(self):
        profiler = KernelProfiler()
        profiler.on_fire("pbft.commit", 0.005, 10.0, 1)
        profiler.on_fire("recovery.heartbeat", 0.001, 20.0, 1)
        text = render_snapshot(profiler.snapshot(), top=1)
        assert "kernel profile: 2 events" in text
        assert "pbft/commit" in text
        assert "1 more bucket(s)" in text
        assert profiler.render() == render_snapshot(profiler.snapshot())


class TestChaosAttribution:
    def test_standard_scenario_attributes_95_percent(self):
        """The acceptance bar: >= 95% of kernel callback wall time on a
        standard chaos scenario lands in named (subsystem, phase)
        buckets."""
        report = run_scenario(
            "mid-handoff-crash", seed=0, chaos=ChaosConfig(profile=True)
        )
        assert report.passed
        assert report.profile is not None
        assert report.profile["wall"]["attributed_fraction"] >= 0.95
        assert report.profile["deterministic"]["events_total"] > 1000

    def test_deterministic_section_replays_identically(self):
        snaps = [
            run_scenario(
                "pbft-silent", seed=3, chaos=ChaosConfig(profile=True)
            ).profile["deterministic"]
            for _ in range(2)
        ]
        assert snaps[0] == snaps[1]

    def test_profile_is_opt_in(self):
        report = run_scenario("pbft-silent", seed=0)
        assert report.profile is None


class TestZeroOverhead:
    def test_disabled_telemetry_installs_no_hooks(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=5,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=1, nodes_per_stub=2
                ),
                telemetry=TelemetryConfig(enabled=False),
            )
        )
        assert system.kernel.trace_wrapper is None
        assert system.kernel.event_hook is None
        assert system.kernel.profiler is None
        assert system.telemetry.profiler is None
        assert system.telemetry.slo is None

    def test_callback_identity_preserved_without_hooks(self):
        kernel = Kernel()

        def callback() -> None:
            pass

        kernel.call_at(1.0, callback)
        event = kernel._queue.peek()
        assert event.callback is callback
        assert event.label is None

    def test_enabled_telemetry_with_profile_installs_profiler(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=5,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=1, nodes_per_stub=2
                ),
                telemetry=TelemetryConfig(enabled=True, profile=True),
            )
        )
        assert system.kernel.profiler is system.telemetry.profiler
        assert system.telemetry.profiler is not None

    def test_telemetry_off_digest_matches_committed_baseline(self):
        """The guard: a same-seed telemetry-off run must reproduce the
        behavioural digest captured before the observatory existed --
        proof the opt-in features cost the default path nothing."""
        committed = golden.load_golden()["core_telemetry_off"]
        current = golden.core_observables(telemetry=False)
        assert current["digest"] == committed["digest"]
        assert current == committed
