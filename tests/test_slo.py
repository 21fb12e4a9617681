"""Operation SLO recorder: span lifecycle, percentiles, and the oracle.

The contracts under test: (1) synchronous observations and async
begin/end spans land in per-op, per-label histograms measured in
simulated milliseconds; (2) a retry of an open token keeps the original
start time and an end without a begin is ignored -- the recorded
latency is what the end user actually waited; (3) thresholds judge the
aggregate distribution and missing operations are never violations;
(4) end-to-end, a deployment records create/update/read edges that
survive cross-shard resolution, and the chaos runner judges configured
thresholds as an ``operation-slo`` invariant while leaving unconfigured
runs' trace digests untouched.
"""

from __future__ import annotations

import pytest

from repro.chaos import run_scenario
from repro.core import (
    ChaosConfig,
    DeploymentConfig,
    OceanStoreSystem,
    make_client,
)
from repro.sim import TopologyParams
from repro.sim.stats import Distribution
from repro.telemetry import SLORecorder, TelemetryConfig


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestRecorder:
    def test_observe_buckets_by_op_and_labels(self):
        rec = SLORecorder()
        rec.observe("read", 10.0, ring=0)
        rec.observe("read", 30.0, ring=0)
        rec.observe("read", 50.0, ring=1)
        assert rec.histogram("read", ring=0).count == 2
        assert rec.histogram("read", ring=1).count == 1
        assert rec.aggregate("read").count == 3
        assert rec.ops() == ["read"]

    def test_begin_end_records_elapsed_sim_time(self):
        clock = FakeClock()
        rec = SLORecorder(clock=clock)
        rec.begin("update", "u1", ring=2)
        clock.now = 250.0
        assert rec.end("u1", committed="yes") == pytest.approx(250.0)
        assert rec.inflight == 0
        dist = rec.histogram("update", committed="yes", ring=2)
        assert dist is not None and dist.count == 1

    def test_retry_keeps_original_start(self):
        clock = FakeClock()
        rec = SLORecorder(clock=clock)
        rec.begin("update", "u1")
        clock.now = 100.0
        rec.begin("update", "u1")  # client retry of the same update
        clock.now = 300.0
        assert rec.end("u1") == pytest.approx(300.0)

    def test_unknown_end_is_ignored(self):
        rec = SLORecorder()
        assert rec.end("never-begun") is None
        assert rec.ops() == []

    def test_inflight_counts_lost_operations(self):
        rec = SLORecorder()
        rec.begin("update", "lost")
        assert rec.inflight == 1
        rec.end("lost")
        assert rec.inflight == 0

    def test_summary_uses_requested_quantiles(self):
        rec = SLORecorder()
        for v in range(1, 101):
            rec.observe("read", float(v))
        row = rec.summary(quantiles=(50.0, 99.9))["read"]
        assert set(row) == {"count", "mean", "min", "p50", "p99.9", "max"}
        assert row["p50"] == pytest.approx(50.0, abs=1.0)

    def test_quantile_name_rendering(self):
        assert Distribution.quantile_key(95.0) == "p95"
        assert Distribution.quantile_key(99.9) == "p99.9"

    def test_check_judges_aggregate_and_skips_missing_ops(self):
        rec = SLORecorder(
            thresholds={"read": {"p95": 20.0}, "update": {"p99": 1.0}}
        )
        rec.observe("read", 10.0, ring=0)
        rec.observe("read", 100.0, ring=1)  # aggregate p95 blows the limit
        violations = rec.check()
        # No update samples: absence is a liveness question, not an SLO
        # violation.
        assert [v.op for v in violations] == ["read"]
        assert violations[0].quantile == "p95"
        assert violations[0].actual_ms > 20.0
        assert "exceeds" in violations[0].describe()

    def test_render_includes_rows_and_verdicts(self):
        rec = SLORecorder(thresholds={"read": {"p95": 1000.0}})
        rec.observe("read", 10.0)
        text = rec.render()
        assert "read" in text
        assert "all met" in text
        assert SLORecorder().render() == "no operations recorded"


class TestThresholdConfig:
    def test_malformed_thresholds_rejected(self):
        with pytest.raises(ValueError):
            TelemetryConfig(enabled=True, slo_thresholds={"read": {"q95": 1.0}})
        with pytest.raises(ValueError):
            TelemetryConfig(enabled=True, slo_thresholds={"read": {"p95": -1.0}})

    @pytest.mark.parametrize("config", (TelemetryConfig, ChaosConfig))
    @pytest.mark.parametrize(
        "key", ("p150", "pxx", "p", "pp95"), ids=("range", "float", "empty", "double-p")
    )
    def test_bad_quantile_key_fails_at_config_time_naming_op_and_key(
        self, config, key
    ):
        # A bad key must fail when it is configured: accepted, the run
        # records everything and then the judge dies on a bare
        # "percentile out of range" that names neither op nor key.
        with pytest.raises(ValueError) as info:
            config(slo_thresholds={"update": {key: 1.0}})
        message = str(info.value)
        assert "'update'" in message
        assert repr(key) in message

    def test_chaos_config_rejects_negative_limits(self):
        with pytest.raises(ValueError, match=r"\['read'\]\['p95'\]"):
            ChaosConfig(slo_thresholds={"read": {"p95": -1.0}})

    def test_slo_recorder_present_only_when_enabled(self):
        from repro.telemetry import Telemetry

        on = Telemetry.from_config(TelemetryConfig(enabled=True))
        assert on.slo is not None
        off = Telemetry.from_config(TelemetryConfig(enabled=False))
        assert off.slo is None


class TestEndToEnd:
    def _system(self, **telemetry_kwargs) -> OceanStoreSystem:
        return OceanStoreSystem(
            DeploymentConfig(
                seed=11,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
                telemetry=TelemetryConfig(enabled=True, **telemetry_kwargs),
            )
        )

    def test_operations_record_edge_latency(self):
        system = self._system()
        client = make_client(system, "slo-author", seed=12)
        obj = client.create_object("slo-object")
        for i in range(2):
            client.write(obj, f"slo-{i}".encode())
        client.read(obj)
        system.settle()
        slo = system.telemetry.slo
        assert slo is not None
        ops = slo.ops()
        assert "create" in ops and "read" in ops and "update" in ops
        update = slo.aggregate("update")
        assert update.count == 2
        # An update waits through PBFT agreement plus dissemination --
        # real simulated time, not zero.
        assert update.min > 0.0
        assert slo.inflight == 0

    def test_same_seed_histograms_identical(self):
        def run() -> dict:
            system = self._system()
            client = make_client(system, "slo-author", seed=12)
            obj = client.create_object("slo-object")
            client.write(obj, b"payload")
            system.settle()
            return system.telemetry.slo.summary()

        assert run() == run()

    def test_chaos_oracle_judges_configured_thresholds(self):
        # An absurd limit turns the passing scenario into a failure via
        # the operation-slo invariant.
        report = run_scenario(
            "pbft-silent",
            seed=0,
            chaos=ChaosConfig(
                slo_thresholds={"update": {"p95": 0.001}}
            ),
        )
        assert not report.passed
        assert "operation-slo" in report.invariants.checked
        assert "operation-slo" in report.invariants.violated_names()
        # A generous limit leaves the scenario green, oracle still on.
        report = run_scenario(
            "pbft-silent",
            seed=0,
            chaos=ChaosConfig(
                slo_thresholds={"update": {"p95": 3_600_000.0}}
            ),
        )
        assert report.passed
        assert "operation-slo" in report.invariants.checked

    def test_unconfigured_runs_leave_invariants_untouched(self):
        plain = run_scenario("pbft-silent", seed=0)
        assert "operation-slo" not in plain.invariants.checked
        assert plain.slo is not None  # recorded, just never judged
