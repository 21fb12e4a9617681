"""Tests for the telemetry subsystem: metrics registry, causal tracing,
kernel propagation, runaway guards, and the instrumented deployment."""

import pytest

import golden
from repro.sim.kernel import Kernel, SimulationError
from repro.sim.network import TopologyParams
from repro.sim.stats import Distribution, EmptyDistributionError
from repro.telemetry import (
    DISABLED,
    NULL_SPAN,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    TelemetryConfig,
    Tracer,
    coalesce,
    flatten_name,
    label_key,
)
from repro.telemetry.metrics import OVERFLOW_KEY


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("msgs", phase="prepare")
        reg.inc("msgs", 2, phase="prepare")
        reg.inc("msgs", phase="commit")
        assert reg.counter_value("msgs", phase="prepare") == 3
        assert reg.counter_value("msgs", phase="commit") == 1
        assert reg.counter_total("msgs") == 4

    def test_observe_lands_in_the_slo_recorder(self):
        """One distribution store: an operation's latency goes to the SLO
        recorder, and the registry keeps counters only."""
        telemetry = Telemetry()
        for v in (1.0, 2.0, 3.0):
            telemetry.observe("read", v, ring=0)
        dist = telemetry.slo.histogram("read", ring=0)
        assert isinstance(dist, Distribution)
        assert dist.count == 3
        assert dist.mean == 2.0
        assert telemetry.export()["slo"]["read{ring=0}"]["count"] == 3.0
        assert not hasattr(MetricsRegistry(), "observe")
        assert not hasattr(MetricsRegistry(), "histogram")

    def test_label_cardinality_folds_into_overflow(self):
        reg = MetricsRegistry(max_label_sets=2)
        reg.inc("hits", node=1)
        reg.inc("hits", node=2)
        reg.inc("hits", node=3)  # third distinct set: folded
        reg.inc("hits", node=4)
        reg.inc("hits", node=1)  # existing set: still direct
        assert reg.counter_value("hits", node=1) == 2
        assert reg.counter_value("hits", overflow="true") == 2
        assert reg.dropped_label_sets["hits"] == 2
        assert OVERFLOW_KEY in reg.label_sets("hits")
        # totals survive the fold
        assert reg.counter_total("hits") == 5

    def test_label_key_is_order_independent(self):
        assert label_key({"a": 1, "b": 2}) == label_key({"b": 2, "a": 1})
        assert flatten_name("m", label_key({"b": 2, "a": 1})) == "m{a=1,b=2}"

    def test_export_shape_round_trips_through_json(self):
        import json

        reg = MetricsRegistry()
        reg.inc("c", phase="x")
        out = json.loads(json.dumps(reg.export()))
        assert out["counters"]["c{phase=x}"] == 1
        assert set(out) == {"counters"}
        assert "dropped_label_sets" not in out


class TestTracer:
    def test_nesting_builds_parent_child_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", k="v"):
                pass
            with tracer.span("sibling"):
                pass
        roots = tracer.span_tree()
        assert len(roots) == 1
        assert roots[0]["name"] == "outer"
        assert [c["name"] for c in roots[0]["children"]] == ["inner", "sibling"]
        assert roots[0]["children"][0]["labels"] == {"k": "v"}

    def test_wrap_carries_context_across_deferred_execution(self):
        tracer = Tracer()
        deferred = []
        with tracer.span("request"):
            def handler():
                with tracer.span("handled"):
                    pass
            deferred.append(tracer.wrap(handler))
        # Executed later, outside any active span.
        deferred[0]()
        roots = tracer.span_tree()
        assert len(roots) == 1
        assert [c["name"] for c in roots[0]["children"]] == ["handled"]

    def test_wrap_without_current_span_returns_callback_unchanged(self):
        tracer = Tracer()
        def callback():
            pass
        assert tracer.wrap(callback) is callback

    def test_span_cap_drops_and_counts(self):
        tracer = Tracer(max_spans=1)
        with tracer.span("kept"):
            pass
        assert tracer.span("dropped") is NULL_SPAN
        assert tracer.dropped == 1
        assert "dropped past cap" in tracer.render()

    def test_clock_supplies_timestamps(self):
        times = iter([10.0, 25.0])
        tracer = Tracer(clock=lambda: next(times))
        with tracer.span("op") as span:
            pass
        assert span.start_ms == 10.0
        assert span.end_ms == 25.0
        assert span.duration_ms == 15.0


class TestKernelPropagation:
    def test_spans_nest_across_call_at(self):
        kernel = Kernel()
        telemetry = Telemetry(clock=lambda: kernel.now)
        kernel.trace_wrapper = telemetry.wrap

        def later():
            with telemetry.span("later"):
                pass

        with telemetry.span("root"):
            kernel.call_after(5.0, later)
        kernel.run()
        roots = telemetry.tracer.span_tree()
        assert len(roots) == 1
        assert [c["name"] for c in roots[0]["children"]] == ["later"]
        assert roots[0]["children"][0]["start_ms"] == 5.0

    def test_chained_scheduling_extends_one_tree(self):
        kernel = Kernel()
        telemetry = Telemetry(clock=lambda: kernel.now)
        kernel.trace_wrapper = telemetry.wrap

        def second():
            with telemetry.span("second"):
                pass

        def first():
            with telemetry.span("first"):
                kernel.call_after(1.0, second)

        with telemetry.span("root"):
            kernel.call_after(1.0, first)
        kernel.run()
        roots = telemetry.tracer.span_tree()
        first_node = roots[0]["children"][0]
        assert first_node["name"] == "first"
        assert [c["name"] for c in first_node["children"]] == ["second"]

    def test_raising_callback_scheduled_in_a_span_is_named(self):
        kernel = Kernel()
        telemetry = Telemetry(clock=lambda: kernel.now)
        kernel.trace_wrapper = telemetry.wrap

        def explode_in_span() -> None:
            raise ValueError("boom")

        with telemetry.span("root"):
            kernel.call_after(1.0, explode_in_span)
        with pytest.raises(SimulationError) as excinfo:
            kernel.run()
        text = str(excinfo.value)
        assert "explode_in_span" in text
        assert "traced" not in text


class TestKernelGuards:
    def test_step_cap_raises_with_label(self):
        kernel = Kernel()
        kernel.step_cap = 10

        def tick():
            kernel.call_after(1.0, tick, label="runaway-tick")

        kernel.call_after(1.0, tick, label="runaway-tick")
        with pytest.raises(SimulationError, match="runaway-tick"):
            kernel.run()

    def test_step_cap_resets_between_runs(self):
        kernel = Kernel()
        kernel.step_cap = 5
        for i in range(4):
            kernel.call_after(float(i + 1), lambda: None)
        kernel.run()  # 4 events < cap
        for i in range(4):
            kernel.call_after(float(i + 1), lambda: None)
        kernel.run()  # cap applies per run(), not cumulatively

    def test_wall_time_budget_raises(self):
        kernel = Kernel()
        kernel.wall_time_budget = 0.0  # expires immediately

        def slow():
            pass

        kernel.call_after(1.0, slow)
        with pytest.raises(SimulationError, match="wall-time budget"):
            kernel.run()


class TestDisabledPath:
    def test_disabled_singleton_is_shared(self):
        assert coalesce(None) is DISABLED
        telemetry = Telemetry()
        assert coalesce(telemetry) is telemetry

    def test_null_telemetry_is_inert(self):
        null = NullTelemetry()
        assert null.enabled is False
        null.count("x", 5, a="b")
        null.observe("x", 2.0)
        assert null.span("x", a="b") is NULL_SPAN
        assert null.export() == {}
        assert null.render_spans() == ""

    def test_null_wrap_returns_callback_identity(self):
        def callback():
            pass
        assert DISABLED.wrap(callback) is callback

    def test_from_config_returns_disabled_when_off(self):
        assert Telemetry.from_config(TelemetryConfig()) is DISABLED
        live = Telemetry.from_config(TelemetryConfig(enabled=True))
        assert live.enabled is True

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_label_sets=0)
        with pytest.raises(ValueError):
            TelemetryConfig(flight_capacity=0)


class TestZeroOverhead:
    def test_disabled_telemetry_installs_no_hooks(self):
        from repro.core import DeploymentConfig, OceanStoreSystem

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
        assert system.telemetry.flight is None
        assert system.telemetry.slo is None

    def test_callback_identity_preserved_without_hooks(self):
        kernel = Kernel()

        def callback() -> None:
            pass

        kernel.call_at(1.0, callback)
        _, _, queued_callback, label, _ = kernel._heap[0]
        assert queued_callback is callback
        assert label is None

    def test_telemetry_off_digest_matches_committed_baseline(self):
        """The guard: a same-seed telemetry-off run must reproduce the
        behavioural digest captured before the observatory existed --
        proof the opt-in features cost the default path nothing."""
        committed = golden.load_golden()["core_telemetry_off"]
        current = golden.core_observables(telemetry=False)
        assert current["digest"] == committed["digest"]
        assert current == committed


class TestRemovedSurface:
    def test_retired_instruments_stay_retired(self):
        """The kernel profiler, message-body digests and the switches
        nobody flipped are gone, not gated: no attribute, no field, no
        keyword left to turn them back on."""
        import dataclasses

        import networkx as nx

        from repro.chaos.scenarios import ChaosReport
        from repro.core import ChaosConfig, DeploymentConfig
        from repro.sim.network import Message, Network

        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert names(TelemetryConfig) == {
            "enabled",
            "flight_capacity",
            "flight_kernel",
            "slo_thresholds",
        }
        assert "profile" not in names(ChaosConfig)
        assert "byzantine" not in names(ChaosConfig)
        assert not names(DeploymentConfig) & {
            "bloom_depth",
            "bloom_width",
            "bloom_hashes",
            "key_bits",
        }
        assert "profile" not in names(ChaosReport)
        assert "hash_bodies" not in names(DeploymentConfig)
        kernel = Kernel()
        assert not hasattr(kernel, "profiler")
        message = Message(0, 1, b"payload", 8)
        assert not hasattr(message, "body_digest")
        assert not hasattr(message, "_digest")
        network = Network(kernel, nx.Graph())
        assert not hasattr(network, "record_body_digests")
        with pytest.raises(TypeError):
            Network(kernel, nx.Graph(), hash_bodies="eager")
        assert not hasattr(Telemetry(), "profiler")
        assert not hasattr(DISABLED, "profiler")


class TestDistributionEdgeCases:
    def test_empty_distribution_raises_specific_error(self):
        dist = Distribution()
        for method in (lambda: dist.mean, lambda: dist.min, lambda: dist.max,
                       lambda: dist.percentile(50)):
            with pytest.raises(EmptyDistributionError):
                method()

    def test_empty_error_is_a_value_error(self):
        dist = Distribution()
        with pytest.raises(ValueError):
            _ = dist.mean

    def test_single_sample_contract(self):
        dist = Distribution()
        dist.add(7.0)
        assert dist.mean == dist.min == dist.max == 7.0
        assert dist.count == 1
        assert dist.percentile(0) == 7.0
        assert dist.percentile(100) == 7.0


def _messages_by_phase(report: dict, subsystem: str) -> dict[str, int]:
    return {
        phase: cell["messages"]
        for phase, cell in report.get(subsystem, {}).items()
    }


@pytest.fixture(scope="module")
def traced_write():
    """A small instrumented deployment with one committed, traced write,
    and the write's messages per ``(subsystem, phase)`` read as a
    ``phase_report()`` delta around it."""
    from repro.core import DeploymentConfig, OceanStoreSystem, make_client

    system = OceanStoreSystem(
        DeploymentConfig(
            topology=TopologyParams(
                transit_nodes=4, stubs_per_transit=1, nodes_per_stub=4
            ),
            secondaries_per_object=3,
            telemetry=TelemetryConfig(enabled=True),
        )
    )
    client = make_client(system, "alice", seed=7)
    handle = client.create_object("traced")
    system.settle()
    system.telemetry.reset()
    before = system.network.phase_report()
    with system.telemetry.span("scenario"):
        result = client.write(handle, b"trace me")
        system.settle()
    assert result.committed
    after = system.network.phase_report()
    sent = {}
    for subsystem in ("pbft", "dissemination"):
        was = _messages_by_phase(before, subsystem)
        sent[subsystem] = {
            phase: count - was.get(phase, 0)
            for phase, count in _messages_by_phase(after, subsystem).items()
        }
    return system, sent


@pytest.fixture(scope="module")
def traced_system(traced_write):
    return traced_write[0]


def _collect_names(node, out):
    out.add(node["name"])
    for child in node["children"]:
        _collect_names(child, out)


class TestInstrumentedDeployment:
    def test_single_update_yields_one_trace_across_subsystems(self, traced_system):
        roots = traced_system.telemetry.tracer.span_tree()
        assert len(roots) == 1  # ONE tree for the whole update
        names = set()
        _collect_names(roots[0], names)
        assert "bloom.query" in names          # routing
        assert "pbft.request" in names         # agreement entry
        assert "pbft.pre_prepare" in names     # agreement ordering
        assert "pbft.execute" in names         # agreement execution
        assert "dissem.push" in names          # dissemination tree
        assert "archival.encode" in names      # archival side-effect

    def test_pbft_phase_counts_match_protocol(self, traced_write):
        system, sent = traced_write
        pbft = sent["pbft"]
        n = system.ring.n
        # Section 4.4.5 six-phase structure: request (client -> n
        # replicas), pre-prepare (leader -> n-1), prepare and commit
        # (all-to-all), sign-share after execution, then the
        # dissemination push counted separately.  The network's phase
        # ledger is the one count of these messages.
        assert pbft["request"] == n
        assert pbft["pre_prepare"] == n - 1
        assert pbft["prepare"] == (n - 1) ** 2
        assert pbft["commit"] == n * (n - 1)
        assert pbft["sign_share"] == n * (n - 1)
        dissemination = sent["dissemination"]
        assert dissemination.get("push", 0) + dissemination.get("invalidation", 0) > 0

    def test_export_includes_all_series(self, traced_system):
        import json

        export = json.loads(json.dumps(traced_system.telemetry.export(spans=True)))
        assert any(k.startswith("pbft_certificates_total") for k in export["counters"])
        assert export["slo"]["update{committed=yes,ring=0}"]["count"] == 1.0
        assert "histograms" not in export
        assert export["spans"][0]["name"] == "scenario"

    def test_disabled_system_records_nothing(self):
        from repro.core import DeploymentConfig, OceanStoreSystem, make_client

        system = OceanStoreSystem(
            DeploymentConfig(
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=1, nodes_per_stub=4
                ),
                secondaries_per_object=2,
            )
        )
        assert system.telemetry is DISABLED
        assert system.kernel.trace_wrapper is None
        client = make_client(system, "bob", seed=3)
        handle = client.create_object("untraced")
        result = client.write(handle, b"quiet")
        assert result.committed
        assert system.telemetry.export() == {}


class TestTelemetryCLI:
    def test_update_path_scenario(self, capsys):
        from repro.cli import main

        assert main(["telemetry", "--scenario", "update-path", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "scenario.update-path" in out
        assert "pbft.pre_prepare" in out
        assert "pbft/prepare" in out

    def test_operations_table_replaces_histograms(self, capsys):
        from repro.cli import main

        assert main(["telemetry", "--scenario", "update-path", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "histograms:" not in out
        lines = out.splitlines()
        header = next(
            line.split() for line in lines if line.split()[:2] == ["operation", "count"]
        )
        update = next(
            line.split() for line in lines if line.lstrip().startswith("update{")
        )
        row = dict(zip(header, update))
        assert int(row["count"]) == 1
        assert float(row["mean"]) > 0

    def test_json_mode_is_parseable(self, capsys):
        import json

        from repro.cli import main

        assert main(["telemetry", "--json", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert "spans" in data and "counters" in data
