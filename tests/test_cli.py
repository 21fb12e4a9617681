"""Tests for the command-line interface."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import _build_parser, main


#: (flag, value, text stderr must name) for a fault dial ``repro chaos``
#: rejects before any deployment is built
BAD_CHAOS_FAULT_DIALS = (
    ("--duration", "nan", "duration_ms"),
    ("--duration", "inf", "duration_ms"),
    ("--duration", "-5", "duration_ms"),
    ("--intensity", "2", "intensity"),
    ("--intensity", "nan", "intensity"),
)
BAD_CHAOS_FAULT_DIAL_IDS = (
    "duration-nan", "duration-inf", "duration-negative",
    "intensity-above-one", "intensity-nan",
)

#: (argv, text stderr must name) for a dial rejected before any output
BAD_DIALS = (
    (["flightrec", "--capacity", "0"], "flight_capacity"),
    (["flightrec", "--capacity", "-3"], "flight_capacity"),
    (["rings", "--ring-count", "0"], "ring_count"),
    (["health", "--ring-count", "0"], "ring_count"),
    (["slo", "--writes", "-1"], "--writes"),
    (["slo", "--reads", "-1"], "--reads"),
    (["rings", "--updates", "-1"], "--updates"),
    (["health", "--updates", "-1"], "--updates"),
    (["health", "--crash", "-1"], "--crash"),
    (["telemetry", "--max-depth", "-1"], "--max-depth"),
    (["topology", "--transit", "0"], "transit"),
    (["costmodel", "--faults", "-1"], "m=-1"),
    (["reliability", "--fragments", "0"], "f=0"),
    (["reliability", "--down-fraction", "2"], "--down-fraction"),
    (["topology", "--nodes-per-stub", "0"], "nodes_per_stub"),
    (["topology", "--stubs", "-1"], "stubs_per_transit"),
    (["flightrec", "--chaos", "nope"], "--chaos"),
    (["slo", "--chaos", "nope"], "--chaos"),
    (["sweep", "--processes", "0"], "--processes"),
    (["sweep", "--seeds", "x"], "seed spec"),
    (["costmodel", "--fit", "--updates-per-round", "-3"], "--updates-per-round"),
    (["costmodel", "--fit", "--update-size", "-5"], "--update-size"),
    (["reliability", "--machines", "1"], "n=1"),
    (["reliability", "--rate", "1"], "rate"),
)
BAD_DIAL_IDS = (
    "flightrec-capacity-zero", "flightrec-capacity-negative",
    "rings-ring-count-zero", "health-ring-count-zero",
    "slo-writes-negative", "slo-reads-negative",
    "rings-updates-negative", "health-updates-negative",
    "health-crash-negative", "telemetry-max-depth-negative",
    "topology-transit-zero", "costmodel-faults-negative",
    "reliability-fragments-zero", "reliability-down-fraction-above-one",
    "topology-nodes-per-stub-zero", "topology-stubs-negative",
    "flightrec-chaos-unknown", "slo-chaos-unknown",
    "sweep-processes-zero", "sweep-seeds-not-a-number",
    "costmodel-updates-per-round-negative", "costmodel-update-size-negative",
    "reliability-machines-one", "reliability-rate-one",
)


class TestCLI:
    def test_demo(self, capsys):
        assert main(["demo", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "write committed: True" in out
        assert "archival restore" in out

    def test_topology(self, capsys):
        assert main(["topology", "--transit", "4", "--stubs", "2",
                     "--nodes-per-stub", "4"]) == 0
        out = capsys.readouterr().out
        assert "servers: 36" in out
        assert "inner ring" in out

    def test_reliability(self, capsys):
        assert main(["reliability", "--machines", "100000"]) == 0
        out = capsys.readouterr().out
        assert "2x replication" in out
        assert "nines" in out

    def test_costmodel(self, capsys):
        assert main(["costmodel", "-m", "4"]) == 0
        out = capsys.readouterr().out
        assert "n=13 replicas" in out
        assert "normalized cost" in out

    def test_costmodel_fit_json(self, capsys):
        import json

        argv = ["costmodel", "--fit", "--updates-per-round", "8", "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        # Fig. 6 refit from measured traffic: batching eight updates per
        # round divides the quadratic coefficient by eight.
        assert report["fit"]["c1"] == pytest.approx(200.0)
        assert report["batched_fit"]["c1"] == pytest.approx(25.0)
        assert report["c1_amortization"] == pytest.approx(1 / 8)
        assert report["fit"]["quadratic_ok"] is True
        assert report["batched_fit"]["quadratic_ok"] is True

    def test_rings(self, capsys):
        assert main(["rings", "--ring-count", "2", "--updates", "1"]) == 0
        out = capsys.readouterr().out
        assert "control plane: 2 ring(s), sharded" in out
        assert "shard 1 epoch 0" in out
        assert "per-ring commits:" in out

    def test_rings_json(self, capsys):
        import json

        assert main(["rings", "--ring-count", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sharded"] is False
        assert len(report["directory"]) == 1
        assert report["commits"][0]["committed"] == 2

    @pytest.mark.parametrize(
        "argv",
        (["profile"], ["chaos", "--scenario", "pbft-silent", "--profile"]),
        ids=("profile-subcommand", "chaos-profile-flag"),
    )
    def test_retired_profiler_surface_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value, named", BAD_CHAOS_FAULT_DIALS, ids=BAD_CHAOS_FAULT_DIAL_IDS
    )
    def test_chaos_bad_fault_dial_is_a_usage_error(self, flag, value, named, capsys):
        """A non-finite or out-of-range fault window or severity fails
        closed before any deployment is built: no traceback, no hang."""
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--scenario", "orphaned-subtree", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, named", BAD_DIALS, ids=BAD_DIAL_IDS)
    def test_bad_dial_is_a_usage_error(self, argv, named, capsys):
        """A dial the config (or the command) rejects exits 2 with the
        message on stderr, before any output and without a traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert "Traceback" not in captured.err

    def test_every_numeric_flag_has_a_bad_dial_row(self):
        """Every flag with a numeric default (``--seed`` aside) has a row
        above, so a new count or size flag cannot land without a test
        that its bound rejects."""
        covered = {(argv[0], flag) for argv, _ in BAD_DIALS for flag in argv[1:]}
        covered |= {("chaos", flag) for flag, _, _ in BAD_CHAOS_FAULT_DIALS}
        commands = next(
            action.choices
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        missing = [
            f"{name} {action.option_strings[0]}"
            for name, command in commands.items()
            for action in command._actions
            if type(action.default) in (int, float)
            and "--seed" not in action.option_strings
            and not any((name, flag) in covered for flag in action.option_strings)
        ]
        assert missing == []
    def test_slo_workload_with_thresholds(self, capsys):
        assert main([
            "slo", "--writes", "2", "--reads", "2",
            "--threshold", "update:p95:3600000",
        ]) == 0
        out = capsys.readouterr().out
        assert "update" in out
        assert "all met" in out

    def test_slo_violated_threshold_exits_nonzero(self, capsys):
        assert main([
            "slo", "--writes", "1", "--reads", "1",
            "--threshold", "update:p95:0.001",
        ]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_slo_bad_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["slo", "--threshold", "nonsense"])

    def test_health_json(self, capsys):
        import json

        assert main(["health", "--ring-count", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ring_count"] == 2
        assert len(report["shards"]) == 2
        assert report["handoffs"]["enabled"] is False

    def test_health_crash_surfaces_suspects(self, capsys):
        import json

        assert main(["health", "--ring-count", "1", "--crash", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["down_nodes"]) == 2
        assert report["suspected"] == report["down_nodes"]

    def test_flightrec_export_perfetto(self, tmp_path, capsys):
        import json

        target = tmp_path / "trace.perfetto.json"
        assert main([
            "flightrec", "--scenario", "update-path",
            "--export-perfetto", str(target),
        ]) == 0
        document = json.loads(target.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document["traceEvents"]

    def test_retired_quantiles_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["telemetry", "--quantiles", "50"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, named",
        (("update:pxx:1", "'pxx'"), ("update:p150:1", "'p150'")),
        ids=("unparsable", "out-of-range"),
    )
    def test_slo_bad_threshold_key_is_a_usage_error(self, spec, named, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["slo", "--threshold", spec])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "'update'" in err
        assert named in err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "removed",
        (["--kind", "bench"], ["--bench", "read_path"], ["--fast"]),
        ids=("kind", "bench", "fast"),
    )
    def test_sweep_rejects_the_retired_bench_flags(self, removed, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--seeds", "0", *removed])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_runs_from_outside_the_repo_root(self, tmp_path):
        """Nothing under ``repro`` may import from the checkout around it:
        the command must work wherever the package is importable."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--seeds", "0",
             "--scenario", "pbft-silent", "--json"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        merged = json.loads(result.stdout)
        assert merged["all_passed"] and merged["total"] == 1
        assert list(merged["digests"]) == ["pbft-silent:0"]
