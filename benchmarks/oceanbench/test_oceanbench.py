"""Self-tests of the benchmark itself.

Not part of the tier-1 ``testpaths``; run them explicitly:

    python3 -m pytest benchmarks/oceanbench/test_oceanbench.py -q

Every run here uses ``--seconds 0.3``, which shrinks each workload to its
minimum operation counts.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SECONDS = "0.3"


def invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def last_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """One end-to-end and one traced run of every workload, with result files."""
    out = {}
    folder = tmp_path_factory.mktemp("oceanbench")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            path = folder / f"{workload}-{trace}.json"
            done = invoke(
                "--workload", workload, "--seed", "0", "--seconds", SECONDS,
                "--trace", trace, "--out", str(path),
            )  # fmt: skip
            assert done.returncode == 0, done.stdout + done.stderr
            out[workload, trace] = (last_line(done), json.loads(path.read_text()))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported(runs, workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result, _ = runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
        for entry in SPEC[section]:
            assert NAME.fullmatch(entry["name"])
            metric = result["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float))
    for name, metric in runs[workload, "0"][0]["metrics"].items():
        assert metric["value"] > 0, name


def test_names_are_unique_and_setup_has_the_largest_bound():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_simulated_clock_metrics_repeat_exactly(runs):
    first = runs["chaos_failover", "0"][0]["metrics"]
    again = last_line(
        invoke("--workload", "chaos_failover", "--seed", "0", "--seconds", SECONDS, "--trace", "0")
    )["metrics"]
    other_seed = last_line(
        invoke("--workload", "chaos_failover", "--seed", "1", "--seconds", SECONDS, "--trace", "0")
    )["metrics"]
    sim = [m["name"] for m in SPEC["end_to_end"] if m["name"] not in ("setup_s", "wall_s", "peak_rss_mb")]
    assert sim
    for name in sim:
        assert first[name]["value"] == again[name]["value"]
    assert any(first[name]["value"] != other_seed[name]["value"] for name in sim)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_ledger_sums_to_its_total(runs, workload):
    # ``correct`` on a traced run already asserts that counts and
    # simulated-clock values equal the untraced repetition's.
    detail = runs[workload, "1"][1]["workloads"][workload]["per_layer"]
    parts = detail["ledger_parts"]
    total = parts["setup_s"] + parts["self_s"] + parts["residual_s"]
    assert total == pytest.approx(parts["total_s"], rel=0.01)
    assert detail["missing_targets"] == []


def test_chaos_failover_changes_view_and_fails_over(runs):
    metrics = runs["chaos_failover", "1"][0]["metrics"]
    assert metrics["consistency.pbft.max_view"]["value"] >= 1
    assert metrics["failover_sim_ms"]["value"] > 0
    assert metrics["telemetry.flight_events"]["value"] > 0


def test_corrupted_read_back_trips_the_oracle():
    done = invoke(
        "--workload", "commit_stream", "--seed", "0", "--seconds", SECONDS, "--trace", "0", "--sabotage"
    )
    assert done.returncode != 0
    result = last_line(done)
    assert result["correct"] is False and result["failed"] >= 1
    assert "read-back differs" in done.stdout


def test_result_file_records_how_it_was_produced(runs):
    document = runs["read_zipf", "0"][1]
    provenance = document["provenance"]
    for key in ("git_revision", "seed", "seconds", "python", "nproc", "host.calib_loops_per_s"):
        assert key in provenance
    detail = document["workloads"]["read_zipf"]["end_to_end"]
    assert len(detail["raw"]["wall_s"]) == 3
    assert detail["samples"]["commit_latency"] >= 1 and detail["work"]["reads"] >= 1


def test_compare_flags_a_regression(runs, tmp_path):
    base = runs["commit_stream", "0"][1]
    a = tmp_path / "a.json"
    a.write_text(json.dumps(base))
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run([*compare, str(a), str(a)], capture_output=True, text=True)
    assert same.returncode == 0 and " worse" not in same.stdout
    slower = json.loads(json.dumps(base))
    result = slower["workloads"]["commit_stream"]["end_to_end"]
    result["metrics"]["commit_latency_sim_ms_p50"]["value"] *= 1.5
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slower))
    worse = subprocess.run([*compare, str(a), str(b)], capture_output=True, text=True)
    assert worse.returncode == 1 and " worse" in worse.stdout


def test_unresolvable_trace_target_is_counted_not_fatal():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import tracing
    finally:
        del sys.path[:2]
    recorder = tracing.SpanRecorder()
    recorder.install((("repro.sim.kernel.Kernel.no_such_method", "sim.kernel"),))
    assert recorder.missing == ["repro.sim.kernel.Kernel.no_such_method"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = invoke("--workload", "read_zipf", "--seed", "0", "--seconds", SECONDS, "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
