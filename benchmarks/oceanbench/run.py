"""oceanbench: four fixed-work workloads, two clocks, one layer ledger.

    python3 benchmarks/oceanbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/oceanbench/run.py [--seed N] [--seconds S] [--trace 1] [--out FILE]

With ``--workload`` it measures one workload and prints, as the last line
of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` it measures all four (a *run set*)
and writes one result file that ``compare.py`` reads.

``--seconds`` is how long one invocation measures on the reference box.
It fixes the operation counts (see ``workloads.py``); nothing is cut short
by a timer, so for a given seed and ``--seconds`` every simulated-clock
number repeats exactly.  The measuring is split over ``REPS`` repetitions,
each in a fresh child process launched one at a time, because the
program's process-wide memo caches would otherwise turn repetitions two
and three into warm-cache measurements.  Host-clock metrics are the median
over the repetitions; simulated-clock metrics and counts must be identical
across them or the run is reported incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: fresh-process repetitions per untraced measurement
REPS = 3
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def calibrate(loops: int = 200_000, rounds: int = 5) -> float:
    """Iterations per second of a fixed pure-Python loop, for comparing
    host-clock numbers taken on different machines."""
    rates = []
    for _ in range(rounds):
        started = perf_counter()
        x = 0
        for i in range(loops):
            x = (x + i * i) % 1_000_003
        rates.append(loops / (perf_counter() - started))
    return statistics.median(rates)


# ---------------------------------------------------------------------------
# one repetition, in its own process
# ---------------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    import resource

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"oceanbench: no program to measure at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    calib = calibrate()
    started = perf_counter()
    import tracing
    import workloads

    import_s = perf_counter() - started
    recorder = None
    if args.trace:
        recorder = tracing.SpanRecorder()
        recorder.install()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, telemetry=not args.telemetry_off, recorder=recorder
    )
    host = {"import_s": import_s, "host.calib_loops_per_s": calib}
    phases = (
        ("setup", "setup_s", workload.setup),
        ("timed", "wall_s", workload.run),
        ("oracle", "oracle_s", lambda: workload.oracle(sabotage=args.sabotage)),
    )
    for phase, metric, body in phases:
        if recorder is not None:
            recorder.begin_phase(phase)
        started = perf_counter()
        body()
        host[metric] = perf_counter() - started
        if phase == "timed":
            # before the oracle, whose restores and read-backs are not the workload's
            host["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = workload.results()
    out["host"] = host
    if recorder is not None:
        out.update(layer_metrics(recorder, out))
    print(json.dumps(out))
    return 0


def layer_metrics(recorder, out: dict) -> dict:
    """Per-layer numbers of a traced repetition, and its printed ledger."""
    host, counts = out["host"], out["counts"]
    setup = recorder.ledger("setup", host["setup_s"])
    timed = recorder.ledger("timed", host["wall_s"])
    oracle = recorder.ledger("oracle", host["oracle_s"])
    m: dict[str, float] = {}
    for layer in timed.self_by_layer:
        m[f"{layer}.self_s"] = timed.self_by_layer[layer]
        m[f"{layer}.calls"] = timed.calls_by_layer[layer]
    m["core.build_self_s"] = setup.self_s("OceanStoreSystem.__init__")
    m["core.create_object_self_s"] = setup.self_s("OceanStoreSystem.create_object")
    m["core.residual_s"] = timed.residual_s
    m["trace.missing_targets"] = len(recorder.missing)
    m["routing.converge_self_s"] = setup.self_s("ProbabilisticLocator.converge")
    m["crypto.rsa.keygen_self_s"] = setup.self_s("generate_keypair")
    m["crypto.rsa.sign_calls"] = timed.calls("PrivateKey.sign")
    m["crypto.rsa.verify_calls"] = timed.calls("PublicKey.verify")
    m["data.build_self_s"] = timed.self_s("UpdateBuilder.build")
    m["data.apply_self_s"] = timed.self_s("PersistentObject.apply_update")
    m["sim.kernel.self_us_per_event"] = (
        1e6 * timed.self_by_layer["sim.kernel"] / max(1, counts["sim.kernel.events"])
    )
    m["sim.network.send_self_us_per_message"] = (
        1e6 * timed.self_by_layer["sim.network"] / max(1, counts["sim.network.messages"])
    )
    probes = recorder.probes_in("timed")
    m["crypto.blockcipher.bytes"] = probes["cipher_bytes"]
    m["crypto.blockcipher.self_us_per_kib"] = (
        1e6 * timed.self_by_layer["crypto.blockcipher"] * 1024 / max(1, probes["cipher_bytes"])
    )
    hops, model_ms = probes["locate_hops"], probes["locate_model_ms"]
    m["routing.locate_hops_mean"] = statistics.fmean(hops) if hops else 0.0
    m["routing.locate_model_ms_p50"] = statistics.median(model_ms) if model_ms else 0.0
    encodes = timed.calls("ReedSolomonCode.encode")
    m["archival.encode_calls"] = encodes
    m["archival.encode_self_ms_mean"] = 1e3 * timed.self_s("ReedSolomonCode.encode") / max(1, encodes)
    restores = oracle.calls("OceanStoreSystem.restore_from_archive")
    m["archival.restore_calls"] = restores
    m["archival.restore_self_ms_mean"] = (
        1e3
        * oracle.self_s(
            "OceanStoreSystem.restore_from_archive",
            "FragmentFetcher.fetch",
            "ReedSolomonCode.decode",
        )
        / max(1, restores)
    )
    # Counts taken at the span boundaries must agree with the program's own.
    mismatches = []
    for what, spans, own in (
        ("Network.send", timed.calls("Network.send"), counts["sim.network.messages"]),
        ("LocationService.locate", timed.calls("LocationService.locate"), counts["routing.locate_calls"]),
    ):
        if spans != own:
            mismatches.append(f"{what}: {spans} spans but the program counted {own}")
    return {
        "layers": m,
        "ledger": timed.lines(host["setup_s"]),
        "ledger_parts": {
            "setup_s": host["setup_s"],
            "self_s": sum(timed.self_by_layer.values()),
            "residual_s": timed.residual_s,
            "total_s": host["setup_s"] + host["wall_s"],
        },
        "missing_targets": recorder.missing,
        "span_count_mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# one workload: launch the repetitions, reduce, report
# ---------------------------------------------------------------------------


def run_child(workload: str, seed: int, rep_seconds: float, *flags: str) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(rep_seconds),
        *flags,
    ]  # fmt: skip
    done = subprocess.run(
        command, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, cwd=ROOT, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: repetition exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def agreement_problems(reps: list[dict], labels: list[str]) -> list[str]:
    """Simulated-clock values and counts must be identical across repetitions."""
    problems = []
    first = reps[0]
    for rep, label in zip(reps[1:], labels[1:]):
        for section in ("sim", "counts"):
            for key, value in first[section].items():
                if rep[section].get(key) != value:
                    problems.append(
                        f"{key}: {value!r} in {labels[0]} but {rep[section].get(key)!r} in {label}"
                    )
    return problems


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool, sabotage: bool = False) -> dict:
    """Run one workload's repetitions and reduce them to named metrics."""
    rep_seconds = seconds / REPS
    extra = ("--sabotage",) if sabotage else ()
    if trace:
        labels = ["untraced", "traced"]
        reps = [
            run_child(workload, seed, rep_seconds, *extra),
            run_child(workload, seed, rep_seconds, "--trace", "1", *extra),
        ]
    else:
        labels = [f"repetition {i + 1}" for i in range(REPS)]
        reps = [run_child(workload, seed, rep_seconds, *extra) for _ in range(REPS)]
    base = reps[0]
    problems = agreement_problems(reps, labels)
    for rep, label in zip(reps, labels):
        problems += [f"{label}: {failure}" for failure in rep["oracle_failures"]]
        problems += [f"{label}: {m}" for m in rep.get("span_count_mismatches", [])]

    values: dict[str, float] = {}
    raw: dict[str, list[float]] = {}
    values.update(base["counts"])
    values.update(base["sim"])
    if trace:
        traced = reps[1]
        values.update(traced["layers"])
        untraced_wall = base["host"]["wall_s"]
        values["trace.overhead_ratio"] = traced["host"]["wall_s"] / untraced_wall
        values["host.calib_loops_per_s"] = statistics.median(
            r["host"]["host.calib_loops_per_s"] for r in reps
        )
        values["sim.kernel.events_per_wall_s"] = base["counts"]["sim.kernel.events"] / untraced_wall
        values["sim.kernel.sim_s_per_wall_s"] = base["sim"]["sim_ms"] / 1e3 / untraced_wall
        values["routing.bloom_hit_ratio"] = base["counts"]["routing.bloom_hits"] / max(
            1, base["counts"]["routing.locate_calls"]
        )
        values["telemetry.overhead_ratio"] = 0.0
        if base["counts"]["telemetry.flight_events"]:
            # The workload runs observed.  Its telemetry's cost is measured
            # from outside: the same work with telemetry off.
            off = run_child(workload, seed, rep_seconds, "--telemetry-off", *extra)
            values["telemetry.overhead_ratio"] = untraced_wall / off["host"]["wall_s"]
            problems += [f"telemetry off: {f}" for f in off["oracle_failures"]]
        wall_s = untraced_wall
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        for name in (e["name"] for e in wanted if e["name"] in base["host"]):
            raw[name] = [r["host"][name] for r in reps]
            values[name] = statistics.median(raw[name])
        wall_s = values["wall_s"]

    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    traced_detail = reps[1] if trace else {}
    return {
        "correct": not problems,
        "attempted": base["counts"]["attempted"],
        "failed": base["counts"]["failed"],
        "metrics": metrics,
        "problems": problems,
        "raw": raw,
        "samples": base["samples"],
        "work": base["work"],
        "ops_per_s": base["counts"]["attempted"] / wall_s,
        "repetitions": [dict(r["host"], label=label) for r, label in zip(reps, labels)],
        "ledger": traced_detail.get("ledger", []),
        "ledger_parts": traced_detail.get("ledger_parts", {}),
        "missing_targets": traced_detail.get("missing_targets", []),
    }


def report(workload: str, seed: int, seconds: float, trace: bool, result: dict) -> None:
    print(f"oceanbench {workload}  seed={seed} seconds={seconds:g} trace={int(trace)}")
    for name, metric in result["metrics"].items():
        spread = ""
        if name in result["raw"]:
            spread = "   repetitions: " + ", ".join(f"{v:.4f}" for v in result["raw"][name])
        print(f"  {name:<42}{metric['value']:>16.6g} {metric['unit']}{spread}")
    print(
        f"  attempted={result['attempted']} failed={result['failed']} "
        f"ops/s={result['ops_per_s']:.1f} samples={result['samples']} work={result['work']}"
    )
    if result["ledger"]:
        print("  ledger (traced repetition): setup + layer self time + residual = traced total")
        print("\n".join(result["ledger"]))
    for target in result["missing_targets"]:
        print(f"  trace target no longer resolves: {target}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="result file (run sets default to bench-artifacts/)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--telemetry-off", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"oceanbench: no program to measure at {ROOT}/src/repro", file=sys.stderr)
        return 2

    run_set = args.workload is None
    results: dict[str, dict] = {}
    for workload in names if run_set else [args.workload]:
        # A run set measures end to end always, and per layer on request.
        for trace in ([False, True] if run_set and args.trace else [bool(args.trace)]):
            result = measure(spec, workload, args.seed, args.seconds, trace, args.sabotage)
            report(workload, args.seed, args.seconds, trace, result)
            results.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = result
    correct = all(r["correct"] for per in results.values() for r in per.values())

    out_path = args.out
    if out_path is None and run_set:
        out_path = ROOT / "bench-artifacts" / f"oceanbench_seed{args.seed}.json"
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        calib = [
            rep["host.calib_loops_per_s"]
            for per in results.values()
            for result in per.values()
            for rep in result["repetitions"]
        ]
        document = {
            "schema": 1,
            "provenance": {
                "git_revision": git_revision(),
                "seed": args.seed,
                "seconds": args.seconds,
                "repetitions": REPS,
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "host.calib_loops_per_s": statistics.median(calib),
            },
            "bounds": {e["name"]: e["bound"] for e in spec["end_to_end"]},
            "better": {e["name"]: e["better"] for e in spec["end_to_end"]},
            "workloads": results,
        }
        with open(out_path, "w") as f:
            json.dump(document, f, indent=1, sort_keys=True)
        print(f"result file: {out_path}")
    if not run_set:
        only = results[args.workload]["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({k: only[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
