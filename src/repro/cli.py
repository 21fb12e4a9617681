"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      -- run the end-to-end update-path demo on a fresh
                   simulated deployment (write, share, crash, restore);
* ``topology``  -- describe the deployment a config would build;
* ``reliability`` -- print the Section 4.5 availability table for given
                   parameters;
* ``costmodel`` -- print the Figure 6 normalized-cost series, or (with
                   ``--fit``) fit measured inner-ring traffic back to
                   the paper's equation across ring sizes;
* ``telemetry`` -- run an instrumented scenario and print the causal
                   span tree plus the metrics table;
* ``flightrec`` -- run a scenario with the flight recorder on and dump
                   the causally ordered event timeline;
* ``chaos``     -- run seeded fault-injection scenarios with invariant
                   checking; the same seed replays bit-identically;
* ``rings``     -- stand up a sharded control plane, drive one update
                   per shard, and print the ring directory, membership,
                   and per-ring commit stats;
* ``slo``       -- drive an end-user workload (or a chaos scenario) and
                   print per-operation latency percentiles with SLO
                   threshold verdicts;
* ``health``    -- stand up a deployment and dump the control-plane
                   health snapshot (ring epochs, degraded shards,
                   suspected members, handoff progress) as JSON;
* ``sweep``     -- run chaos scenarios over a seed range, optionally
                   across worker processes, with per-task digests that
                   match at any process count.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from repro.archival import erasure_availability, nines, replication_availability
from repro.chaos import SCENARIOS, run_scenario, scenario_descriptions
from repro.consistency import normalized_cost, replicas_for_faults
from repro.core import ChaosConfig, DeploymentConfig, OceanStoreSystem, make_client
from repro.crypto.keys import make_principal
from repro.data import AppendBlock, TruePredicate, UpdateBranch, make_update
from repro.naming import object_guid
from repro.recovery import RecoveryConfig
from repro.sim import TopologyParams
from repro.telemetry import TelemetryConfig
from repro.telemetry.export import export_telemetry
from repro.telemetry.slo import summary_table
from repro.util import ConfigError

#: the small deployment the demo and instrumented scenarios run on
_DEMO_TOPOLOGY = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5)


def _bounded(convert, low, high=float("inf")):
    """An argparse ``type=`` for a number no config carries: ``convert``
    the text and hold it to ``[low, high]``, so a miss is a usage error
    that names the flag."""
    bound = f">= {low}" if high == float("inf") else f"in [{low}, {high}]"

    def parse(text: str):
        value = convert(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OceanStore (ASPLOS 2000) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the end-to-end demo")
    demo.add_argument("--seed", type=int, default=42)

    topo = sub.add_parser("topology", help="describe a deployment")
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--transit", type=int, default=8)
    topo.add_argument("--stubs", type=int, default=3)
    topo.add_argument("--nodes-per-stub", type=int, default=8)

    rel = sub.add_parser("reliability", help="Section 4.5 availability table")
    rel.add_argument("--machines", type=int, default=1_000_000)
    rel.add_argument("--down-fraction", type=_bounded(float, 0.0, 1.0), default=0.1)
    rel.add_argument("--fragments", type=int, default=16)
    rel.add_argument("--rate", type=float, default=0.5)

    cost = sub.add_parser("costmodel", help="Figure 6 normalized costs")
    cost.add_argument("--faults", "-m", type=int, default=4)
    cost.add_argument(
        "--fit",
        action="store_true",
        help="measure one update through simulated rings at m=2,3,4 and "
        "fit b = c1*n^2 + (u+c2)*n + c3 to the observed bytes",
    )
    cost.add_argument(
        "--update-size", type=_bounded(int, 0), default=10_000, help="payload bytes for --fit"
    )
    cost.add_argument(
        "--updates-per-round",
        type=_bounded(int, 1),
        default=1,
        metavar="U",
        help="with --fit: batch U updates into each agreement round and "
        "report the per-update fit next to the unbatched one -- the "
        "measured c1*n^2 amortization of PBFT batching",
    )
    cost.add_argument("--seed", type=int, default=0)
    cost.add_argument(
        "--json", action="store_true", help="emit the --fit report as JSON"
    )

    telem = sub.add_parser(
        "telemetry", help="trace an instrumented scenario end to end"
    )
    telem.add_argument("--seed", type=int, default=42)
    telem.add_argument(
        "--scenario",
        choices=sorted(_SCENARIOS),
        default="update-path",
        help="which instrumented scenario to run",
    )
    telem.add_argument(
        "--max-depth", type=_bounded(int, 0), default=8, help="span tree display depth"
    )
    telem.add_argument(
        "--json",
        action="store_true",
        help="emit the full counters+SLO+spans export as JSON instead of tables",
    )

    flight = sub.add_parser(
        "flightrec",
        help="dump the flight-recorder timeline of a scenario run",
    )
    flight.add_argument("--seed", type=int, default=42)
    flight.add_argument(
        "--scenario",
        choices=sorted(_SCENARIOS),
        default="update-path",
        help="instrumented scenario to record (ignored with --chaos)",
    )
    flight.add_argument(
        "--chaos",
        choices=sorted(SCENARIOS),
        metavar="NAME",
        default=None,
        help="record a chaos scenario instead (see `repro chaos --list`)",
    )
    flight.add_argument(
        "--category",
        action="append",
        default=None,
        help="keep only these event categories (repeatable): "
        "net, pbft, dissem, archival, kernel",
    )
    flight.add_argument(
        "--limit", type=_bounded(int, 0), default=None, help="show only the last N events"
    )
    flight.add_argument(
        "--capacity", type=int, default=4096, help="ring-buffer size"
    )
    flight.add_argument(
        "--kernel",
        action="store_true",
        help="also record kernel schedule/fire events (noisy)",
    )
    flight.add_argument(
        "--json", action="store_true", help="emit the dump as JSON"
    )
    flight.add_argument(
        "--export-perfetto",
        metavar="PATH",
        default=None,
        help="also write the run as Chrome trace-event JSON, viewable "
        "at ui.perfetto.dev (byte-identical across same-seed runs)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection scenarios with invariant checking",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="master seed; replays bit-identically"
    )
    chaos.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS) + ["all"],
        default="all",
        help="which scenario to run (default: all)",
    )
    chaos.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    chaos.add_argument(
        "--intensity",
        type=float,
        default=0.3,
        help="fault severity dial in [0,1]: drop rates, crash fractions",
    )
    chaos.add_argument(
        "--duration",
        type=float,
        default=60_000.0,
        help="fault window length in virtual ms",
    )
    chaos.add_argument(
        "--no-recovery",
        action="store_true",
        help="force the self-healing recovery layer off (the recovery "
        "scenarios are then expected to fail their invariant oracle)",
    )
    chaos.add_argument(
        "--trace",
        action="store_true",
        help="print the event trace even for passing scenarios",
    )
    chaos.add_argument(
        "--json", action="store_true", help="emit reports as JSON"
    )
    chaos.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="OP:pQ:MS",
        help="SLO threshold judged as an invariant, e.g. read:p95:2000 "
        "(repeatable)",
    )
    chaos.add_argument(
        "--export-dir",
        metavar="DIR",
        default=None,
        help="write <scenario>-<seed>.perfetto.json for every failing "
        "scenario into DIR (CI uploads these as artifacts)",
    )

    rings = sub.add_parser(
        "rings",
        help="multi-ring control plane: directory, membership, commits",
    )
    rings.add_argument("--seed", type=int, default=0)
    rings.add_argument(
        "--ring-count",
        type=int,
        default=2,
        help="GUID-range shards, each served by its own inner ring",
    )
    rings.add_argument(
        "--updates",
        type=_bounded(int, 0),
        default=2,
        help="updates to commit per shard before printing stats",
    )
    rings.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    slo = sub.add_parser(
        "slo",
        help="per-operation latency percentiles with SLO verdicts",
    )
    slo.add_argument("--seed", type=int, default=42)
    slo.add_argument(
        "--writes", type=_bounded(int, 0), default=4, help="updates to drive"
    )
    slo.add_argument("--reads", type=_bounded(int, 0), default=4, help="reads to drive")
    slo.add_argument(
        "--threshold",
        action="append",
        default=None,
        metavar="OP:pQ:MS",
        help="SLO limit, e.g. read:p95:2000 or update:p99:30000 "
        "(repeatable); exit 1 when any is exceeded",
    )
    slo.add_argument(
        "--chaos",
        choices=sorted(SCENARIOS),
        metavar="NAME",
        default=None,
        help="judge a chaos scenario's operations instead of driving "
        "the built-in workload",
    )
    slo.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    health = sub.add_parser(
        "health",
        help="control-plane health snapshot (always JSON)",
    )
    health.add_argument("--seed", type=int, default=0)
    health.add_argument(
        "--ring-count",
        type=int,
        default=2,
        help="GUID-range shards in the control plane",
    )
    health.add_argument(
        "--updates",
        type=_bounded(int, 0),
        default=1,
        help="updates to commit per shard before snapshotting",
    )
    health.add_argument(
        "--crash",
        type=_bounded(int, 0),
        default=0,
        metavar="N",
        help="crash N stub nodes first, so degraded/suspected fields "
        "have something to report (enables the recovery layer)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="seed-parallel chaos sweeps (opt-in multiprocessing)",
    )
    sweep.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS) + ["all"],
        default="all",
        help="chaos scenario to sweep (default: all)",
    )
    sweep.add_argument(
        "--seeds",
        default="0-3",
        metavar="SPEC",
        help='seed list: "0-7", "0,3,11", or a single seed (default 0-3)',
    )
    sweep.add_argument(
        "--processes",
        type=_bounded(int, 1),
        default=1,
        help="worker processes; 1 (default) runs inline with no "
        "multiprocessing -- the byte-identical reference mode",
    )
    sweep.add_argument(
        "--json", action="store_true", help="emit the merged result as JSON"
    )

    return parser


def _parse_slo_thresholds(
    entries: list[str] | None,
) -> dict[str, dict[str, float]]:
    """``["read:p95:2000", ...]`` -> ``{"read": {"p95": 2000.0}}``."""
    thresholds: dict[str, dict[str, float]] = {}
    for entry in entries or []:
        parts = entry.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad SLO spec {entry!r}; expected OP:pQ:LIMIT_MS")
        op, qname, limit = parts
        try:
            thresholds.setdefault(op, {})[qname] = float(limit)
        except ValueError:
            raise ConfigError(f"bad SLO limit in {entry!r}") from None
    return thresholds


def cmd_demo(args: argparse.Namespace) -> int:
    print(f"Building deployment (seed={args.seed})...")
    system = OceanStoreSystem(DeploymentConfig(seed=args.seed, topology=_DEMO_TOPOLOGY))
    print(f"  {len(system.servers)} servers; inner ring {system.ring_nodes}")
    alice = make_client(system, "alice", seed=args.seed + 1)
    obj = alice.create_object("demo-object")
    result = alice.write(obj, b"hello from the command line")
    print(f"  write committed: {result.committed} (version {result.new_version})")
    print(f"  read back: {alice.read(obj)!r}")
    state = system.restore_from_archive(obj.guid, 1)
    print(f"  archival restore: {obj.codec.read_document(state.data)!r}")
    print(f"  network: {system.network.stats_total_messages} messages, "
          f"{system.network.stats_total_bytes} bytes")
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    config = DeploymentConfig(
        seed=args.seed,
        topology=TopologyParams(
            transit_nodes=args.transit,
            stubs_per_transit=args.stubs,
            nodes_per_stub=args.nodes_per_stub,
        ),
    )
    system = OceanStoreSystem(config)
    transit = [n for n, d in system.graph.nodes(data=True) if d["kind"] == "transit"]
    stub = [n for n, d in system.graph.nodes(data=True) if d["kind"] == "stub"]
    print(f"servers: {len(system.servers)} ({len(transit)} transit, {len(stub)} stub)")
    print(f"edges: {system.graph.number_of_edges()}")
    print(f"inner ring (n={config.ring_size}, m={system.ring.m}): "
          f"{system.ring_nodes}")
    print(f"location: {system.router.salts} salted roots, Bloom depth "
          f"{system.probabilistic.depth} x {system.probabilistic.width} bits")
    print(f"archival: {config.archival_k}-of-{config.archival_n} Reed-Solomon")
    return 0


def cmd_reliability(args: argparse.Namespace) -> int:
    n = args.machines
    m = int(n * args.down_fraction)
    rep = replication_availability(n, m, replicas=2)
    er = erasure_availability(n, m, fragments=args.fragments, rate=args.rate)
    print(f"machines={n}, down={m} ({args.down_fraction:.0%})")
    print(f"  2x replication:      P={rep:.6f}  ({nines(rep):.1f} nines)")
    print(f"  {args.fragments} fragments @ rate {args.rate}: "
          f"P={er:.10f}  ({nines(er):.1f} nines)")
    return 0


def cmd_costmodel(args: argparse.Namespace) -> int:
    if args.fit:
        return _costmodel_fit(args)
    n = replicas_for_faults(args.faults)
    print(f"m={args.faults} -> n={n} replicas")
    print(f"{'update size':>12} | normalized cost b/(u*n)")
    for size in (100, 1_000, 4_000, 10_000, 100_000, 1_000_000):
        print(f"{size:>11}B | {normalized_cost(size, n):.3f}")
    return 0


def _costmodel_fit(args: argparse.Namespace) -> int:
    """Measure real simulated traffic and fit the Figure 6 equation."""
    from repro.consistency import fit_cost_model, measure_sweep

    u = args.updates_per_round
    measurements = measure_sweep(update_size=args.update_size, seed=args.seed)
    fit = fit_cost_model(
        [(t.n, t.update_bytes, t.total_bytes) for t in measurements]
    )
    batched = None
    batched_fit = None
    if u > 1:
        # Same workload twice: u updates one-per-round vs u per round.
        # Both fits are per *update*, so the c1 ratio is the measured
        # quadratic-term amortization of batching.
        unbatched_u = measure_sweep(
            update_size=args.update_size, seed=args.seed, updates=u, batch_size=1
        )
        fit = fit_cost_model(
            [(t.n, t.update_bytes, t.per_update_bytes) for t in unbatched_u]
        )
        batched = measure_sweep(
            update_size=args.update_size, seed=args.seed, updates=u, batch_size=u
        )
        batched_fit = fit_cost_model(
            [(t.n, t.update_bytes, t.per_update_bytes) for t in batched]
        )
    if args.json:
        report = {
            "fit": fit.to_dict(),
            "measurements": [t.to_dict() for t in measurements],
        }
        if batched_fit is not None and batched is not None:
            report["updates_per_round"] = u
            report["batched_fit"] = batched_fit.to_dict()
            report["batched_measurements"] = [t.to_dict() for t in batched]
            report["c1_amortization"] = batched_fit.c1 / fit.c1
        print(json.dumps(report, indent=2))
        ok = fit.quadratic_ok and (batched_fit is None or batched_fit.quadratic_ok)
        return 0 if ok else 1
    print(f"measured one {args.update_size}B update per ring (seed={args.seed}):")
    print(f"{'n':>4} {'messages':>9} {'bytes':>10}  per-phase messages")
    for t in measurements:
        phases = t.phase_report.get("pbft", {})
        detail = " ".join(
            f"{ph}={v['messages']}" for ph, v in sorted(phases.items())
        )
        print(f"{t.n:>4} {t.total_messages:>9} {t.total_bytes:>10}  {detail}")
    print()
    print("fit to b = c1*n^2 + (u + c2)*n + c3:")
    print(f"  c1={fit.c1:.1f}B  c2={fit.c2:.1f}B  c3={fit.c3:.1f}B")
    print(f"  max relative error: {fit.max_rel_error:.2%}")
    n_max = max(t.n for t in measurements)
    share = fit.quadratic_share(n_max, float(args.update_size))
    print(f"  quadratic share at n={n_max}: {share:.1%} of predicted bytes")
    if batched_fit is not None and batched is not None:
        print()
        print(f"batched agreement at {u} updates per round (per-update fit):")
        print(f"{'n':>4} {'messages':>9} {'bytes':>10}  per-update bytes")
        for t in batched:
            print(
                f"{t.n:>4} {t.total_messages:>9} {t.total_bytes:>10}  "
                f"{t.per_update_bytes:>10.0f}"
            )
        print(
            f"  c1={batched_fit.c1:.1f}B  c2={batched_fit.c2:.1f}B  "
            f"c3={batched_fit.c3:.1f}B"
        )
        ratio = batched_fit.c1 / fit.c1 if fit.c1 else float("inf")
        print(
            f"  quadratic-term amortization: c1 {fit.c1:.1f} -> "
            f"{batched_fit.c1:.1f} B/update ({ratio:.1%} of unbatched; "
            f"ideal 1/u = {1 / u:.1%})"
        )
    ok = fit.quadratic_ok and (batched_fit is None or batched_fit.quadratic_ok)
    if ok:
        print("  quadratic term OK (paper: c1 'on the order of 100 bytes')")
        return 0
    print(
        f"  DEVIATION: fit misses tolerance {fit.tolerance:.0%} or c1 <= 0 -- "
        "the measured traffic no longer follows the paper's equation"
    )
    return 1


def _scenario_update_path(system: OceanStoreSystem, seed: int) -> str:
    """One client write, traced end to end: Bloom lookup, PBFT phases,
    dissemination push, and archival encode all under a single root."""
    alice = make_client(system, "alice", seed=seed + 1)
    obj = alice.create_object("traced-object")
    system.settle()
    system.telemetry.reset()  # drop setup noise; trace the update alone
    with system.telemetry.span("scenario.update-path"):
        result = alice.write(obj, b"telemetry scenario payload")
        system.settle()
    return f"write committed: {result.committed} (version {result.new_version})"


def _scenario_read_path(system: OceanStoreSystem, seed: int) -> str:
    """A committed write followed by a traced read (two-tier location)."""
    alice = make_client(system, "alice", seed=seed + 1)
    obj = alice.create_object("traced-object")
    alice.write(obj, b"telemetry scenario payload")
    system.settle()
    system.telemetry.reset()
    with system.telemetry.span("scenario.read-path"):
        data = alice.read(obj)
        system.settle()
    return f"read {len(data)} bytes"


_SCENARIOS = {
    "update-path": _scenario_update_path,
    "read-path": _scenario_read_path,
}


def _print_counters(counters: dict) -> None:
    if counters:
        print("counters:")
        width = max(len(k) for k in counters)
        for name in sorted(counters):
            print(f"  {name:<{width}}  {counters[name]}")


def _print_traffic_table(report: dict) -> None:
    """The network's always-on phase ledger, one row per (subsystem, phase)."""
    rows = {
        f"{sub}/{phase}": cell
        for sub, phases in report.items()
        for phase, cell in phases.items()
    }
    if not rows:
        return
    print("traffic (network phase ledger, whole run):")
    width = max(len(k) for k in rows)
    for name, cell in rows.items():
        print(f"  {name:<{width}}  messages={cell['messages']} bytes={cell['bytes']}")


def cmd_telemetry(args: argparse.Namespace) -> int:
    system = OceanStoreSystem(
        DeploymentConfig(
            seed=args.seed,
            topology=_DEMO_TOPOLOGY,
            telemetry=TelemetryConfig(enabled=True),
        )
    )
    status = _SCENARIOS[args.scenario](system, args.seed)
    if args.json:
        print(status, file=sys.stderr)
        print(json.dumps(system.telemetry.export(spans=True), indent=2))
        return 0
    print(status)
    print()
    print("trace:")
    print(system.telemetry.render_spans(max_depth=args.max_depth))
    print()
    print("operations (simulated ms):")
    print(system.telemetry.slo.render())
    _print_counters(system.telemetry.metrics.export()["counters"])
    _print_traffic_table(system.network.phase_report())
    return 0


def cmd_flightrec(args: argparse.Namespace) -> int:
    if args.chaos is not None:
        # Chaos deployments own their telemetry; the report carries the
        # captured timeline (category/limit filters apply to the
        # instrumented scenarios, which expose the live recorder).
        report = run_scenario(args.chaos, seed=args.seed, capture_flight=True)
        print(
            f"{'PASS' if report.passed else 'FAIL'}  {report.scenario}  "
            f"seed={report.seed}",
            file=sys.stderr,
        )
        print(report.flight_dump)
        if args.export_perfetto is not None:
            Path(args.export_perfetto).write_text(report.perfetto)
            print(
                f"perfetto trace written to {args.export_perfetto}",
                file=sys.stderr,
            )
        return 0 if report.passed else 1
    system = OceanStoreSystem(
        DeploymentConfig(
            seed=args.seed,
            topology=_DEMO_TOPOLOGY,
            telemetry=TelemetryConfig(
                enabled=True,
                flight_capacity=args.capacity,
                flight_kernel=args.kernel,
            ),
        )
    )
    status = _SCENARIOS[args.scenario](system, args.seed)
    recorder = system.telemetry.flight
    assert recorder is not None
    if args.export_perfetto is not None:
        Path(args.export_perfetto).write_text(
            export_telemetry(system.telemetry)
        )
        print(
            f"perfetto trace written to {args.export_perfetto}",
            file=sys.stderr,
        )
    if args.json:
        print(status, file=sys.stderr)
        print(recorder.dump_json(categories=args.category))
        return 0
    print(status, file=sys.stderr)
    print(recorder.render(categories=args.category, limit=args.limit))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.list:
        descriptions = scenario_descriptions()
        width = max(len(name) for name in descriptions)
        for name, description in descriptions.items():
            print(f"  {name:<{width}}  {description}")
        return 0
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    slo_thresholds = _parse_slo_thresholds(args.slo)
    chaos_config = ChaosConfig(
        enabled=True,
        intensity=args.intensity,
        duration_ms=args.duration,
        recovery=not args.no_recovery,
        slo_thresholds=slo_thresholds,
    )
    reports = [
        run_scenario(name, seed=args.seed, chaos=chaos_config)
        for name in names
    ]
    if args.export_dir is not None:
        export_dir = Path(args.export_dir)
        export_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            if report.perfetto:
                target = export_dir / (
                    f"{report.scenario}-{report.seed}.perfetto.json"
                )
                target.write_text(report.perfetto)
                print(f"perfetto trace written to {target}", file=sys.stderr)
    if args.json:
        print(json.dumps([report.to_dict() for report in reports], indent=2))
    else:
        for report in reports:
            print(report.render(include_trace=args.trace))
            print()
        passed = sum(1 for r in reports if r.passed)
        print(f"{passed}/{len(reports)} scenarios passed (seed {args.seed})")
    return 0 if all(r.passed for r in reports) else 1


def _sharded_deployment(
    args: argparse.Namespace, name: str, payload_label: str, **overrides
) -> tuple[OceanStoreSystem, list[int]]:
    """A ``--ring-count`` deployment with one object per shard and
    ``--updates`` writes submitted to each, so every ring has commits to
    show.  Returns the settled system and its stub nodes."""
    ring_count = args.ring_count
    system = OceanStoreSystem(
        DeploymentConfig(
            seed=args.seed,
            ring_count=ring_count,
            topology=TopologyParams(
                transit_nodes=max(8, 4 * ring_count),
                stubs_per_transit=1,
                nodes_per_stub=2,
            ),
            archive_every_commit=False,
            **overrides,
        )
    )
    author = make_principal(
        f"{name}-author", random.Random(args.seed + 7), bits=256
    )
    # One object per shard, found by deterministic name search.
    guid_by_shard = {}
    name_index = 0
    while len(guid_by_shard) < ring_count:
        guid = object_guid(author.public_key, f"{name}-{name_index}")
        name_index += 1
        shard_id = system.rings.shard_of(guid).shard_id
        if shard_id in guid_by_shard:
            continue
        guid_by_shard[shard_id] = guid
        system.create_object(guid)
    system.settle()
    stubs = sorted(
        n for n, d in system.graph.nodes(data=True) if d["kind"] == "stub"
    )
    for shard_id in sorted(guid_by_shard):
        for i in range(args.updates):
            update = make_update(
                author,
                guid_by_shard[shard_id],
                [
                    UpdateBranch(
                        TruePredicate(),
                        (AppendBlock(f"{payload_label}-{shard_id}-u{i}".encode()),),
                    )
                ],
                float(i),
            )
            system.submit_update(stubs[shard_id % len(stubs)], update)
    system.settle()
    return system, stubs


def cmd_rings(args: argparse.Namespace) -> int:
    ring_count = args.ring_count
    system, _ = _sharded_deployment(args, "rings", "shard")
    directory = system.ring_directory
    report = {
        "ring_count": ring_count,
        "sharded": system.rings.sharded,
        "directory": [
            {
                "shard": d.shard_id,
                "epoch": d.epoch,
                "range": d.range.describe(),
                "members": list(d.members),
                "contact": d.contact,
            }
            for d in directory.entries()
        ],
        "directory_stats": {
            "resolves": directory.stats_resolves,
            "mesh_hits": directory.stats_mesh_hits,
            "fallbacks": directory.stats_fallbacks,
        },
        "commits": system.rings.commit_stats(),
    }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"control plane: {ring_count} ring(s), "
          f"{'sharded' if system.rings.sharded else 'single global ring'}")
    print("directory:")
    for entry in report["directory"]:
        print(f"  shard {entry['shard']} epoch {entry['epoch']}  "
              f"{entry['range']}")
        print(f"    members {entry['members']} (contact {entry['contact']})")
    stats = report["directory_stats"]
    print(f"  resolves: {stats['resolves']} "
          f"({stats['mesh_hits']} via mesh, {stats['fallbacks']} fallback)")
    print("per-ring commits:")
    for row in report["commits"]:
        retired = (
            f", retired epochs {row['retired_epochs']}"
            if row["retired_epochs"]
            else ""
        )
        print(f"  shard {row['shard']} epoch {row['epoch']}: "
              f"{row['committed']} committed{retired}")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    thresholds = _parse_slo_thresholds(args.threshold)
    if args.chaos is not None:
        report = run_scenario(
            args.chaos,
            seed=args.seed,
            chaos=ChaosConfig(slo_thresholds=thresholds),
        )
        print(
            f"{'PASS' if report.passed else 'FAIL'}  {report.scenario}  "
            f"seed={report.seed}",
            file=sys.stderr,
        )
        if args.json:
            print(json.dumps(report.slo or {}, indent=2))
            return 0 if report.passed else 1
        if report.slo is None:
            print("no operations recorded")
            return 0 if report.passed else 1
        print("\n".join(summary_table(report.slo)))
        for violation in report.invariants.violations:
            if violation.invariant == "operation-slo":
                print(f"  FAIL  {violation.detail}")
        return 0 if report.passed else 1
    # Built-in workload: one object, N writes, N reads, end to end.
    system = OceanStoreSystem(
        DeploymentConfig(
            seed=args.seed,
            topology=_DEMO_TOPOLOGY,
            telemetry=TelemetryConfig(
                enabled=True, slo_thresholds=thresholds
            ),
        )
    )
    alice = make_client(system, "alice", seed=args.seed + 1)
    obj = alice.create_object("slo-object")
    for i in range(args.writes):
        alice.write(obj, f"slo-payload-{i}".encode())
    for _ in range(args.reads):
        alice.read(obj)
    system.settle()
    recorder = system.telemetry.slo
    assert recorder is not None
    if args.json:
        print(json.dumps(recorder.summary(), indent=2))
    else:
        print(recorder.render())
    return 1 if recorder.check() else 0


def cmd_health(args: argparse.Namespace) -> int:
    system, stubs = _sharded_deployment(
        args, "health", "health", recovery=RecoveryConfig(enabled=args.crash > 0)
    )
    if args.crash > 0:
        ring_nodes = {n for shard in system.rings.shards for n in shard.members}
        victims = [n for n in stubs if n not in ring_nodes][: args.crash]
        for node in victims:
            system.injector.crash(node)
        # Long enough for the failure detector to cross its suspicion
        # threshold, so the snapshot shows the suspects.
        system.settle(10_000.0)
    print(json.dumps(system.health_snapshot(), indent=2))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import merge_chaos_results, parse_seed_spec, sweep_chaos

    seeds = parse_seed_spec(args.seeds)
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    results = sweep_chaos(names, seeds, processes=args.processes)
    merged = merge_chaos_results(results)
    if args.json:
        print(json.dumps(merged, indent=2, sort_keys=True))
    else:
        for r in results:
            status = "ok" if r["passed"] else "FAIL"
            print(
                f"  {r['scenario']:<24} seed {r['seed']:<4} {status}  "
                f"{r['trace_digest'][:16]}"
            )
        print(
            f"{merged['passed']}/{merged['total']} tasks passed "
            f"({args.processes} process(es))"
        )
    return 0 if merged["all_passed"] else 1


_COMMANDS = {
    "demo": cmd_demo,
    "topology": cmd_topology,
    "reliability": cmd_reliability,
    "costmodel": cmd_costmodel,
    "telemetry": cmd_telemetry,
    "flightrec": cmd_flightrec,
    "chaos": cmd_chaos,
    "rings": cmd_rings,
    "slo": cmd_slo,
    "health": cmd_health,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        # the one path for a rejected dial, whichever layer declared it
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
