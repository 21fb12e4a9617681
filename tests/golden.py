"""The repo's pinned behaviour: one golden file, one regen command.

``tests/data/golden.json`` holds every whole-system value the suite pins
byte-for-byte, in three sections:

``core_telemetry_on``
    the seed-1234 three-write workload with the flight recorder on --
    flight digest, commit order, version log, primary state, network
    totals and phase ledger.  ``tests/test_rings.py`` rebuilds it with
    ``ring_count=1``: a single ring is byte-identical to the
    pre-sharding tree.
``core_telemetry_off``
    the same workload with telemetry disabled, plus kernel event count
    and final time.  ``tests/test_telemetry.py`` rebuilds it: opt-in
    observability costs the default path nothing.
``chaos_seed0``
    trace digest and oracle verdict of every chaos scenario at seed 0
    (``tests/test_scheduler_differential.py``).

``python tests/golden.py --check`` recomputes all three and diffs them
against the file (exit 1 on any difference); ``--write`` regenerates the
file.  Regenerating is a deliberate act: a PR that does it says which
values moved and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden.json"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def core_observables(telemetry: bool, **config_overrides) -> dict:
    """Deterministic observables of the fixed three-write workload."""
    from repro.core import DeploymentConfig, OceanStoreSystem, make_client
    from repro.core.system import serialize_state
    from repro.sim import TopologyParams
    from repro.telemetry import TelemetryConfig

    system = OceanStoreSystem(
        DeploymentConfig(
            seed=1234,
            topology=TopologyParams(
                transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
            ),
            telemetry=TelemetryConfig(enabled=True, flight_capacity=65_536)
            if telemetry
            else TelemetryConfig(enabled=False),
            **config_overrides,
        )
    )
    client = make_client(system, "fingerprint-author", seed=99)
    obj = client.create_object("fingerprint-object")
    for i in range(3):
        client.write(obj, f"fingerprint-payload-{i}".encode() * 8)
    system.settle()
    primary = system.servers[system.ring_nodes[0]].objects[obj.guid]
    observed = {
        "committed_order": [
            u.update_id.hex() for u in system.ring.committed_order
        ],
        "version_log": [
            f"{entry.update_id.hex()}:{entry.committed}:{entry.resulting_version}"
            for entry in primary.log.history()
        ],
        "state_sha256": hashlib.sha256(
            serialize_state(primary.active)
        ).hexdigest(),
        "messages_total": system.network.stats_total_messages,
        "bytes_total": system.network.stats_total_bytes,
        "phase_stats": {
            f"{sub}/{phase}": [stats.messages, stats.bytes]
            for (sub, phase), stats in sorted(system.network.phase_stats.items())
        },
    }
    if telemetry:
        assert system.telemetry.flight is not None
        observed["flight_digest"] = system.telemetry.flight.digest()
    else:
        # With no flight recorder the kernel's own counters stand in,
        # and one digest over the lot gives a single line to compare.
        observed["events_executed"] = system.kernel.events_executed
        observed["final_time_ms"] = system.kernel.now
        blob = json.dumps(observed, sort_keys=True).encode()
        observed["digest"] = hashlib.sha256(blob).hexdigest()
    return observed


def chaos_seed0() -> dict:
    """Trace digest and oracle verdict of every scenario at seed 0."""
    from repro.chaos import SCENARIOS, run_scenario

    observed = {}
    for name in sorted(SCENARIOS):
        report = run_scenario(name, seed=0)
        observed[name] = {"digest": report.trace_digest, "passed": report.passed}
    return observed


def compute_golden() -> dict:
    return {
        "core_telemetry_on": core_observables(telemetry=True),
        "core_telemetry_off": core_observables(telemetry=False),
        "chaos_seed0": chaos_seed0(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check", action="store_true", help="recompute and diff against the file"
    )
    mode.add_argument(
        "--write", action="store_true", help="recompute and overwrite the file"
    )
    args = parser.parse_args(argv)
    current = compute_golden()
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    committed = load_golden()
    differences = 0
    for section, values in current.items():
        pinned = committed.get(section, {})
        for key in sorted(set(values) | set(pinned)):
            if pinned.get(key) != values.get(key):
                differences += 1
                print(f"{section}.{key}: {pinned.get(key)!r} -> {values.get(key)!r}")
    total = sum(map(len, current.values()))
    print(f"{GOLDEN_PATH.name}: {differences} of {total} values differ")
    return 1 if differences else 0


if __name__ == "__main__":
    # Appended, not prepended: an explicit PYTHONPATH (another tree's
    # src/, say) wins over this checkout's.
    sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
