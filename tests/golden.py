"""The repo's pinned behaviour: one golden file, one regen command.

``tests/data/golden.json`` holds every whole-system value the suite pins
byte-for-byte, in six sections:

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
``chaos_variants``
    the same two values of every scenario at seed 0 under two
    non-default chaos configs: batched agreement (four updates per
    round, 200 ms batch delay, two rounds in flight) and recovery forced
    off, where the recovery scenarios fail their oracle on purpose.
``pbft_recovery``
    commit order, per-replica views and executed slots, phase ledger,
    traffic totals and kernel event count of each slot-recovery case of
    :func:`recovery_run`, at one update per slot and at four
    (``tests/test_pbft_edge_cases.py``).
``flight_dumps``
    sha256 of the rendered flight dump of :func:`flight_dump`'s seed-3
    write-and-read workload (``tests/test_flightrec.py``).

``python tests/golden.py --check`` recomputes all six and diffs them
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
from typing import NamedTuple

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


def chaos_seed0(chaos=None, suffix: str = "") -> dict:
    """Trace digest and oracle verdict of every scenario at seed 0."""
    from repro.chaos import SCENARIOS, run_scenario

    observed = {}
    for name in sorted(SCENARIOS):
        report = run_scenario(name, seed=0, chaos=chaos)
        observed[name + suffix] = {
            "digest": report.trace_digest,
            "passed": report.passed,
        }
    return observed


def chaos_variants() -> dict:
    """:func:`chaos_seed0` under batching and with recovery forced off."""
    from repro.consistency import BatchingConfig
    from repro.core import ChaosConfig

    batched = BatchingConfig(size=4, delay_ms=200.0, pipeline_depth=2)
    return {
        **chaos_seed0(ChaosConfig(batching=batched), "/batched"),
        **chaos_seed0(ChaosConfig(recovery=False), "/no-recovery"),
    }


#: the slot-recovery paths of a view change, each run with one update per
#: slot and with four (``tests/test_pbft_edge_cases.py``)
RECOVERY_CASES = (
    "deferred_pre_prepare",
    "body_fetch",
    "reservation_filled_by_request",
    "noop_padding",
)
RECOVERY_BATCH_SIZES = (1, 4)
#: the client's node; replicas are nodes 0-3 and replica 0 leads view 0
RECOVERY_CLIENT = 4


class Send(NamedTuple):
    """One network send of a recovery run."""

    time_ms: float
    src: int
    dst: int
    phase: str | None
    size_bytes: int
    payload: object


def recovery_run(case: str, batch_size: int):
    """Drive one slot-recovery case to quiescence.

    A 4-replica ring and one client sit on a complete graph with 40 ms
    links; every case submits full slots of ``batch_size`` updates, so a
    slot holds one update at size 1 and a batch of four at size 4:

    ``deferred_pre_prepare``
        the client cannot reach replica 3, which holds two slots'
        pre-prepares until a retry after healing brings the bodies;
    ``body_fetch``
        the client cannot reach replica 1 and the leader falls silent at
        t = 100 ms; replica 1 leads the next view, reserves the slot it
        never saw bodies for, and fetches them from its peers;
    ``reservation_filled_by_request``
        the same, but the client retries at t = 3 050 ms and the retry
        reaches the new leader before the fetched bodies do;
    ``noop_padding``
        update A reaches only the leader, a slot of B updates reaches
        everyone, and the leader falls silent: the next leader keeps B's
        slot and pads A's with a no-op.  A client retry of A commits it
        last.

    Returns ``(kernel, network, ring, submitted, sends)``: ``submitted``
    lists every update once, in submission order; ``sends`` logs every
    network send as a :class:`Send`.
    """
    import random

    import networkx as nx

    from repro.consistency import BatchingConfig, FaultMode, InnerRing
    from repro.crypto import make_principal
    from repro.data import AppendBlock, TruePredicate, UpdateBranch, make_update
    from repro.naming import object_guid
    from repro.sim import Kernel, Network

    kernel = Kernel()
    graph = nx.complete_graph(RECOVERY_CLIENT + 1)
    nx.set_edge_attributes(graph, 40.0, "latency_ms")
    network = Network(kernel, graph)
    rng = random.Random(0)
    principals = [make_principal(f"r{i}", rng, bits=256) for i in range(4)]
    ring = InnerRing(
        kernel,
        network,
        list(range(4)),
        principals,
        m=1,
        batching=BatchingConfig(size=batch_size),
    )
    sends: list[Send] = []
    send = network.send

    def logged_send(src, dst, payload, size_bytes, phase=None, subsystem=None):
        sends.append(Send(kernel.now, src, dst, phase, size_bytes, payload))
        send(src, dst, payload, size_bytes, phase=phase, subsystem=subsystem)

    network.send = logged_send
    author = make_principal("recovery-author", random.Random(70), bits=256)
    guid = object_guid(author.public_key, "recovery")
    pool = [
        make_update(
            author,
            guid,
            [UpdateBranch(TruePredicate(), (AppendBlock(b"u%d" % i),))],
            float(i + 1),
        )
        for i in range(2 * batch_size + 1)
    ]

    def submit(batch: list) -> None:
        for update in batch:
            ring.submit(RECOVERY_CLIENT, update)

    def heal_and_submit(batch: list) -> None:
        network.heal_partitions()
        submit(batch)

    def silence_leader() -> None:
        ring.set_fault(0, FaultMode.SILENT)

    if case == "deferred_pre_prepare":
        submitted = pool[: 2 * batch_size]
        network.add_asymmetric_partition({RECOVERY_CLIENT}, {3})
        submit(submitted)
        kernel.call_at(2_000.0, lambda: heal_and_submit(submitted))
    elif case in ("body_fetch", "reservation_filled_by_request"):
        submitted = pool[:batch_size]
        network.add_asymmetric_partition({RECOVERY_CLIENT}, {1})
        submit(submitted)
        kernel.call_at(100.0, silence_leader)
        if case == "reservation_filled_by_request":
            # Replica 1 enters view 1 at ~3 080 ms and its peers' bodies
            # land at ~3 160 ms; this retry lands in between.
            kernel.call_at(3_050.0, lambda: heal_and_submit(submitted))
    elif case == "noop_padding":
        lone, slot = pool[:1], pool[1 : 1 + batch_size]
        submitted = slot + lone
        network.add_asymmetric_partition({RECOVERY_CLIENT}, {1, 2, 3})
        submit(lone)
        kernel.call_at(200.0, lambda: heal_and_submit(slot))
        kernel.call_at(300.0, silence_leader)
        kernel.call_at(10_000.0, lambda: submit(lone))
    else:
        raise ValueError(f"unknown recovery case {case!r}")
    kernel.run(until=60_000.0)
    return kernel, network, ring, submitted, sends


def recovery_observables(kernel, network, ring) -> dict:
    """The pinned outcome of one recovery run (no flight digest)."""
    return {
        "committed_order": [u.update_id.hex() for u in ring.committed_order],
        "replicas": [
            {
                "view": replica.view,
                "executed_by_seq": {
                    str(seq): digest.hex()
                    for seq, digest in sorted(replica.executed_by_seq.items())
                },
            }
            for replica in ring.replicas
        ],
        "phase_stats": {
            f"{sub}/{phase}": [stats.messages, stats.bytes]
            for (sub, phase), stats in sorted(network.phase_stats.items())
        },
        "messages_total": network.stats_total_messages,
        "bytes_total": network.stats_total_bytes,
        "events_executed": kernel.events_executed,
    }


def pbft_recovery() -> dict:
    observed = {}
    for case in RECOVERY_CASES:
        for size in RECOVERY_BATCH_SIZES:
            kernel, network, ring, _, _ = recovery_run(case, size)
            observed[f"{case}/size{size}"] = recovery_observables(
                kernel, network, ring
            )
    return observed


def flight_dump() -> str:
    """The rendered flight dump of one write and one read at seed 3."""
    from repro.core import DeploymentConfig, OceanStoreSystem, make_client
    from repro.sim import TopologyParams
    from repro.telemetry import TelemetryConfig

    system = OceanStoreSystem(
        DeploymentConfig(
            seed=3,
            topology=TopologyParams(
                transit_nodes=4, stubs_per_transit=1, nodes_per_stub=2
            ),
            archive_every_commit=False,
            telemetry=TelemetryConfig(enabled=True),
        )
    )
    client = make_client(system, "lazy-hash-test", seed=4)
    obj = client.create_object("hash-parity-object")
    client.write(obj, b"parity-payload" * 8)
    client.read(obj)
    system.settle(5_000.0)
    return system.telemetry.flight.render()


def flight_dumps() -> dict:
    dump = flight_dump().encode()
    return {"write_and_read_seed3": hashlib.sha256(dump).hexdigest()}


def compute_golden() -> dict:
    return {
        "core_telemetry_on": core_observables(telemetry=True),
        "core_telemetry_off": core_observables(telemetry=False),
        "chaos_seed0": chaos_seed0(),
        "chaos_variants": chaos_variants(),
        "pbft_recovery": pbft_recovery(),
        "flight_dumps": flight_dumps(),
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
