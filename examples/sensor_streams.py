#!/usr/bin/env python
"""Sensor-data aggregation and dissemination (Section 2).

"OceanStore provides an ideal platform for new streaming applications,
such as sensor data aggregation and dissemination ... a uniform
infrastructure for transporting, filtering, and aggregating the huge
volumes of data that will result."

This example builds a sensor pipeline entirely from OceanStore pieces:

* each sensor appends readings to its own stream object (appends are
  conflict-free, so thousands of writers need no coordination);
* the introspection DSL filters and averages readings at the edge --
  verified, loop-free handlers, so untrusted aggregation nodes can run
  them safely;
* summaries flow up the aggregation hierarchy to a regional view;
* consumers subscribe to committed updates via dissemination trees:
  each tree edge carries a small commit notice, and a subscriber pulls
  from its parent only the bodies it does not already hold.

Run:  python examples/sensor_streams.py
"""

import random

from repro import DeploymentConfig, OceanStoreSystem, make_client
from repro.introspect import (
    Average,
    BinOp,
    Const,
    Event,
    Field,
    Filter,
    HandlerProgram,
    IntrospectionNode,
    MapTo,
    Threshold,
    build_hierarchy,
)
from repro.sim import TopologyParams


def main() -> None:
    system = OceanStoreSystem(
        DeploymentConfig(
            seed=21,
            topology=TopologyParams(
                transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5
            ),
        )
    )
    rng = random.Random(0)

    print("== Sensors appending to per-sensor stream objects ==")
    operator = make_client(system, "grid-operator", seed=1)
    streams = {}
    for sensor_id in range(4):
        handle = operator.create_object(f"sensor/{sensor_id}")
        streams[sensor_id] = handle
    for tick in range(6):
        for sensor_id, handle in streams.items():
            reading = 20.0 + sensor_id + rng.gauss(0, 0.5)
            record = f"t={tick} temp={reading:.2f};".encode()
            assert operator.append(handle, record).committed
    total = sum(len(operator.read(h)) for h in streams.values())
    print(f"   4 sensors x 6 ticks appended; {total} bytes of committed stream data")

    print("\n== Edge filtering with verified handlers (no loops, bounded) ==")
    edge_nodes = [IntrospectionNode(node_id=i) for i in range(5)]
    root = build_hierarchy(edge_nodes, fanout=4)
    for node in edge_nodes:
        node.install_handler(
            HandlerProgram(
                "temp-avg",
                [
                    Filter(BinOp("==", Field("kind"), Const("reading"))),
                    MapTo(Field("temperature")),
                    Average(window=8),
                ],
            )
        )
        node.install_handler(
            HandlerProgram(
                "overheat-alarm",
                [
                    Filter(BinOp("==", Field("kind"), Const("reading"))),
                    MapTo(Field("temperature")),
                    Threshold(minimum=30.0),
                ],
            )
        )
    from repro.introspect import CompiledHandler

    alarm_handler = CompiledHandler(
        HandlerProgram(
            "overheat",
            [
                Filter(BinOp("==", Field("kind"), Const("reading"))),
                MapTo(Field("temperature")),
                Threshold(minimum=30.0),
            ],
        )
    )
    alarms = 0
    for t in range(40):
        for node in edge_nodes[1:]:
            temp = rng.gauss(24.0, 4.0)
            event = Event(
                kind="reading",
                node=node.node_id,
                time_ms=float(t),
                attributes={"temperature": temp},
            )
            node.observe(event)
            if alarm_handler(event) is not None:
                alarms += 1
    print(f"   edge averages computed on 160 readings; {alarms} overheat alarms")

    print("\n== Summaries aggregate up the hierarchy ==")
    for node in edge_nodes[1:]:
        node.forward_summaries(now_ms=40.0)
    regional = [
        (key, f"{value:.1f}")
        for key, value in root.database.items(40.0)
        if key.endswith("temp-avg") and isinstance(value, float)
    ]
    print(f"   regional view at the root: {regional}")

    print("\n== Dissemination to consumers (commit notices) ==")
    feed = operator.create_object("regional-feed")
    operator.write(feed, b"region-A averages: " + str(regional).encode())
    tier = system.tiers[feed.guid]
    # A late subscriber joins the tree after the first commit.
    late = [
        n for n in sorted(system.network.nodes())
        if n not in tier.replicas and n not in system.ring_nodes
    ][0]
    replica = tier.add_replica(late)
    operator.append(feed, b" | update 2")
    system.settle()
    pulls = system.network.phase_stats[("dissemination", "pull")]
    print(f"   the next notice made the late subscriber pull what it lacked: "
          f"caught up through seq {replica.committed_through}")
    print(f"   pulls so far, every tier of the deployment: {pulls.messages} messages, "
          f"{pulls.bytes} bytes")

    print("\n== Done ==")
    print(f"   network bytes total: {system.network.stats_total_bytes}")


if __name__ == "__main__":
    main()
