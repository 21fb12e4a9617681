"""E10 -- Section 4.3.3 "Achieving Fault Tolerance" and
"Maintenance-Free Operation".

Claims reproduced:

* salted replicated roots remove the single point of failure: location
  availability under node kills is far higher with several salts;
* routing survives corrupt/dead links via redundant neighbors;
* online insertion keeps the mesh routable, and pointer repair
  (republish) restores location after permanent departures;
* heartbeat beacons with a second chance evict dead nodes automatically.

The last two run the maintenance a recovery-on deployment runs: a
heartbeat failure detector driving the routing repairer.
"""

from __future__ import annotations

import random

from conftest import (
    fmt,
    linked,
    maintenance_stack,
    print_table,
    record_result,
    run_until,
)
from repro.routing import PlaxtonMesh, SaltedRouter
from repro.sim import Kernel, Network, TopologyParams, build_transit_stub_topology
from repro.util import GUID


def make_world(seed: int = 0):
    rng = random.Random(seed)
    kernel = Kernel()
    params = TopologyParams(transit_nodes=6, stubs_per_transit=3, nodes_per_stub=6)
    graph = build_transit_stub_topology(params, rng)
    network = Network(kernel, graph)
    mesh = PlaxtonMesh(network, rng)
    mesh.populate(sorted(network.nodes()))
    return kernel, network, mesh, rng


def availability_under_kills(
    salts: int, kill_fraction: float, seed: int, objects: int = 25
) -> float:
    _, network, mesh, rng = make_world(seed)
    router = SaltedRouter(mesh, salts=salts)
    nodes = sorted(mesh.nodes)
    placements = {}
    for i in range(objects):
        guid = GUID.hash_of(f"ft-{salts}-{i}".encode())
        replica = rng.choice(nodes)
        router.publish(replica, guid)
        placements[guid] = replica
    victims = rng.sample(nodes, int(len(nodes) * kill_fraction))
    for v in victims:
        network.set_down(v)
    found = 0
    total = 0
    for guid, replica in placements.items():
        if network.is_down(replica):
            continue  # the data itself is gone; not a location failure
        candidates = [n for n in nodes if not network.is_down(n) and n != replica]
        client = rng.choice(candidates)
        total += 1
        if router.locate(client, guid).found:
            found += 1
    return found / total if total else 1.0


def test_sec433_salted_roots_availability(benchmark):
    """Location availability vs kill fraction, 1 salt vs 3 salts."""
    benchmark.pedantic(
        availability_under_kills, args=(1, 0.2, 0), kwargs={"objects": 10},
        rounds=1, iterations=1,
    )
    rows = []
    results = {}
    for kill in (0.1, 0.25, 0.4):
        for salts in (1, 3):
            samples = [
                availability_under_kills(salts, kill, seed) for seed in range(4)
            ]
            availability = sum(samples) / len(samples)
            rows.append([fmt(kill, 2), salts, fmt(availability, 3)])
            results[f"kill={kill},salts={salts}"] = availability
    print_table(
        "Section 4.3.3: location availability under node kills",
        ["kill fraction", "salts", "availability"],
        rows,
    )
    record_result("sec433_salted_availability", results)
    for kill in ("0.1", "0.25", "0.4"):
        assert (
            results[f"kill={kill},salts=3"] >= results[f"kill={kill},salts=1"]
        )
    assert results["kill=0.25,salts=3"] > 0.9


def test_sec433_insertion_keeps_mesh_consistent(benchmark):
    """Nodes inserted online are routable and roots match a full rebuild."""

    def run() -> bool:
        rng = random.Random(42)
        kernel = Kernel()
        params = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5)
        graph = build_transit_stub_topology(params, rng)
        network = Network(kernel, graph)
        mesh = PlaxtonMesh(network, rng)
        nodes = sorted(network.nodes())
        mesh.populate(nodes[: len(nodes) // 2])
        for node in nodes[len(nodes) // 2 :]:
            mesh.insert_server(node)
        guids = [GUID.hash_of(f"ins-{i}".encode()) for i in range(30)]
        incremental = [mesh.root_of(g) for g in guids]
        mesh.build_tables()
        rebuilt = [mesh.root_of(g) for g in guids]
        return incremental == rebuilt

    assert benchmark.pedantic(run, rounds=1, iterations=1)
    record_result("sec433_insertion", {"roots_match_rebuild": True})


def removal_availability(seed: int) -> float:
    """Crash 15% of the nodes for good (never a replica, never the
    observer); once the detector suspects them all, locate every object."""
    kernel, network, mesh, rng = make_world(seed)
    nodes = sorted(mesh.nodes)
    observer = nodes[0]
    router = SaltedRouter(mesh, salts=1)
    detector, repairer = maintenance_stack(
        kernel, network, mesh, router, observer, seed
    )
    placements = {}
    for i in range(20):
        guid = GUID.hash_of(f"rm-{i}".encode())
        replica = rng.choice(nodes)
        router.publish(replica, guid)
        repairer.register(replica, guid)
        placements[guid] = replica
    removable = [n for n in nodes if n != observer and n not in placements.values()]
    victims = rng.sample(removable, int(len(nodes) * 0.15))
    for victim in victims:
        network.set_down(victim)
    run_until(kernel, lambda: detector.suspected >= set(victims))
    live = [n for n in nodes if not network.is_down(n)]
    found = 0
    for guid, replica in placements.items():
        client = rng.choice([n for n in live if n != replica])
        if router.locate(client, guid).found:
            found += 1
    return found / len(placements)


def test_sec433_removal_repairs_pointers(benchmark):
    """Permanent departures trigger republish; location state survives."""
    benchmark.pedantic(removal_availability, args=(5,), rounds=1, iterations=1)
    samples = [removal_availability(seed) for seed in range(5, 9)]
    availability = sum(samples) / len(samples)
    print(f"\n  location availability after 15% permanent removal + repair: "
          f"{availability:.0%} (seeds 5-8)")
    record_result("sec433_removal_repair", {"availability": availability})
    assert availability == 1.0


def test_sec433_beacons_evict_dead_nodes(benchmark):
    """Heartbeats + second chance: crashed nodes are unlinked from the
    mesh without human intervention ('maintenance-free')."""

    def run() -> tuple[int, int]:
        kernel, network, mesh, rng = make_world(seed=6)
        nodes = sorted(mesh.nodes)
        router = SaltedRouter(mesh, salts=1)
        detector, _ = maintenance_stack(kernel, network, mesh, router, nodes[0], 6)
        victims = rng.sample(nodes[1:], 5)
        for v in victims:
            network.set_down(v)

        def missed(rounds):
            return lambda: all(detector.suspicion.get(v, 0) >= rounds for v in victims)

        run_until(kernel, missed(1))  # first miss: second chance
        after_first = sum(1 for v in victims if linked(mesh, v))
        run_until(kernel, missed(2))  # second miss: eviction
        after_second = sum(1 for v in victims if linked(mesh, v))
        return after_first, after_second

    after_first, after_second = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n  victims still linked after 1 heartbeat round: {after_first}/5; "
          f"after 2: {after_second}/5")
    record_result(
        "sec433_beacons", {"after_first": after_first, "after_second": after_second}
    )
    assert after_first == 5  # second chance honored
    assert after_second == 0  # then evicted
