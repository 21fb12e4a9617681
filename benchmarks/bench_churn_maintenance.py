"""E12 (supplementary) -- Section 4.3.3: maintenance-free operation
under churn.

"The practical implication of this work is that the OceanStore
infrastructure as a whole automatically adapts to the presence or
absence of particular servers without human intervention, greatly
reducing the cost of management."

We subject the location mesh to continuous churn (nodes crashing and
coming back) while the maintenance a recovery-on deployment runs is on
-- heartbeats with a second chance evicting the dead and republishing
the paths through them, restores re-inserting the returned, the refresh
sweep repairing pointers -- and measure location availability with and
without it, and what one refresh sweep costs when nothing changed.
"""

from __future__ import annotations

import random
import time

from conftest import (
    fmt,
    linked,
    maintenance_stack,
    print_table,
    record_result,
    run_until,
)
from repro.recovery import RoutingRepairer
from repro.routing import PlaxtonMesh, SaltedRouter
from repro.sim import Kernel, Network, TopologyParams, build_transit_stub_topology
from repro.util import GUID


def churn_run(maintain: bool, cycles: int = 6, seed: int = 0) -> float:
    """Alternate crash/recover churn cycles; return final availability."""
    rng = random.Random(seed)
    kernel = Kernel()
    params = TopologyParams(transit_nodes=5, stubs_per_transit=3, nodes_per_stub=5)
    graph = build_transit_stub_topology(params, rng)
    network = Network(kernel, graph)
    mesh = PlaxtonMesh(network, rng)
    all_nodes = sorted(network.nodes())
    mesh.populate(all_nodes)
    router = SaltedRouter(mesh, salts=1)
    observer = all_nodes[0]  # the heartbeat observer is never a victim
    if maintain:
        detector, repairer = maintenance_stack(
            kernel, network, mesh, router, observer, seed
        )

    replicas: dict[GUID, int] = {}
    for i in range(30):
        guid = GUID.hash_of(f"churn-{i}".encode())
        holder = rng.choice(all_nodes)
        router.publish(holder, guid)
        if maintain:
            repairer.register(holder, guid)
        replicas[guid] = holder

    for cycle in range(cycles):
        # A batch of nodes dies (never the replica holders themselves:
        # we measure *location* availability, not data loss).
        candidates = [
            n for n in all_nodes
            if n != observer and n not in replicas.values() and not network.is_down(n)
        ]
        victims = rng.sample(candidates, min(4, len(candidates)))
        for v in victims:
            network.set_down(v)
        if maintain:
            # second chance, then eviction and republish; then the sweep
            run_until(kernel, lambda: detector.suspected >= set(victims))
            repairer.refresh()
        # Some earlier victims come back and (if maintaining) rejoin.
        revived = set()
        for node in all_nodes:
            if network.is_down(node) and rng.random() < 0.3:
                network.set_down(node, False)
                revived.add(node)
        if maintain:
            run_until(kernel, lambda: not detector.suspected & revived)

    live = [n for n in all_nodes if not network.is_down(n)]
    found = 0
    checked = 0
    for guid, holder in replicas.items():
        client = rng.choice([n for n in live if n != holder])
        checked += 1
        if router.locate(client, guid).found:
            found += 1
    return found / checked if checked else 0.0


def test_churn_with_maintenance_stays_available(benchmark):
    """The maintenance loop keeps location availability high under churn."""
    benchmark.pedantic(churn_run, args=(True, 2), rounds=1, iterations=1)
    rows = []
    results = {}
    for maintain in (False, True):
        samples = [churn_run(maintain, seed=s) for s in range(4)]
        availability = sum(samples) / len(samples)
        label = "with maintenance" if maintain else "no maintenance"
        rows.append([label, fmt(availability, 3)])
        results[label] = availability
    print_table(
        "Section 4.3.3: location availability after 6 churn cycles",
        ["mode", "availability"],
        rows,
    )
    record_result("churn_maintenance", results)
    assert results["with maintenance"] >= results["no maintenance"]
    assert results["with maintenance"] > 0.9


def test_rejoined_nodes_are_routable(benchmark):
    """Nodes that crash, are evicted and come back serve as roots again."""

    def run() -> bool:
        rng = random.Random(9)
        kernel = Kernel()
        params = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4)
        graph = build_transit_stub_topology(params, rng)
        network = Network(kernel, graph)
        mesh = PlaxtonMesh(network, rng)
        nodes = sorted(network.nodes())
        mesh.populate(nodes)
        router = SaltedRouter(mesh, salts=1)
        detector, _ = maintenance_stack(kernel, network, mesh, router, nodes[0], 9)
        victim = nodes[7]
        network.set_down(victim)
        run_until(kernel, lambda: victim in detector.suspected)
        assert not linked(mesh, victim)
        network.set_down(victim, False)
        run_until(kernel, lambda: victim not in detector.suspected)
        assert linked(mesh, victim)
        trace = mesh.route_to_root(nodes[0], mesh.nodes[victim].node_id)
        return trace.path[-1] == victim

    assert benchmark.pedantic(run, rounds=1, iterations=1)
    record_result("churn_rejoin", {"routable_after_rejoin": True})


#: oceanbench's heartbeat_soak deployment: 152 servers
LARGE = TopologyParams(transit_nodes=8, stubs_per_transit=3, nodes_per_stub=6)


def refresh_sweeps(sweeps: int, moved: bool, seed: int = 0) -> tuple[int, float]:
    """Run ``sweeps`` refreshes over 256 publications on LARGE; return
    (deposits per sweep, seconds per sweep).  ``moved`` bumps the routing
    epoch before each sweep (a liveness change that moves no route), so
    every sweep scrubs and walks; otherwise each deposits in place."""
    rng = random.Random(seed)
    kernel = Kernel()
    network = Network(kernel, build_transit_stub_topology(LARGE, rng))
    mesh = PlaxtonMesh(network, rng)
    nodes = sorted(network.nodes())
    mesh.populate(nodes)
    router = SaltedRouter(mesh)
    repairer = RoutingRepairer(mesh, router, network)
    for i in range(64):
        guid = GUID.hash_of(f"refresh-{i}".encode())
        for holder in rng.sample(nodes, 4):
            router.publish(holder, guid)
            repairer.register(holder, guid)
    before = mesh.stats_publish_messages
    elapsed = 0.0
    for _ in range(sweeps):
        if moved:
            network.set_down(nodes[0], False)  # already up: the epoch moves
        started = time.perf_counter()
        repairer.refresh()
        elapsed += time.perf_counter() - started
    return (mesh.stats_publish_messages - before) // sweeps, elapsed / sweeps


def test_refresh_at_a_standing_epoch_deposits_in_place(benchmark):
    """A sweep that finds nothing changed only re-deposits: no scrub, no walk."""
    benchmark.pedantic(refresh_sweeps, args=(2, False), rounds=1, iterations=1)
    rows = []
    results = {}
    for moved in (False, True):
        deposits, seconds = refresh_sweeps(20, moved)
        label = "epoch moved" if moved else "standing epoch"
        per_deposit_us = seconds / deposits * 1e6
        rows.append([label, deposits, fmt(per_deposit_us, 3)])
        results[label] = {
            "deposits_per_sweep": deposits,
            "us_per_deposit": per_deposit_us,
        }
    print_table(
        "Section 4.3.3: one pointer refresh sweep, 256 publications on 152 servers",
        ["sweep", "deposits/sweep", "us/deposit"],
        rows,
    )
    record_result("churn_refresh_sweep", results)
    standing, moved = results["standing epoch"], results["epoch moved"]
    assert standing["deposits_per_sweep"] == moved["deposits_per_sweep"] > 0
