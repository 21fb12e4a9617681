"""E4 -- Figure 2 + the Status-section claim for probabilistic location.

"A prototype for the probabilistic data location component has been
implemented and verified.  Simulation results show that our algorithm
finds nearby objects with near-optimal efficiency."

We place objects at varying hop distances from querying clients on a
grid/transit-stub topology and measure (a) success rate and (b) route
*stretch* -- hops taken over shortest-path hops -- as a function of the
object's distance and the filter depth D.
"""

from __future__ import annotations

import random

import networkx as nx

from conftest import fmt, print_table, record_result
from repro.routing import ProbabilisticLocator
from repro.sim import Kernel, Network
from repro.util import GUID


def make_world(side: int = 7, depth: int = 3, width: int = 8192):
    kernel = Kernel()
    graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(side, side))
    nx.set_edge_attributes(graph, 10.0, "latency_ms")
    network = Network(kernel, graph)
    locator = ProbabilisticLocator(network, depth=depth, width=width)
    return network, locator


def sweep_distance(depth: int, trials: int = 40, seed: int = 0):
    """Success rate and mean stretch per object distance, for one depth."""
    rng = random.Random(seed)
    network, locator = make_world(depth=depth)
    nodes = sorted(network.nodes())
    by_distance: dict[int, list[tuple[bool, float]]] = {}
    for trial in range(trials):
        guid = GUID.hash_of(f"obj-{depth}-{trial}".encode())
        holder = rng.choice(nodes)
        locator.add_object(holder, guid)
    locator.converge()
    for trial in range(trials):
        guid = GUID.hash_of(f"obj-{depth}-{trial}".encode())
        holder = next(n for n in nodes if guid in locator.objects_at(n))
        client = rng.choice(nodes)
        distance = network.hop_count(client, holder)
        result = locator.query(client, guid)
        if result.found:
            stretch = result.hops / distance if distance else 1.0
            by_distance.setdefault(distance, []).append((True, stretch))
        else:
            by_distance.setdefault(distance, []).append((False, 0.0))
    summary = {}
    for distance in sorted(by_distance):
        outcomes = by_distance[distance]
        found = [s for ok, s in outcomes if ok]
        summary[distance] = {
            "queries": len(outcomes),
            "success": len(found) / len(outcomes),
            "stretch": sum(found) / len(found) if found else None,
        }
    return summary


def test_fig2_nearby_objects_found_near_optimally(benchmark):
    """Within the filter horizon D, queries succeed with stretch ~1."""
    summary = benchmark.pedantic(
        sweep_distance, args=(3,), kwargs={"trials": 60}, rounds=1, iterations=1
    )
    rows = []
    for distance, stats in summary.items():
        rows.append(
            [
                distance,
                stats["queries"],
                fmt(stats["success"], 2),
                fmt(stats["stretch"], 2) if stats["stretch"] else "-",
            ]
        )
    print_table(
        "Figure 2 / Section 5: probabilistic location (depth D=3)",
        ["object distance (hops)", "queries", "success rate", "mean stretch"],
        rows,
    )
    record_result("fig2_distance_sweep", summary)

    near = [d for d in summary if 0 < d <= 3]
    assert near, "sweep produced no nearby placements"
    for distance in near:
        # Near-optimal: high success, low stretch inside the horizon.
        assert summary[distance]["success"] >= 0.9
        assert summary[distance]["stretch"] <= 1.5
    far = [d for d in summary if d > 4]
    if far:
        # Beyond the horizon the filters carry no signal: the miss rate
        # rises and the two-tier design falls back to the global mesh.
        mean_far_success = sum(summary[d]["success"] for d in far) / len(far)
        mean_near_success = sum(summary[d]["success"] for d in near) / len(near)
        assert mean_far_success < mean_near_success


def test_fig2_depth_extends_horizon(benchmark):
    """Deeper attenuated filters find objects farther away."""
    benchmark.pedantic(sweep_distance, args=(2,), rounds=1, iterations=1)
    results = {}
    rows = []
    for depth in (1, 2, 4):
        summary = sweep_distance(depth, trials=50, seed=depth)
        reachable = [
            d for d, s in summary.items() if 0 < d and s["success"] >= 0.5
        ]
        horizon = max(reachable) if reachable else 0
        found_total = sum(
            s["success"] * s["queries"] for s in summary.values()
        ) / sum(s["queries"] for s in summary.values())
        results[depth] = {"horizon": horizon, "overall_success": found_total}
        rows.append([depth, horizon, fmt(found_total, 2)])
    print_table(
        "Ablation: filter depth vs location horizon",
        ["depth D", "effective horizon (hops)", "overall success"],
        rows,
    )
    record_result("fig2_depth_sweep", results)
    assert results[4]["overall_success"] > results[1]["overall_success"]


def test_fig2_storage_is_constant_per_server(benchmark):
    """'fully distributed and uses a constant amount of storage per
    server' -- the advertised filter size is independent of objects."""
    network, locator = make_world(side=5, depth=3, width=2048)
    rng = random.Random(1)
    nodes = sorted(network.nodes())

    def add_and_size():
        for i in range(50):
            locator.add_object(rng.choice(nodes), GUID.hash_of(bytes([i])))
        locator.converge()
        return locator.advertisement(nodes[0]).size_bytes()

    size_after_50 = benchmark.pedantic(add_and_size, rounds=1, iterations=1)
    # 3 levels x 2048 bits = 768 bytes regardless of content.
    assert size_after_50 == 3 * 2048 // 8
    record_result("fig2_constant_storage", {"bytes_per_edge": size_after_50})
