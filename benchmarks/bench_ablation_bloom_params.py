"""A1 -- Ablation of the attenuated-Bloom-filter parameters (Section 4.3.2).

The design fixes a depth-D array of width-w filters per directed edge.
This sweep quantifies the trade-offs behind those choices:

* depth buys location horizon but costs advertisement bandwidth
  (linear in D) and staleness (one refresh round per level);
* width buys false-positive rate; too narrow and queries chase ghosts.
"""

from __future__ import annotations

import random

import networkx as nx

from conftest import fmt, print_table, record_result
from repro.routing import ProbabilisticLocator
from repro.sim import Kernel, Network
from repro.util import GUID


def build(depth: int, width: int, side: int = 6, objects: int = 80, seed: int = 0):
    kernel = Kernel()
    graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(side, side))
    nx.set_edge_attributes(graph, 10.0, "latency_ms")
    network = Network(kernel, graph)
    locator = ProbabilisticLocator(network, depth=depth, width=width)
    rng = random.Random(seed)
    nodes = sorted(network.nodes())
    holders = {}
    for i in range(objects):
        guid = GUID.hash_of(f"ab-{depth}-{width}-{i}".encode())
        holder = rng.choice(nodes)
        locator.add_object(holder, guid)
        holders[guid] = holder
    locator.converge()
    return network, locator, holders, rng


def query_stats(network, locator, holders, rng, queries: int = 120):
    nodes = sorted(network.nodes())
    success = 0
    wasted_hops = 0
    for guid, holder in list(holders.items())[:queries]:
        client = rng.choice(nodes)
        result = locator.query(client, guid)
        optimal = network.hop_count(client, holder)
        if result.found:
            success += 1
            wasted_hops += result.hops - optimal if result.hops > optimal else 0
        else:
            wasted_hops += result.hops  # chased ghosts, found nothing
    return success / min(queries, len(holders)), wasted_hops


def test_ablation_depth_tradeoff(benchmark):
    """Depth: horizon and success vs advertisement bytes."""
    benchmark.pedantic(build, args=(2, 2048), rounds=1, iterations=1)
    rows = []
    results = {}
    for depth in (1, 2, 3, 5):
        network, locator, holders, rng = build(depth, 4096, seed=depth)
        success, wasted = query_stats(network, locator, holders, rng)
        ad_bytes = locator.stats_refresh_bytes
        rows.append(
            [depth, fmt(success, 2), wasted, f"{ad_bytes // 1024} KiB"]
        )
        results[str(depth)] = {
            "success": success,
            "wasted_hops": wasted,
            "refresh_bytes": ad_bytes,
        }
    print_table(
        "Ablation A1: attenuated filter depth",
        ["depth D", "success rate", "wasted hops", "refresh traffic"],
        rows,
    )
    record_result("ablation_bloom_depth", results)
    assert results["5"]["success"] > results["1"]["success"]
    assert results["5"]["refresh_bytes"] > results["1"]["refresh_bytes"]


def test_ablation_width_tradeoff(benchmark):
    """Width: narrow filters saturate and mislead queries."""
    benchmark.pedantic(build, args=(3, 512), rounds=1, iterations=1)
    rows = []
    results = {}
    for width in (64, 256, 4096):
        network, locator, holders, rng = build(
            3, width, objects=300, seed=width
        )
        success, wasted = query_stats(network, locator, holders, rng)
        fill = locator.advertisement(0).levels[-1].fill_ratio()
        rows.append([width, fmt(success, 2), wasted, fmt(fill, 2)])
        results[str(width)] = {
            "success": success,
            "wasted_hops": wasted,
            "deep_level_fill": fill,
        }
    print_table(
        "Ablation A1: filter width (bits per level, 300 objects)",
        ["width", "success rate", "wasted hops", "deepest-level fill"],
        rows,
    )
    record_result("ablation_bloom_width", results)
    # Narrow filters saturate (high fill ratio -> false positives ->
    # queries chase ghosts through the network).
    assert results["64"]["deep_level_fill"] > results["4096"]["deep_level_fill"]
    assert results["64"]["wasted_hops"] > results["4096"]["wasted_hops"]
