"""E8 -- Figure 5: the full path of an update.

(a) the client sends the update to the primary tier and to random
secondary replicas; (b) the secondaries spread it epidemically and pick
a tentative order by timestamp while the primary tier serializes; (c)
the result multicasts down the dissemination tree.

Measured here: epidemic infection speed, how often the tentative
(timestamp) order matches the final (Byzantine) order, and the bytes on a
leaf's link when the tree carries commit notices: a leaf that holds the
body tentatively takes the notice alone, one that does not pulls the
body from its parent.
"""

from __future__ import annotations

import random

import networkx as nx

from conftest import fmt, print_table, record_result
from repro.consistency import (
    SMALL_MESSAGE_BYTES,
    SecondaryTier,
    order_agreement,
    tentative_order,
)
from repro.crypto import make_principal
from repro.data import AppendBlock, TruePredicate, UpdateBranch, make_update
from repro.naming import object_guid
from repro.sim import Kernel, Network


def make_tier(replicas: int, seed: int = 0, latency: float = 30.0):
    kernel = Kernel()
    graph = nx.complete_graph(replicas + 2)
    nx.set_edge_attributes(graph, latency, "latency_ms")
    network = Network(kernel, graph)
    rng = random.Random(seed)
    author = make_principal("author", rng, bits=256)
    guid = object_guid(author.public_key, "fig5")
    tier = SecondaryTier(network, guid, root_contact=0, rng=rng)
    for node in range(1, replicas + 1):
        tier.add_replica(node)
    client = replicas + 1
    return kernel, network, tier, author, guid, client


def make_up(author, guid, payload, ts):
    return make_update(
        author, guid, [UpdateBranch(TruePredicate(), (AppendBlock(payload),))], ts
    )


def test_fig5_epidemic_infection_speed(benchmark):
    """Rounds to full tentative agreement vs tier size (log-ish growth)."""

    def rounds_to_agreement(replicas: int, seed: int) -> int:
        kernel, network, tier, author, guid, client = make_tier(replicas, seed)
        update = make_up(author, guid, b"tentative", 1.0)
        tier.submit_tentative(client, update, fanout=2)
        kernel.run(until=kernel.now + 500.0)
        rounds = 0
        while tier.tentative_agreement() < 1.0 and rounds < 20:
            tier.epidemic_round()
            kernel.run(until=kernel.now + 500.0)
            rounds += 1
        return rounds

    benchmark.pedantic(rounds_to_agreement, args=(10, 0), rounds=1, iterations=1)
    rows = []
    results = {}
    for replicas in (8, 32, 128):
        samples = [rounds_to_agreement(replicas, s) for s in range(5)]
        mean_rounds = sum(samples) / len(samples)
        rows.append([replicas, fmt(mean_rounds, 1), max(samples)])
        results[str(replicas)] = mean_rounds
    print_table(
        "Figure 5b: epidemic rounds to full tentative agreement",
        ["secondary replicas", "mean rounds", "max rounds"],
        rows,
    )
    record_result("fig5_epidemic_rounds", results)
    # Epidemic spread is logarithmic-ish: 16x replicas << 16x rounds.
    assert results["128"] <= results["8"] * 4 + 2
    assert all(v < 20 for v in results.values())


def test_fig5_tentative_order_predicts_final(benchmark):
    """Timestamped tentative order matches the final order when client
    clocks are sane; skew degrades agreement gracefully."""

    def agreement_for_skew(skew_ms: float, seed: int) -> float:
        rng = random.Random(seed)
        author = make_principal("author", rng, bits=256)
        guid = object_guid(author.public_key, "order")
        # True issue order is by index; timestamps are true time + skew.
        updates = []
        for i in range(20):
            ts = i * 10.0 + rng.uniform(-skew_ms, skew_ms)
            updates.append(make_up(author, guid, bytes([i]), ts))
        final = list(updates)  # the serialized (issue) order
        tentative = tentative_order(updates)
        return order_agreement(tentative, final)

    benchmark.pedantic(agreement_for_skew, args=(0.0, 0), rounds=1, iterations=1)
    rows = []
    results = {}
    for skew in (0.0, 5.0, 20.0, 100.0):
        samples = [agreement_for_skew(skew, s) for s in range(10)]
        mean_agreement = sum(samples) / len(samples)
        rows.append([fmt(skew, 0), fmt(mean_agreement, 3)])
        results[str(skew)] = mean_agreement
    print_table(
        "Figure 5: tentative-vs-final order agreement under clock skew",
        ["clock skew (+/- ms)", "pairwise agreement"],
        rows,
    )
    record_result("fig5_order_agreement", results)
    assert results["0.0"] == 1.0
    assert results["5.0"] > 0.95
    assert results["100.0"] > 0.5  # still far better than random
    values = [results[k] for k in ("0.0", "5.0", "20.0", "100.0")]
    assert values == sorted(values, reverse=True)


def leaf_run(holder: bool, payload: bytes, replicas: int = 12, seed: int = 3):
    """Commit one update and return (leaf link bytes, leaf replica, update)."""
    kernel, network, tier, author, guid, client = make_tier(replicas, seed=seed)
    leaf = sorted(tier.replicas)[-1]
    update = make_up(author, guid, payload, 1.0)
    if holder:
        tier.replicas[leaf].add_tentative(update)
    tier.push_committed(0, update)
    kernel.run(until=kernel.now + 5_000.0)
    link_bytes = sum(
        stats.bytes for (a, b), stats in network.link_stats.items() if leaf in (a, b)
    )
    return link_bytes, tier.replicas[leaf], update


def test_fig5_leaf_bytes_holder_vs_non_holder(benchmark):
    """A holder's link carries the notice alone; a non-holder's carries
    the notice, its pull request and the body its parent sends back."""
    benchmark.pedantic(leaf_run, args=(True, b"z" * 20_000), rounds=1, iterations=1)
    holder, _, update = leaf_run(True, b"z" * 20_000)
    non_holder, _, _ = leaf_run(False, b"z" * 20_000)
    body_push = update.size_bytes() + SMALL_MESSAGE_BYTES
    print_table(
        "Figure 5c: bytes on a leaf's link per commit (20 kB update)",
        ["leaf", "link bytes"],
        [["holds the body", holder], ["lacks the body", non_holder],
         ["parent's body push", body_push]],
    )
    record_result(
        "fig5_leaf_bytes",
        {"holder": holder, "non_holder": non_holder, "body_push": body_push},
    )
    assert holder == SMALL_MESSAGE_BYTES
    assert non_holder == body_push + 2 * SMALL_MESSAGE_BYTES


def test_fig5_non_holder_pulls_body_from_parent(benchmark):
    """A leaf without the body pulls it when the notice arrives ('pull
    missing information from parents and primary replicas')."""

    def run() -> bool:
        _, replica, _ = leaf_run(False, b"content", replicas=6, seed=4)
        return replica.committed_through == 0

    assert benchmark.pedantic(run, rounds=1, iterations=1)
