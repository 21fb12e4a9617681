"""Measured update traffic: the empirical side of the Figure 6 model.

:mod:`repro.consistency.costmodel` states what one update *should* cost:
b = c1*n^2 + (u + c2)*n + c3.  This module drives updates through a
bare simulated PBFT ring and reports what they *did* cost, split by
protocol phase via :attr:`repro.sim.network.Network.phase_stats`.  The
``repro costmodel --fit`` report and ``tests/test_pbft_batching.py`` fit
these measurements back to the equation across ring sizes, so a change
that silently inflates the quadratic term shows up as a coefficient
shift rather than a vibe.

With ``updates > 1`` and ``batch_size > 1`` the same harness measures
*batched* agreement: u updates share one pre-prepare/prepare/commit
round, so the per-update quadratic term amortizes to roughly
c1/u -- the Castro-Liskov batching win ``repro costmodel --fit
--updates-per-round`` verifies empirically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

from repro.consistency.pbft import BatchingConfig, InnerRing
from repro.crypto import make_principal
from repro.data import AppendBlock, TruePredicate, UpdateBranch, make_update
from repro.naming import object_guid
from repro.sim.kernel import Kernel
from repro.sim.network import Network


@dataclass(frozen=True, slots=True)
class TrafficMeasurement:
    """Wire traffic of one workload through an n-replica primary tier."""

    m: int
    n: int
    update_size: int
    #: actual on-the-wire size of the signed update (>= update_size);
    #: the mean when the workload carries several updates
    update_bytes: int
    total_messages: int
    total_bytes: int
    #: ``{subsystem: {phase: {"messages": m, "bytes": b}}}``
    phase_report: dict
    #: how many updates the workload submitted
    updates: int = 1
    #: updates per agreement round the ring was configured for
    batch_size: int = 1

    @property
    def per_update_bytes(self) -> float:
        return self.total_bytes / self.updates

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "update_size": self.update_size,
            "update_bytes": self.update_bytes,
            "total_messages": self.total_messages,
            "total_bytes": self.total_bytes,
            "updates": self.updates,
            "batch_size": self.batch_size,
            "per_update_bytes": self.per_update_bytes,
            "phase_report": self.phase_report,
        }


def measure_update_traffic(
    m: int,
    update_size: int,
    seed: int = 0,
    updates: int = 1,
    batch_size: int = 1,
) -> TrafficMeasurement:
    """Run ``updates`` updates through a bare PBFT ring, counting bytes.

    The topology is a complete graph at uniform 50 ms latency -- the
    point is byte counts, not routing.  Everything derives from ``seed``,
    so measurements are reproducible run to run.  The default single
    update through an unbatched ring reproduces the classic Figure 6
    measurement byte for byte.
    """
    n = 3 * m + 1
    kernel = Kernel()
    graph = nx.complete_graph(n + 1)
    nx.set_edge_attributes(graph, 50.0, "latency_ms")
    network = Network(kernel, graph)
    rng = random.Random(seed)
    principals = [make_principal(f"r{i}", rng, bits=256) for i in range(n)]
    ring = InnerRing(
        kernel,
        network,
        list(range(n)),
        principals,
        m=m,
        # every request reaches the leader in the same instant, so only
        # a partial final batch ever waits out the hold
        batching=BatchingConfig(size=batch_size, delay_ms=20.0),
    )
    author = make_principal("author", rng, bits=256)
    total_update_bytes = 0
    for i in range(updates):
        if i == 0:
            payload = b"x" * update_size
        else:
            # Distinct bodies of (near-)identical wire size, so the mean
            # update_bytes stays representative of update_size.
            prefix = i.to_bytes(4, "big")
            payload = prefix + b"x" * max(0, update_size - len(prefix))
        update = make_update(
            author,
            object_guid(author.public_key, "costmodel"),
            [UpdateBranch(TruePredicate(), (AppendBlock(payload),))],
            float(i + 1),
        )
        total_update_bytes += update.size_bytes()
        ring.submit(n, update)
    kernel.run(until=120_000.0)
    return TrafficMeasurement(
        m=m,
        n=n,
        update_size=update_size,
        update_bytes=total_update_bytes // updates,
        total_messages=network.stats_total_messages,
        total_bytes=network.stats_total_bytes,
        phase_report=network.phase_report(),
        updates=updates,
        batch_size=batch_size,
    )


def measure_sweep(
    ms: tuple[int, ...] = (2, 3, 4),
    update_size: int = 10_000,
    seed: int = 0,
    updates: int = 1,
    batch_size: int = 1,
) -> list[TrafficMeasurement]:
    """One measurement per fault bound -- the fit needs >= 3 ring sizes."""
    return [
        measure_update_traffic(
            m, update_size, seed=seed, updates=updates, batch_size=batch_size
        )
        for m in ms
    ]


__all__ = ["TrafficMeasurement", "measure_update_traffic", "measure_sweep"]
