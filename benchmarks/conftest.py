"""Shared benchmark-harness helpers.

Each bench module regenerates one table or figure from the paper: it
computes the sweep, prints the same rows/series the paper reports, and
records the numbers as JSON under ``benchmarks/results/`` so
EXPERIMENTS.md can cite them.  pytest-benchmark wraps a representative
unit of work from each experiment for timing.

Results are written in one envelope shape: the sweep data lands under
``series``, with schema version and seed alongside.  The envelope holds
nothing that changes when the code does not, so running the benches
leaves the tracked result files unchanged unless a number moved.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
from typing import TYPE_CHECKING, Any, Callable

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

if TYPE_CHECKING:  # imported where used, so oceanbench collects repro itself
    from repro.recovery import FailureDetector, RoutingRepairer
    from repro.routing import PlaxtonMesh, SaltedRouter
    from repro.sim import Kernel, Network

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record_result(experiment: str, data: Any) -> None:
    """Persist an experiment's series for EXPERIMENTS.md.

    ``data`` becomes the envelope's ``series``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    envelope = {
        "schema_version": 2,
        "name": experiment,
        "meta": {"seed": 0, "fast": False},
        "series": data,
    }
    path = RESULTS_DIR / f"{experiment}.json"
    with open(path, "w") as f:
        json.dump(envelope, f, indent=2, sort_keys=True, default=str)


def print_table(title: str, headers: list[str], rows: list[list[Any]]) -> None:
    """Render a fixed-width table to stdout (visible with pytest -s)."""
    widths = [
        max(len(str(h)), *(len(str(row[i])) for row in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n== {title} ==")
    print("  " + " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rows:
        print("  " + " | ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"


def maintenance_stack(
    kernel: Kernel,
    network: Network,
    mesh: PlaxtonMesh,
    router: SaltedRouter,
    observer: int,
    seed: int,
) -> tuple[FailureDetector, RoutingRepairer]:
    """Section 4.3.3 maintenance as a recovery-on deployment wires it.

    A heartbeat :class:`FailureDetector` at ``observer`` (its threshold is
    the second chance) drives a :class:`RoutingRepairer`: a suspected
    node is evicted and the paths through it republished; a restored one
    is re-inserted.  Started; the caller runs the kernel.
    """
    from repro.recovery import FailureDetector, RecoveryConfig, RoutingRepairer

    config = RecoveryConfig()
    detector = FailureDetector(
        kernel,
        network,
        observer=observer,
        monitored=sorted(mesh.nodes),
        rng=random.Random(seed),
        interval_ms=config.heartbeat_interval_ms,
        timeout_ms=config.heartbeat_timeout_ms,
        threshold=config.suspicion_threshold,
    )
    repairer = RoutingRepairer(mesh, router, network)
    detector.subscribe(on_suspect=repairer.on_suspect, on_restore=repairer.on_restore)
    detector.start()
    return detector, repairer


def run_until(
    kernel: Kernel, done: Callable[[], bool], limit_ms: float = 60_000.0
) -> None:
    """Run the kernel in 100 ms steps until ``done()`` holds."""
    deadline = kernel.now + limit_ms
    while not done():
        assert kernel.now < deadline, "condition not reached in time"
        kernel.run(until=kernel.now + 100.0)


def linked(mesh: PlaxtonMesh, node: int) -> bool:
    """True if some other node's neighbor table names ``node``."""
    return any(
        node in other.links() for nid, other in mesh.nodes.items() if nid != node
    )
