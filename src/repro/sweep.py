"""Seed-parallel chaos sweeps (opt-in multiprocessing).

A sweep runs the same scenario across many master seeds.  Every
task is independent -- one seed, one fresh deployment, one report -- so
the work shards trivially across worker processes.  Determinism is
preserved per task, not per sweep: a task's trace digest is a function
of ``(scenario, seed)`` alone, computed inside a single process, so the
digest for ``(pbft-delay, seed=7)`` is byte-identical whether the sweep
ran inline, under 2 workers, or under 16.  Only the *interleaving* of
worker stdout differs; merged results are ordered by task index, never
by completion time.

``processes <= 1`` short-circuits to a plain in-process loop with no
multiprocessing machinery at all -- that mode is the reference for the
byte-identical guarantee and what CI's digest gates run.

Workers use the ``spawn`` start method: forking a live simulation parent
could leak kernel/network state into children, and spawn behaves the
same on every platform.  Worker functions live at module scope so they
pickle by qualified name.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Iterable, Sequence

from repro.core.config import ChaosConfig
from repro.util import ConfigError


# ---------------------------------------------------------------------------
# Task workers (module-level: spawn pickles them by name)
# ---------------------------------------------------------------------------


def _chaos_task(task: tuple[str, int, ChaosConfig | None]) -> dict[str, Any]:
    """Run one (scenario, seed) pair; return a compact, picklable report."""
    from repro.chaos.scenarios import run_scenario

    name, seed, chaos = task
    report = run_scenario(name, seed=seed, chaos=chaos)
    return {
        "scenario": report.scenario,
        "seed": report.seed,
        "passed": report.passed,
        "trace_digest": report.trace_digest,
        "summary": report.summary,
        "violations": sorted(report.invariants.violated_names()),
    }


# ---------------------------------------------------------------------------
# Sweep drivers
# ---------------------------------------------------------------------------


def _run_tasks(worker, tasks: Sequence[tuple], processes: int) -> list[dict]:
    """Map ``worker`` over ``tasks``, inline or across spawn workers.

    ``Pool.map`` returns results in task order regardless of which
    worker finished first, so merged output is deterministic for a given
    task list even under parallelism.
    """
    if processes <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(processes, len(tasks))) as pool:
        return pool.map(worker, tasks)


def sweep_chaos(
    scenarios: Iterable[str],
    seeds: Iterable[int],
    processes: int = 1,
    chaos: ChaosConfig | None = None,
) -> list[dict[str, Any]]:
    """Run every (scenario, seed) pair; results ordered scenario-major."""
    tasks = [
        (name, seed, chaos) for name in scenarios for seed in seeds
    ]
    return _run_tasks(_chaos_task, tasks, processes)


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def merge_chaos_results(results: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Fold per-task chaos reports into one oracle verdict.

    ``digests`` maps ``"<scenario>:<seed>"`` to the trace digest, so a
    sweep's merged output can be diffed against a single-process run of
    the same task list to prove the multiprocessing path changed
    nothing.
    """
    failed = [r for r in results if not r["passed"]]
    return {
        "total": len(results),
        "passed": len(results) - len(failed),
        "failed": [
            {
                "scenario": r["scenario"],
                "seed": r["seed"],
                "summary": r["summary"],
                "violations": r["violations"],
            }
            for r in failed
        ],
        "digests": {
            f"{r['scenario']}:{r['seed']}": r["trace_digest"] for r in results
        },
        "all_passed": not failed,
    }


def parse_seed_spec(spec: str) -> list[int]:
    """Parse ``"0-7"`` / ``"0,3,11"`` / ``"5"`` into a seed list."""
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        # a leading minus is a negative seed, not a range
        bounds = part.split("-", 1) if "-" in part[1:] else (part, part)
        try:
            lo, hi = int(bounds[0]), int(bounds[1])
        except ValueError:
            raise ConfigError(f"seed spec {part!r} is not a seed or a lo-hi range") from None
        if hi < lo:
            raise ConfigError(f"descending seed range {part!r}")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ConfigError(f"no seeds in spec {spec!r}")
    return seeds
