"""Compare two oceanbench result files, workload by workload.

    python3 benchmarks/oceanbench/compare.py A.json B.json

For every workload and end-to-end metric it prints A's value (the base),
B's value, the ratio B/A, the metric's bound, and a verdict:

``ok``          B is no worse than A by more than the bound;
``worse``       B is worse than A by more than the bound;
``unresolved``  the repetitions inside A or B spread wider than the bound,
                so the difference cannot be told from noise.

Failed operations are compared as a share of those attempted; any increase
is ``worse``.  The exit code is non-zero if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys


def repetition_spread(result: dict, metric: str) -> float:
    """(max - min) / median over a result's raw repetitions; 0 if exact."""
    raw = result["raw"].get(metric)
    if not raw:
        return 0.0
    ordered = sorted(raw)
    return (ordered[-1] - ordered[0]) / ordered[len(ordered) // 2]


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':<16}{'metric':<30}{'A (base)':>14}{'B':>14}{'B/A':>9}{'bound':>8}  verdict"
    ]
    any_worse = False
    for workload, a_modes in a["workloads"].items():
        if workload not in b["workloads"]:
            lines.append(f"{workload:<16}missing from B")
            any_worse = True
            continue
        ra, rb = a_modes["end_to_end"], b["workloads"][workload]["end_to_end"]
        for metric, bound in a["bounds"].items():
            va, vb = ra["metrics"][metric]["value"], rb["metrics"][metric]["value"]
            ratio = vb / va
            lower_is_better = a["better"][metric] == "lower"
            beyond = ratio > 1 + bound if lower_is_better else ratio < 1 - bound
            spread = max(repetition_spread(ra, metric), repetition_spread(rb, metric))
            verdict = "unresolved" if spread > bound else "worse" if beyond else "ok"
            any_worse |= verdict == "worse"
            lines.append(
                f"{workload:<16}{metric:<30}{va:>14.6g}{vb:>14.6g}{ratio:>9.4f}{bound:>8.3f}  {verdict}"
            )
        share_a, share_b = ra["failed"] / ra["attempted"], rb["failed"] / rb["attempted"]
        verdict = "worse" if share_b > share_a or not rb["correct"] else "ok"
        any_worse |= verdict == "worse"
        lines.append(
            f"{workload:<16}{'failed / attempted':<30}{share_a:>14.6g}{share_b:>14.6g}{'':>9}{'any':>8}  {verdict}"
        )
    return lines, any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as f:
            documents.append(json.load(f))
    a, b = documents
    for label, doc in zip("AB", documents):
        p = doc["provenance"]
        print(
            f"{label}: {p['git_revision'][:12]} seed={p['seed']} seconds={p['seconds']:g} "
            f"python={p['python']} nproc={p['nproc']} calib={p['host.calib_loops_per_s']:.3g} loops/s"
        )
    if (a["provenance"]["seed"], a["provenance"]["seconds"]) != (
        b["provenance"]["seed"],
        b["provenance"]["seconds"],
    ):
        print("note: seeds or --seconds differ, so simulated-clock metrics are not expected to match")
    lines, any_worse = compare(a, b)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
