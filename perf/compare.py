"""Compare two result files written by ``perf/run.py --json`` (A = base, B = change).

One row per (workload, end-to-end metric): both medians, the ratio B/A with
its base, the committed bound and a verdict —

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: the run-to-run spread (quartile distance / median) of
  either side is wider than the bound, so the runs cannot tell;
* ``better``: B's median is better by more than both sides' spread;
* ``same``: anything else.

Per-layer deltas follow, largest relative change first.  Exits 1 when any
row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf import catalog


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(median) if median else 0.0


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, B/A)`` for one metric."""
    a, b = statistics.median(base), statistics.median(change)
    ratio = b / a if a else float("inf")
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    noise = max(spread(base), spread(change))
    if worse_by > bound:
        return "worse", ratio
    if noise > bound:
        return "unresolved", ratio
    if -worse_by > noise and worse_by < 0:
        return "better", ratio
    return "same", ratio


def compare(base: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines and whether any end-to-end metric got worse."""
    lines = [
        f"base:   {base['env'].get('git_commit', '?')}  seed {base.get('seed')}",
        f"change: {change['env'].get('git_commit', '?')}  seed {change.get('seed')}",
        "",
        f"{'workload':16s}{'metric':20s}{'A median':>14s}{'B median':>14s}{'B/A':>8s}{'bound':>7s}  verdict",
    ]
    any_worse = False
    layer_rows = []
    for workload in catalog.WORKLOADS:
        a_run, b_run = base["workloads"].get(workload), change["workloads"].get(workload)
        if not a_run or not b_run:
            continue
        for name, unit, better, bound in catalog.END_TO_END:
            a, b = a_run["end_to_end"].get(name), b_run["end_to_end"].get(name)
            if not a or not b:
                continue
            word, ratio = verdict(a["values"], b["values"], better, bound)
            any_worse |= word == "worse"
            lines.append(
                f"{workload:16s}{name:20s}{statistics.median(a['values']):14.4f}"
                f"{statistics.median(b['values']):14.4f}{ratio:8.3f}{bound:7.2f}  {word}"
                f"  ({unit}, base A, n={len(a['values'])}/{len(b['values'])})"
            )
        if a_run["failed"] or b_run["failed"]:
            lines.append(f"{workload:16s}failed ops: A {a_run['failed']}  B {b_run['failed']}")
            any_worse |= b_run["failed"] > a_run["failed"]
        for name, cell in b_run["per_layer"].items():
            before = a_run["per_layer"].get(name)
            if not before:
                continue
            a, b = statistics.median(before["values"]), statistics.median(cell["values"])
            if a or b:
                delta = (b - a) / a if a else float("inf")
                layer_rows.append((abs(delta), workload, name, a, b, delta, cell["unit"]))
    if layer_rows:
        lines += ["", "per-layer deltas (B vs base A), largest first:"]
        for _size, workload, name, a, b, delta, unit in sorted(layer_rows, reverse=True):
            lines.append(f"{workload:16s}{name:40s}{a:14.4f}{b:14.4f}{delta:+9.1%}  {unit}")
    return lines, any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 perf/compare.py A.json B.json", file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv)
    lines, any_worse = compare(base, change)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
