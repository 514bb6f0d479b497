"""Benchmark entry point.

Driver form (one workload, one process, last stdout line is the result)::

    python3 perf/run.py --workload select_mix --seed 11 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with every probe off;
``--trace 1`` re-runs a sample of the workload's ops under the span recorder
and reports the per-layer metrics.  Without ``--workload`` every workload
runs, each in a fresh subprocess, and a table is printed
(``PYTHONPATH=src python -m perf.run`` works too).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, sys.path[0] is perf/ itself; the package root and the
# library's src/ layout are what must be importable instead.
if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
    sys.path.pop(0)
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
# The numpy kernel tier is the one every environment has; pin it so numbers
# from different machines compare.  Must be set before repro is imported.
os.environ["REPRO_KERNELS"] = "numpy"

DEFAULT_SEED = 11


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, sub-second runs")
    parser.add_argument("--json", dest="json_out", default=None, help="all-workload mode: write results here")
    parser.add_argument("--runs", type=int, default=1, help="all-workload mode: launches per workload")
    return parser


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Run one workload in this process; print its metrics and the result line."""
    try:
        from perf import catalog, harness
        from perf.workloads import WORKLOADS
    except ImportError as error:
        print(f"perf: cannot import the library under test: {error}", file=sys.stderr)
        return 2
    if name not in WORKLOADS:
        print(f"perf: unknown workload {name!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name](seed, smoke=smoke)
    nproc = len(os.sched_getaffinity(0))
    if workload.workers > nproc:
        print(f"perf: {name} needs {workload.workers} workers, only {nproc} CPUs", file=sys.stderr)
        return 2

    if trace:
        # Smoke runs only check names, so they skip the borrowed layers.
        borrow = [WORKLOADS[n](seed, smoke=True) for n in WORKLOADS if n != name and not smoke]
        result = harness.run_traced(workload, seconds, borrow)
        units = {n: u for n, u, _b, _m in catalog.PER_LAYER}
    else:
        result = harness.run_end_to_end(workload, seconds)
        units = {n: u for n, u, _b, _bound in catalog.END_TO_END}
    leaked = harness.repro_segments()
    if leaked:
        print(f"perf: shared-memory segments survived the run: {leaked}", file=sys.stderr)
        return 3

    counts = " ".join(f"{k}={v}" for k, v in result.samples.items())
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)} {counts}")
    for metric in units:
        print(f"{metric:40s} {result.metrics[metric]:16.6f} {units[metric]}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    metric: {"value": result.metrics[metric], "unit": units[metric]}
                    for metric in units
                },
            }
        )
    )
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace, seconds: float) -> int:
    """Each workload in its own subprocess (``--runs`` launches each);
    prints a table of medians and optionally writes every run as JSON."""
    import statistics

    try:
        from perf import catalog, harness
    except ImportError as error:
        print(f"perf: cannot import the library under test: {error}", file=sys.stderr)
        return 2
    document: dict = {"env": harness.env_block(), "seed": args.seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in catalog.WORKLOADS:
        entry = document["workloads"][name] = {"end_to_end": {}, "per_layer": {}, "failed": 0, "attempted": 0}
        for trace in (0, 1) if args.trace else (0,):
            section = entry["per_layer" if trace else "end_to_end"]
            for _ in range(args.runs):
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, capture_output=True, text=True, timeout=180)
                if done.returncode not in (0, 1) or not done.stdout.strip():
                    print(f"{name}: run failed ({done.returncode})\n{done.stderr}", file=sys.stderr)
                    status = status or 2
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if not trace:
                    entry["failed"] += result["failed"]
                    entry["attempted"] += result["attempted"]
                    status = status or (0 if result["correct"] else 1)
                for metric, cell in result["metrics"].items():
                    section.setdefault(metric, {"unit": cell["unit"], "values": []})["values"].append(cell["value"])
        print(f"\n== {name}  ops={entry['attempted']} failed={entry['failed']}")
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry[section].items():
                print(f"{metric:40s} {statistics.median(cell['values']):16.6f} {cell['unit']:6s} n={len(cell['values'])}")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(document, indent=1))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (0.5 if args.smoke else 12.0)
    try:
        if args.workload == "all":
            return run_all(args, seconds)
        return run_one(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    finally:
        # On every path out — a result, an oracle mismatch, an exception —
        # no process this one started may outlive it, not even as an
        # unreaped entry of the process table.
        harness = sys.modules.get("perf.harness")
        if harness is not None and harness.stop_children():
            print("perf: a child process survived the run", file=sys.stderr)
            raise SystemExit(3)


if __name__ == "__main__":
    sys.exit(main())
