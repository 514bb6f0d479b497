"""Command-line entry point: ``python -m repro.bench``.

Examples
--------
Reproduce Figure 26 at the default (scaled-down) size::

    python -m repro.bench --figure 26

Reproduce every figure quickly and write the tables to a file::

    python -m repro.bench --all --scale 0.02 --output results.txt
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.figures import run_and_format, run_all_figures
from repro.bench.harness import FigureResult
from repro.bench.plotting import format_ascii_chart
from repro.bench.workloads import ALL_FIGURES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the evaluation figures of 'Spatial Queries with Two kNN Predicates'.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--figure",
        type=int,
        choices=ALL_FIGURES,
        help="reproduce a single figure",
    )
    target.add_argument("--all", action="store_true", help="reproduce every figure")
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="dataset-size scale factor relative to the paper (default: 0.05)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="repetitions per measurement (default: 1)"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-measurement progress lines"
    )
    parser.add_argument(
        "--output", type=str, default=None, help="also write the tables to this file"
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        dest="json_path",
        help="write the raw measurements (and median speedups) to this JSON file",
    )
    parser.add_argument(
        "--chart", action="store_true", help="append an ASCII chart below each table"
    )
    return parser


def _result_record(result: FigureResult) -> dict:
    """JSON-serializable record of one figure's measurements."""
    workload = result.workload
    record: dict = {
        "figure": workload.figure,
        "title": workload.title,
        "sweep_name": workload.sweep_name,
        "series": list(workload.series),
        "measurements": [
            {
                "sweep_value": p.sweep_value,
                "series": p.series,
                "seconds": p.seconds,
                "result_size": p.result_size,
            }
            for p in result.points
        ],
    }
    measured = {p.sweep_value for p in result.points}
    if len(workload.series) == 2 and measured == set(workload.sweep_values):
        baseline, optimized = workload.series
        record["baseline"] = baseline
        record["optimized"] = optimized
        record["speedups"] = result.speedups(baseline, optimized)
        record["median_speedup"] = result.median_speedup(baseline, optimized)
    return record


def main(argv: list[str] | None = None) -> int:
    """Run the requested figure(s); returns a process exit code."""
    args = _build_parser().parse_args(argv)
    progress = None if args.quiet else (lambda line: print(line, file=sys.stderr))

    tables: list[str] = []
    records: list[dict] = []
    if args.all:
        for figure, (result, table) in run_all_figures(
            scale=args.scale, repeats=args.repeats, progress=progress
        ).items():
            if args.chart:
                table = table + "\n\n" + format_ascii_chart(result)
            tables.append(table)
            records.append(_result_record(result))
    else:
        result, table = run_and_format(
            args.figure, scale=args.scale, repeats=args.repeats, progress=progress
        )
        if args.chart:
            table = table + "\n\n" + format_ascii_chart(result)
        tables.append(table)
        records.append(_result_record(result))

    output = "\n\n".join(tables)
    print(output)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
    if args.json_path:
        payload = {"scale": args.scale, "repeats": args.repeats, "figures": records}
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
