"""Shared fixtures/helpers for the per-figure pytest-benchmark suites.

Each benchmark module reproduces one figure of the paper's evaluation at a
single representative sweep point and a reduced dataset scale, so that the
whole ``pytest benchmarks/ --benchmark-only`` run finishes in minutes.  The
full parameter sweeps (all x-axis points, larger data) are produced by
``python -m repro.bench --all``.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import figure_workload

#: Dataset-size scale factor relative to the paper, shared by all benchmarks.
BENCH_SCALE = 0.02


def build_figure_runners(figure: int, sweep_index: int = -1, scale: float = BENCH_SCALE):
    """Build the series runners of ``figure`` at one sweep point.

    ``sweep_index`` selects which x-axis point to benchmark (default: the
    largest / last one, where the paper's effects are most pronounced).
    """
    workload = figure_workload(figure, scale=scale)
    sweep_value = workload.sweep_values[sweep_index]
    return workload, sweep_value, workload.build(sweep_value)


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Expose the common scale so individual modules can report it."""
    return BENCH_SCALE
