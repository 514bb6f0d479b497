"""One-call helpers to reproduce a figure and print its table."""

from __future__ import annotations

from typing import Callable, Iterable

from repro.bench.harness import FigureResult, format_table, run_figure
from repro.bench.workloads import ALL_FIGURES

__all__ = ["run_and_format", "run_all_figures"]


def run_and_format(
    figure: int,
    scale: float = 0.05,
    repeats: int = 1,
    sweep_values: tuple | None = None,
    progress: Callable[[str], None] | None = None,
) -> tuple[FigureResult, str]:
    """Run one figure's sweep and return (measurements, formatted table)."""
    result = run_figure(
        figure, scale=scale, repeats=repeats, sweep_values=sweep_values, progress=progress
    )
    return result, format_table(result)


def run_all_figures(
    scale: float = 0.05,
    repeats: int = 1,
    figures: Iterable[int] = ALL_FIGURES,
    progress: Callable[[str], None] | None = None,
) -> dict[int, tuple[FigureResult, str]]:
    """Run every requested figure; returns figure number → (result, table)."""
    out: dict[int, tuple[FigureResult, str]] = {}
    for figure in figures:
        out[figure] = run_and_format(figure, scale=scale, repeats=repeats, progress=progress)
    return out
