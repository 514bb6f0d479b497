"""Per-figure workload definitions.

Each of Figures 19–26 becomes a :class:`FigureWorkload`: the swept parameter,
its values, the data series (algorithms) being compared, and a builder that —
given one sweep value — prepares the datasets/indexes and returns one zero-
argument callable per series.  The harness times only those callables, so data
generation and index construction are excluded from the measurements, exactly
as the paper measures query execution time.

The ``scale`` argument shrinks the paper's dataset sizes (32k–2.56M points)
to something a pure-Python implementation can sweep in minutes; the *relative*
behaviour of the algorithms is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

from repro.core.select_join.baseline import select_join_baseline
from repro.core.select_join.block_marking import select_join_block_marking
from repro.core.select_join.counting import select_join_counting
from repro.core.two_joins.chained import chained_joins_nested, chained_joins_qep2
from repro.core.two_joins.unchained import (
    unchained_joins_baseline,
    unchained_joins_block_marking,
)
from repro.core.two_selects.baseline import two_knn_selects_baseline
from repro.core.two_selects.optimized import two_knn_selects_optimized
from repro.datagen.berlinmod import berlinmod_snapshot
from repro.datagen.clustered import clustered_points
from repro.datagen.uniform import uniform_points
from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex

__all__ = [
    "FigureWorkload",
    "figure_workload",
    "ALL_FIGURES",
]

#: The figures reproduced by the harness.
ALL_FIGURES: tuple[int, ...] = (19, 20, 21, 22, 23, 24, 25, 26)

#: Spatial extent shared by every benchmark dataset (same as the generators').
EXTENT = Rect(0.0, 0.0, 40_000.0, 40_000.0)

#: Grid resolution used for benchmark indexes.
CELLS_PER_SIDE = 24

#: Focal point used by selection predicates (the "shopping center").
FOCAL = Point(20_000.0, 20_000.0)

SeriesBuilders = Mapping[str, Callable[[], object]]


@dataclass(frozen=True)
class FigureWorkload:
    """A declarative description of one figure's experiment."""

    figure: int
    title: str
    sweep_name: str
    sweep_values: tuple
    series: tuple[str, ...]
    builder: Callable[[object], SeriesBuilders] = field(repr=False)

    def build(self, sweep_value: object) -> SeriesBuilders:
        """Prepare data for ``sweep_value`` and return one callable per series."""
        runners = self.builder(sweep_value)
        missing = set(self.series) - set(runners)
        if missing:
            raise InvalidParameterError(f"builder did not produce series: {missing}")
        return runners


def _scaled(base: int, scale: float, minimum: int = 200) -> int:
    """Scale a paper-sized dataset cardinality down to benchmark size."""
    return max(minimum, int(base * scale))


def _grid(points, cells: int = CELLS_PER_SIDE) -> GridIndex:
    return GridIndex(points, cells_per_side=cells, bounds=EXTENT)


# ----------------------------------------------------------------------
# Figures 19-21: kNN-select on the inner relation of a kNN-join
# ----------------------------------------------------------------------
def _fig19(scale: float) -> FigureWorkload:
    """Block-Marking vs the conceptually correct QEP, growing outer relation."""
    inner_size = _scaled(64_000, scale)
    sweep = tuple(_scaled(n, scale) for n in (32_000, 64_000, 128_000, 256_000))
    k_join, k_select = 5, 10

    def build(outer_size: int) -> SeriesBuilders:
        outer = berlinmod_snapshot(n=outer_size, seed=1900)
        inner = berlinmod_snapshot(n=inner_size, seed=1901, start_pid=10_000_000)
        outer_index = _grid(outer)
        inner_index = _grid(inner)
        return {
            "conceptual-qep": lambda: select_join_baseline(
                outer, inner_index, FOCAL, k_join, k_select
            ),
            "block-marking": lambda: select_join_block_marking(
                outer_index, inner_index, FOCAL, k_join, k_select
            ),
        }

    return FigureWorkload(
        figure=19,
        title="kNN-select on inner of kNN-join: Block-Marking vs conceptual QEP",
        sweep_name="outer relation size",
        sweep_values=sweep,
        series=("conceptual-qep", "block-marking"),
        builder=build,
    )


def _fig20(scale: float) -> FigureWorkload:
    """Counting vs Block-Marking when the outer relation is sparse."""
    outer_size = _scaled(2_000, scale, minimum=60)
    sweep = tuple(_scaled(n, scale) for n in (32_000, 64_000, 128_000, 256_000))
    k_join, k_select = 5, 10

    def build(inner_size: int) -> SeriesBuilders:
        outer = berlinmod_snapshot(n=outer_size, seed=2000)
        inner = berlinmod_snapshot(n=inner_size, seed=2001, start_pid=10_000_000)
        outer_index = _grid(outer)
        inner_index = _grid(inner)
        return {
            "counting": lambda: select_join_counting(
                outer, inner_index, FOCAL, k_join, k_select
            ),
            "block-marking": lambda: select_join_block_marking(
                outer_index, inner_index, FOCAL, k_join, k_select
            ),
        }

    return FigureWorkload(
        figure=20,
        title="Counting vs Block-Marking, sparse outer relation",
        sweep_name="inner relation size",
        sweep_values=sweep,
        series=("counting", "block-marking"),
        builder=build,
    )


def _fig21(scale: float) -> FigureWorkload:
    """Counting vs Block-Marking when the outer relation is dense."""
    outer_size = _scaled(256_000, scale)
    sweep = tuple(_scaled(n, scale) for n in (32_000, 64_000, 128_000, 256_000))
    k_join, k_select = 5, 10

    def build(inner_size: int) -> SeriesBuilders:
        outer = berlinmod_snapshot(n=outer_size, seed=2100)
        inner = berlinmod_snapshot(n=inner_size, seed=2101, start_pid=10_000_000)
        outer_index = _grid(outer)
        inner_index = _grid(inner)
        return {
            "counting": lambda: select_join_counting(
                outer, inner_index, FOCAL, k_join, k_select
            ),
            "block-marking": lambda: select_join_block_marking(
                outer_index, inner_index, FOCAL, k_join, k_select
            ),
        }

    return FigureWorkload(
        figure=21,
        title="Counting vs Block-Marking, dense outer relation",
        sweep_name="inner relation size",
        sweep_values=sweep,
        series=("counting", "block-marking"),
        builder=build,
    )


# ----------------------------------------------------------------------
# Figures 22-23: unchained kNN-joins
# ----------------------------------------------------------------------
def _fig22(scale: float) -> FigureWorkload:
    """Procedure 4 vs the conceptually correct ∩B plan; A clustered, vary |C|."""
    a_size = _scaled(16_000, scale)
    b_size = _scaled(64_000, scale)
    sweep = tuple(_scaled(n, scale) for n in (32_000, 64_000, 128_000, 256_000))
    k_ab = k_cb = 3

    def build(c_size: int) -> SeriesBuilders:
        a = clustered_points(
            2, a_size // 2, EXTENT, cluster_radius=1_500.0, seed=2200, start_pid=0
        )
        b = berlinmod_snapshot(n=b_size, seed=2201, start_pid=10_000_000)
        c = berlinmod_snapshot(n=c_size, seed=2202, start_pid=20_000_000)
        ib = _grid(b)
        ic = _grid(c)
        return {
            "conceptual-qep": lambda: unchained_joins_baseline(a, c, ib, k_ab, k_cb),
            "block-marking": lambda: unchained_joins_block_marking(a, ic, ib, k_ab, k_cb),
        }

    return FigureWorkload(
        figure=22,
        title="Unchained joins: Block-Marking vs conceptual QEP (A clustered)",
        sweep_name="size of C",
        sweep_values=sweep,
        series=("conceptual-qep", "block-marking"),
        builder=build,
    )


def _fig23(scale: float) -> FigureWorkload:
    """Join-order effect: A and C clustered, vary the cluster-count difference."""
    points_per_cluster = _scaled(4_000, scale, minimum=100)
    b_size = _scaled(64_000, scale)
    base_clusters_c = 2
    sweep = tuple(range(1, 11))
    k_ab = k_cb = 3

    def build(cluster_difference: int) -> SeriesBuilders:
        clusters_c = base_clusters_c
        clusters_a = base_clusters_c + cluster_difference
        a = clustered_points(
            clusters_a, points_per_cluster, EXTENT, cluster_radius=1_200.0, seed=2300
        )
        c = clustered_points(
            clusters_c,
            points_per_cluster,
            EXTENT,
            cluster_radius=1_200.0,
            seed=2301,
            start_pid=20_000_000,
        )
        b = berlinmod_snapshot(n=b_size, seed=2302, start_pid=10_000_000)
        ia = _grid(a)
        ib = _grid(b)
        ic = _grid(c)
        return {
            # Start with the join whose outer relation is A (more clusters).
            "start-with-A-join": lambda: unchained_joins_block_marking(
                a, ic, ib, k_ab, k_cb
            ),
            # Start with the join whose outer relation is C (fewer clusters).
            "start-with-C-join": lambda: unchained_joins_block_marking(
                c, ia, ib, k_cb, k_ab
            ),
        }

    return FigureWorkload(
        figure=23,
        title="Unchained joins: effect of join order (A and C clustered)",
        sweep_name="clusters(A) - clusters(C)",
        sweep_values=sweep,
        series=("start-with-A-join", "start-with-C-join"),
        builder=build,
    )


# ----------------------------------------------------------------------
# Figures 24-25: chained kNN-joins
# ----------------------------------------------------------------------
def _fig24(scale: float) -> FigureWorkload:
    """Nested Join with vs without the B→C neighborhood cache."""
    sweep = tuple(_scaled(n, scale) for n in (32_000, 64_000, 128_000, 256_000))
    k_ab = k_bc = 3

    def build(size: int) -> SeriesBuilders:
        a = berlinmod_snapshot(n=max(200, size // 4), seed=2400)
        b = berlinmod_snapshot(n=size, seed=2401, start_pid=10_000_000)
        c = berlinmod_snapshot(n=size, seed=2402, start_pid=20_000_000)
        ib = _grid(b)
        ic = _grid(c)
        return {
            "nested-join-no-cache": lambda: chained_joins_nested(
                a, ib, ic, k_ab, k_bc, cache=False
            ),
            "nested-join-cached": lambda: chained_joins_nested(
                a, ib, ic, k_ab, k_bc, cache=True
            ),
        }

    return FigureWorkload(
        figure=24,
        title="Chained joins: Nested Join with and without neighborhood caching",
        sweep_name="dataset size (|B| = |C|)",
        sweep_values=sweep,
        series=("nested-join-no-cache", "nested-join-cached"),
        builder=build,
    )


def _fig25(scale: float) -> FigureWorkload:
    """Nested Join (cached) vs Join Intersection, varying the clusters in B."""
    a_size = _scaled(8_000, scale)
    b_size = _scaled(64_000, scale)
    c_size = _scaled(64_000, scale)
    sweep = (2, 4, 6, 8, 10, 12, 14, 16)
    k_ab = k_bc = 3

    def build(num_clusters_b: int) -> SeriesBuilders:
        a = berlinmod_snapshot(n=a_size, seed=2500)
        b = clustered_points(
            num_clusters_b,
            max(50, b_size // num_clusters_b),
            EXTENT,
            cluster_radius=1_200.0,
            seed=2501,
            start_pid=10_000_000,
        )
        c = berlinmod_snapshot(n=c_size, seed=2502, start_pid=20_000_000)
        ib = _grid(b)
        ic = _grid(c)
        return {
            "join-intersection": lambda: chained_joins_qep2(a, b, ib, ic, k_ab, k_bc),
            "nested-join-cached": lambda: chained_joins_nested(
                a, ib, ic, k_ab, k_bc, cache=True
            ),
        }

    return FigureWorkload(
        figure=25,
        title="Chained joins: Nested Join (cached) vs Join Intersection (clustered B)",
        sweep_name="number of clusters in B",
        sweep_values=sweep,
        series=("join-intersection", "nested-join-cached"),
        builder=build,
    )


# ----------------------------------------------------------------------
# Figure 26: two kNN-selects
# ----------------------------------------------------------------------
def _fig26(scale: float) -> FigureWorkload:
    """2-kNN-select vs the conceptually correct plan; k1 = 10, k2 grows."""
    size = _scaled(256_000, scale)
    k1 = 10
    sweep = tuple(range(0, 9))  # log2(k2/k1)
    f1 = Point(19_000.0, 21_000.0)
    f2 = Point(21_000.0, 19_000.0)

    def build(log_ratio: int) -> SeriesBuilders:
        k2 = k1 * (2**log_ratio)
        points = berlinmod_snapshot(n=size, seed=2600)
        index = _grid(points)
        # Partials, so a caller can read the arguments back and pass ``stats=``.
        return {
            "conceptual-qep": partial(two_knn_selects_baseline, index, f1, k1, f2, k2),
            "2-knn-select": partial(two_knn_selects_optimized, index, f1, k1, f2, k2),
        }

    return FigureWorkload(
        figure=26,
        title="Two kNN-selects: 2-kNN-select vs conceptual QEP (k1 = 10)",
        sweep_name="log2(k2 / k1)",
        sweep_values=sweep,
        series=("conceptual-qep", "2-knn-select"),
        builder=build,
    )


_FACTORIES: dict[int, Callable[[float], FigureWorkload]] = {
    19: _fig19,
    20: _fig20,
    21: _fig21,
    22: _fig22,
    23: _fig23,
    24: _fig24,
    25: _fig25,
    26: _fig26,
}


def figure_workload(figure: int, scale: float = 0.05) -> FigureWorkload:
    """Return the workload reproducing the given paper figure.

    Parameters
    ----------
    figure:
        Paper figure number (19–26).
    scale:
        Dataset-size scale factor relative to the paper (1.0 = paper sizes).
        The default 0.05 keeps a full sweep to a few minutes of pure Python.
    """
    if figure not in _FACTORIES:
        raise InvalidParameterError(
            f"unknown figure {figure}; supported figures: {sorted(_FACTORIES)}"
        )
    if scale <= 0:
        raise InvalidParameterError("scale must be positive")
    return _FACTORIES[figure](scale)
