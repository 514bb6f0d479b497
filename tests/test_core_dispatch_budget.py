"""Kernel-dispatch budget of the batched join phases (instead of a timing gate).

A join whose outer points sit in a handful of tight clusters costs a handful
of kernel dispatches, however many points each cluster holds: ``get_knn_batch``
ranks all the focals that share a block set with one ``knn_head`` call, and
every post-filter is one array operation over the whole batch.  A per-point
loop costs at least three dispatches *per point* (two block-distance kernels
and a ranking), so tripling the outer relation inside the same blocks would
add hundreds.  The counts are deterministic; no clock is read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.select_join.counting import select_join_counting
from repro.core.select_join.range_inner import range_inner_join_block_marking
from repro.core.stats import PruningStats
from repro.core.two_joins.chained import chained_joins_nested
from repro.datagen import uniform_points
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex
from repro.kernels import dispatch

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)
#: Centres of four cells of a 10 x 10 grid, in four different cells of a 4 x 4 one.
CENTERS = ((15.0, 15.0), (15.0, 85.0), (85.0, 15.0), (85.0, 85.0))
#: What may differ between the two sizes: 300 focals span two 256-row chunks of
#: ``get_knn_batch`` — one more block-matrix call and a split group or two.
TOLERANCE = 2 * len(CENTERS)
#: Absolute ceiling for one query; a per-point loop over 100 points needs 300+.
BUDGET = 40


def clustered(per_cluster: int, seed: int, start_pid: int = 0) -> list[Point]:
    """``per_cluster`` points within +-1 of each of :data:`CENTERS`."""
    rng = np.random.default_rng(seed)
    return [
        Point(cx + dx, cy + dy, start_pid + i * per_cluster + j)
        for i, (cx, cy) in enumerate(CENTERS)
        for j, (dx, dy) in enumerate(rng.uniform(-1.0, 1.0, size=(per_cluster, 2)).tolist())
    ]


def dispatches(fn) -> float:
    """Total kernel dispatches of ``fn()``, all kernels together."""
    before = dispatch.counter_values()
    fn()
    return sum(d["delta"] for d in dispatch.counter_deltas(before))


@pytest.fixture(scope="module")
def inner() -> GridIndex:
    """4000 uniform points, 10 x 10 cells of 40: a k=4 locality is one cell."""
    return GridIndex(
        uniform_points(4000, BOUNDS, seed=401, start_pid=10_000), cells_per_side=10, bounds=BOUNDS
    )


def assert_flat_dispatches(query) -> None:
    """``query(outer, stats)`` costs the same for 100 and for 300 outer points."""
    counts = []
    for per_cluster in (25, 75):
        outer, stats = clustered(per_cluster, seed=402), PruningStats()
        counts.append(dispatches(lambda: query(outer, stats)))
        assert stats.neighborhoods_computed >= per_cluster  # the join phase ran
    assert 0 < min(counts) and max(counts) <= BUDGET, counts
    assert abs(counts[1] - counts[0]) <= TOLERANCE, counts


def test_range_inner_dispatches_do_not_grow_with_the_outer_relation(inner):
    def query(outer, stats):
        outer_index = GridIndex(outer, cells_per_side=4, bounds=BOUNDS)
        range_inner_join_block_marking(outer_index, inner, BOUNDS, 4, stats=stats)
        assert stats.neighborhoods_computed == len(outer)  # nothing was pruned

    assert_flat_dispatches(query)


def test_counting_dispatches_do_not_grow_with_the_outer_relation(inner):
    assert_flat_dispatches(
        lambda outer, stats: select_join_counting(
            outer, inner, Point(*CENTERS[0]), 4, 40, stats=stats
        )
    )


def test_cold_chained_dispatches_do_not_grow_with_the_outer_relation(inner):
    # 50 B points per cluster: the larger A reaches more distinct B points, all
    # of them cache misses, and they still share the probe of their cluster.
    b_index = GridIndex(clustered(50, seed=403, start_pid=5_000), cells_per_side=10, bounds=BOUNDS)
    assert_flat_dispatches(
        lambda outer, stats: chained_joins_nested(outer, b_index, inner, 8, 4, stats=stats)
    )
