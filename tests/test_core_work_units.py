"""Exact work units of the optimized join algorithms and Procedure 5, pinned.

``PruningStats`` is the paper's cost model as the planner and the calibration
loop see it; the other core suites only assert ``> 0`` or ``<`` on it.  Every
number below was recorded on the per-point implementations (PR 21) *before*
the join phases were batched, so a rewrite of how neighbourhoods are computed
or filtered must reproduce them exactly (the two-selects pins were recorded
on PR 23, before the block phase was windowed) — and the result digest (row count +
CRC of the pid rows in output order) says the rows still come out the same,
in the same order.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict

import pytest

from repro.core.select_join.block_marking import select_join_block_marking
from repro.core.select_join.counting import select_join_counting
from repro.core.select_join.range_inner import range_inner_join_block_marking
from repro.core.stats import PruningStats
from repro.core.two_joins.chained import chained_joins_nested
from repro.core.two_joins.unchained import unchained_joins_block_marking
from repro.core.two_selects.optimized import two_knn_selects_optimized
from repro.datagen import clustered_points, uniform_points
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)


def work(stats: PruningStats) -> dict[str, int]:
    """The non-zero counters of ``stats``."""
    return {name: value for name, value in asdict(stats).items() if value}


def digest(rows) -> tuple[int, int]:
    """``(row count, CRC-32 of the pid rows in output order)``."""
    return len(rows), zlib.crc32(repr([row.pids for row in rows]).encode())


@pytest.fixture(scope="module")
def outer():
    """600 uniform outer points on a 16 x 16 grid; 27 of its blocks are empty."""
    return GridIndex(uniform_points(600, BOUNDS, seed=231), cells_per_side=16, bounds=BOUNDS)


@pytest.fixture(scope="module")
def inner():
    """2000 uniform inner points on a 12 x 12 grid."""
    return GridIndex(
        uniform_points(2000, BOUNDS, seed=232, start_pid=100_000),
        cells_per_side=12,
        bounds=BOUNDS,
    )


def test_range_inner_block_marking_units(outer, inner):
    stats = PruningStats()
    pairs = range_inner_join_block_marking(
        outer, inner, Rect(640.0, 120.0, 900.0, 380.0), 4, stats=stats
    )
    assert work(stats) == RANGE_INNER_UNITS
    assert digest(pairs) == RANGE_INNER_DIGEST


def test_counting_units(outer, inner):
    stats = PruningStats()
    pairs = select_join_counting(
        list(outer.points()), inner, Point(310.0, 640.0), 4, 24, stats=stats
    )
    assert work(stats) == COUNTING_UNITS
    assert digest(pairs) == COUNTING_DIGEST


def test_counting_store_input_units(outer, inner):
    """The columnar entry (a ``PointStore`` outer) prunes and emits the same."""
    stats = PruningStats()
    pairs = select_join_counting(outer.store, inner, Point(310.0, 640.0), 4, 24, stats=stats)
    assert work(stats) == COUNTING_UNITS
    assert sorted(p.pids for p in pairs) == sorted(
        p.pids
        for p in select_join_counting(list(outer.points()), inner, Point(310.0, 640.0), 4, 24)
    )


def test_block_marking_units(outer, inner):
    stats = PruningStats()
    pairs = select_join_block_marking(outer, inner, Point(310.0, 640.0), 4, 24, stats=stats)
    assert work(stats) == BLOCK_MARKING_UNITS
    assert stats.blocks_skipped_by_contour > 0
    assert digest(pairs) == BLOCK_MARKING_DIGEST


@pytest.fixture(scope="module")
def chain():
    """A (120, two clusters) -> B (900) -> C (2500) for the chained join."""
    a = clustered_points(2, 60, BOUNDS, cluster_radius=80.0, seed=233, start_pid=1_000)
    b = GridIndex(
        uniform_points(900, BOUNDS, seed=234, start_pid=10_000), cells_per_side=10, bounds=BOUNDS
    )
    c = GridIndex(
        uniform_points(2500, BOUNDS, seed=235, start_pid=20_000), cells_per_side=12, bounds=BOUNDS
    )
    return a, b, c


def test_chained_cached_units(chain):
    a, b, c = chain
    stats = PruningStats()
    triplets = chained_joins_nested(a, b, c, 6, 3, cache=True, stats=stats)
    assert work(stats) == CHAINED_CACHED_UNITS
    assert stats.cache_hits + stats.cache_misses == 6 * len(a)
    assert digest(triplets) == CHAINED_DIGEST


def test_chained_uncached_units(chain):
    a, b, c = chain
    stats = PruningStats()
    triplets = chained_joins_nested(a, b, c, 6, 3, cache=False, stats=stats)
    assert work(stats) == CHAINED_UNCACHED_UNITS
    assert digest(triplets) == CHAINED_DIGEST


def test_chained_shared_cache_units(chain):
    """A cache warmed by one query serves the next; only new B points miss."""
    a, b, c = chain
    shared: dict = {}
    warm = PruningStats()
    chained_joins_nested(a[:60], b, c, 6, 3, stats=warm, neighborhood_cache=shared)
    assert work(warm) == CHAINED_WARMUP_UNITS
    assert len(shared) == warm.cache_misses
    stats = PruningStats()
    triplets = chained_joins_nested(a, b, c, 6, 3, stats=stats, neighborhood_cache=shared)
    assert work(stats) == CHAINED_SHARED_UNITS
    assert len(shared) == warm.cache_misses + stats.cache_misses
    assert digest(triplets) == CHAINED_DIGEST


def test_unchained_block_marking_units(outer, inner):
    a = clustered_points(2, 80, BOUNDS, cluster_radius=70.0, seed=236, start_pid=1_000)
    stats = PruningStats()
    triplets = unchained_joins_block_marking(a, outer, inner, 3, 2, stats=stats)
    assert work(stats) == UNCHAINED_UNITS
    assert digest(triplets) == UNCHAINED_DIGEST


@pytest.mark.parametrize("case", ["near", "far", "swapped", "overlapping"])
def test_two_selects_units(inner, case):
    """Procedure 5: the restricted locality's size and the surviving rows."""
    f1, k1, f2, k2 = TWO_SELECTS_CASES[case]
    stats = PruningStats()
    points = two_knn_selects_optimized(inner, f1, k1, f2, k2, stats=stats)
    units, expected = TWO_SELECTS_PINS[case]
    assert work(stats) == units
    assert (len(points), zlib.crc32(repr([p.pid for p in points]).encode())) == expected


# -- recorded on the parent commit (PR 23), dense block phase ----------------
TWO_SELECTS_CASES = {
    "near": (Point(310.0, 640.0), 8, Point(330.0, 655.0), 96),
    "far": (Point(310.0, 640.0), 8, Point(820.0, 150.0), 96),
    # k1 > k2: the algorithm swaps the predicates, so the rows equal "near".
    "swapped": (Point(330.0, 655.0), 96, Point(310.0, 640.0), 8),
    "overlapping": (Point(310.0, 640.0), 40, Point(345.0, 610.0), 64),
}
TWO_SELECTS_PINS = {
    "near": ({"blocks_examined": 144, "blocks_pruned": 140, "locality_blocks": 4}, (8, 4091601063)),
    "far": ({"blocks_examined": 144, "blocks_pruned": 125, "locality_blocks": 19}, (0, 223132457)),
    "swapped": (
        {"blocks_examined": 144, "blocks_pruned": 140, "locality_blocks": 4},
        (8, 4091601063),
    ),
    "overlapping": (
        {"blocks_examined": 144, "blocks_pruned": 130, "locality_blocks": 14},
        (29, 631976720),
    ),
}

# -- recorded on the parent commit (PR 21), per-point join phases ------------
RANGE_INNER_UNITS = {
    "neighborhoods_computed": 128,
    "points_pruned": 472,
    "blocks_examined": 229,
    "blocks_pruned": 177,
    "blocks_contributing": 52,
}
RANGE_INNER_DIGEST = (189, 1647172884)
COUNTING_UNITS = {"neighborhoods_computed": 42, "points_pruned": 558}
COUNTING_DIGEST = (26, 892549468)
BLOCK_MARKING_UNITS = {
    "neighborhoods_computed": 64,
    "points_pruned": 536,
    "blocks_examined": 52,
    "blocks_pruned": 27,
    "blocks_contributing": 22,
    "blocks_skipped_by_contour": 204,
}
BLOCK_MARKING_DIGEST = (26, 246544404)
CHAINED_CACHED_UNITS = {"neighborhoods_computed": 75, "cache_hits": 645, "cache_misses": 75}
CHAINED_UNCACHED_UNITS = {"neighborhoods_computed": 720}
CHAINED_WARMUP_UNITS = {"neighborhoods_computed": 41, "cache_hits": 319, "cache_misses": 41}
CHAINED_SHARED_UNITS = {"neighborhoods_computed": 34, "cache_hits": 686, "cache_misses": 34}
CHAINED_DIGEST = (2160, 463432864)
UNCHAINED_UNITS = {
    "neighborhoods_computed": 226,
    "points_pruned": 374,
    "blocks_examined": 229,
    "blocks_pruned": 149,
    "blocks_contributing": 80,
}
UNCHAINED_DIGEST = (542, 3983657460)
