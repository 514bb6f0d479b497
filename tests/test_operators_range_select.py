"""Unit tests for the range-select operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.stats import PruningStats
from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index import GridIndex, QuadtreeIndex
from repro.locality.knn import get_knn
from repro.operators.range_select import (
    radius_select,
    radius_select_rows,
    range_select,
    range_select_rows,
)


class TestRangeSelect:
    def test_matches_linear_scan(self, grid_uniform_small, uniform_small):
        window = Rect(200.0, 300.0, 650.0, 720.0)
        got = {p.pid for p in range_select(grid_uniform_small, window)}
        expected = {p.pid for p in uniform_small if window.contains_point(p)}
        assert got == expected

    def test_window_covering_everything(self, grid_uniform_small, uniform_small):
        window = Rect(-10.0, -10.0, 2000.0, 2000.0)
        assert len(range_select(grid_uniform_small, window)) == len(uniform_small)

    def test_window_outside_extent(self, grid_uniform_small):
        assert range_select(grid_uniform_small, Rect(5000.0, 5000.0, 6000.0, 6000.0)) == []

    def test_degenerate_window_on_a_point(self, grid_uniform_small, uniform_small):
        target = uniform_small[17]
        window = Rect(target.x, target.y, target.x, target.y)
        got = {p.pid for p in range_select(grid_uniform_small, window)}
        assert target.pid in got

    def test_index_agnostic(self, any_index_uniform_small, uniform_small):
        window = Rect(100.0, 100.0, 500.0, 400.0)
        got = {p.pid for p in range_select(any_index_uniform_small, window)}
        expected = {p.pid for p in uniform_small if window.contains_point(p)}
        assert got == expected


class TestRadiusSelect:
    def test_matches_linear_scan(self, grid_uniform_small, uniform_small):
        center, radius = Point(480.0, 520.0), 180.0
        got = {p.pid for p in radius_select(grid_uniform_small, center, radius)}
        expected = {p.pid for p in uniform_small if p.distance_to(center) <= radius}
        assert got == expected

    def test_zero_radius(self, grid_uniform_small, uniform_small):
        target = uniform_small[3]
        got = {p.pid for p in radius_select(grid_uniform_small, Point(target.x, target.y), 0.0)}
        assert target.pid in got

    def test_negative_radius_rejected(self, grid_uniform_small):
        with pytest.raises(InvalidParameterError):
            radius_select(grid_uniform_small, Point(0, 0), -1.0)

    def test_huge_radius_returns_everything(self, grid_uniform_small, uniform_small):
        got = radius_select(grid_uniform_small, Point(0.0, 0.0), 1e9)
        assert len(got) == len(uniform_small)


class TestRowsCores:
    """The rows-returning cores behind both operators."""

    def test_range_rows_are_the_selected_points_rows(self, grid_uniform_small):
        window = Rect(200.0, 300.0, 650.0, 720.0)
        rows = range_select_rows(grid_uniform_small, window)
        assert rows.dtype == np.int64
        store = grid_uniform_small.store
        assert store.materialize(rows) == range_select(grid_uniform_small, window)
        assert range_select_rows(grid_uniform_small, Rect(5e3, 5e3, 6e3, 6e3)).size == 0

    def test_radius_rows_keep_the_closed_ball_boundary(self):
        # hypot(3, 4) == 5 exactly, and so do its mirror images.
        corners = [Point(3.0, 4.0, 0), Point(-3.0, 4.0, 1), Point(4.0, -3.0, 2), Point(6.0, 0.0, 3)]
        index = GridIndex(corners, cells_per_side=2)
        rows = radius_select_rows(index, Point(0.0, 0.0), 5.0)
        assert sorted(index.store.pids[rows].tolist()) == [0, 1, 2]

    def test_blocks_examined_counts_every_intersecting_block(self, grid_uniform_small):
        window = Rect(200.0, 300.0, 650.0, 720.0)
        stats = PruningStats()
        range_select(grid_uniform_small, window, stats)
        assert stats.blocks_examined == len(grid_uniform_small.blocks_intersecting(window))

    def test_masks_go_through_the_kernel_table(self, grid_uniform_small):
        def dispatched(kernel: str) -> float:
            return sum(
                c.value
                for c in kernels.dispatch_registry().counters()
                if dict(c.labels).get("kernel") == kernel
            )

        before = dispatched("window_mask"), dispatched("ball_mask")
        range_select(grid_uniform_small, Rect(200.0, 300.0, 650.0, 720.0))
        radius_select(grid_uniform_small, Point(500.0, 500.0), 120.0)
        assert dispatched("window_mask") == before[0] + 1
        assert dispatched("ball_mask") == before[1] + 1

    @pytest.mark.parametrize("index_cls", [GridIndex, QuadtreeIndex])
    def test_points_outside_the_declared_bounds_are_found(self, index_cls):
        """Block rectangles cover clamped outliers, so pruning cannot lose them."""
        bounds = Rect(0.0, 0.0, 100.0, 100.0)
        points = [Point(float(i * 9 % 100), float(i * 17 % 100), i) for i in range(40)]
        points += [Point(-10.0, -10.0, 100), Point(112.0, 40.0, 101), Point(50.0, 109.0, 102)]
        options = {"cells_per_side": 4} if index_cls is GridIndex else {"capacity": 4}
        index = index_cls(points, bounds=bounds, **options)
        for window in (
            Rect(101.0, 0.0, 120.0, 120.0),  # wholly beyond the bounds
            Rect(-20.0, -20.0, -5.0, -5.0),
            Rect(0.0, 0.0, 30.0, 30.0),  # contains a border block, not its outlier
            Rect(40.0, 90.0, 60.0, 120.0),
        ):
            got = sorted(p.pid for p in range_select(index, window))
            assert got == sorted(p.pid for p in points if window.contains_point(p))
        nearest = get_knn(index, Point(115.0, 40.0), 1)
        assert nearest.pid_array.tolist() == [101]
